"""Unit tests for the TAC reference interpreter."""

import pytest

from repro.ir import build_cfg, compile_to_tac, run_cfg
from repro.ir.interp import ExecutionLimitExceeded, InputExhausted


def run(body: str, decls: str = "var x, y, i: int; r: real; a: array[8] of int;",
        inputs=None, **kw):
    cfg = build_cfg(compile_to_tac(f"program t; {decls} begin {body} end."))
    return run_cfg(cfg, inputs, **kw)


def test_arithmetic():
    res = run("x := 2 + 3 * 4; write(x)")
    assert res.outputs == [14]


def test_idiv_truncates_toward_zero():
    res = run("write(7 div 2); write(-7 div 2); write(7 div -2)")
    assert res.outputs == [3, -3, -3]


def test_imod_matches_trunc_division():
    res = run("write(7 mod 2); write(-7 mod 2); write(7 mod -2)")
    assert res.outputs == [1, -1, 1]


@pytest.mark.parametrize(
    "a, b",
    [
        (10**18 + 1, 1),
        (2**53 + 1, 1),
        (-(2**53) - 1, 1),
        (10**18 + 1, 3),
        (-(10**18) - 1, 3),
        (10**18 + 1, -3),
        (-(10**18) - 1, -3),
        (2**64 + 7, 2**32 + 1),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (0, -5),
    ],
)
def test_idiv_imod_exact_on_large_and_negative_ints(a, b):
    """Truncation toward zero with integer arithmetic: no float detour,
    so operands above 2**53 keep every digit."""
    from repro.ir.interp import _BINARY_EVAL

    q = _BINARY_EVAL["idiv"](a, b)
    r = _BINARY_EVAL["imod"](a, b)
    want_q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    assert q == want_q and type(q) is int
    assert r == a - b * want_q
    assert abs(r) < abs(b) and (r == 0 or (r < 0) == (a < 0))


def test_idiv_of_floats_still_truncates():
    from repro.ir.interp import _BINARY_EVAL

    assert _BINARY_EVAL["idiv"](-7.5, 2) == -3
    assert _BINARY_EVAL["imod"](-7.5, 2) == -1.5


@pytest.mark.parametrize("op", ["idiv", "imod", "floordiv", "floormod"])
def test_integer_division_ops_by_zero_raise(op):
    from repro.ir.interp import _BINARY_EVAL

    with pytest.raises(ZeroDivisionError):
        _BINARY_EVAL[op](7, 0)


def test_real_division():
    res = run("write(7 / 2)")
    assert res.outputs == [3.5]


def test_uninitialised_scalar_reads_zero():
    res = run("write(x)")
    assert res.outputs == [0]


def test_uninitialised_array_reads_zero():
    res = run("write(a[3])")
    assert res.outputs == [0]


def test_array_out_of_bounds_raises():
    with pytest.raises(IndexError):
        run("a[8] := 1")
    with pytest.raises(IndexError):
        run("x := a[-1]")


def test_read_consumes_inputs_in_order():
    res = run("read(x); read(y); write(y); write(x)", inputs=[10, 20])
    assert res.outputs == [20, 10]


def test_input_exhaustion():
    with pytest.raises(InputExhausted):
        run("read(x); read(y)", inputs=[1])


def test_step_limit():
    with pytest.raises(ExecutionLimitExceeded):
        run("while true do x := x + 1", max_steps=1000)


def test_while_loop_semantics():
    res = run("x := 5; y := 1; while x > 0 do begin y := y * x; x := x - 1 end; write(y)")
    assert res.outputs == [120]


def test_for_downto():
    res = run("y := 0; for i := 5 downto 1 do y := y + i; write(y)")
    assert res.outputs == [15]


def test_for_empty_range_skips_body():
    res = run("y := 7; for i := 3 to 2 do y := 0; write(y)")
    assert res.outputs == [7]


def test_for_bound_evaluated_once():
    res = run("x := 3; y := 0; for i := 0 to x do begin x := 100; y := y + 1 end; write(y)")
    assert res.outputs == [4]


def test_booleans_and_logic():
    res = run("if (1 < 2) and not (2 < 1) then write(1) else write(0)")
    assert res.outputs == [1]


def test_intrinsics():
    res = run("write(abs(-3)); write(max(2, 5)); write(trunc(3.9))")
    assert res.outputs == [3, 5, 3]


def test_math_intrinsics():
    res = run("r := exp(0.0); write(r); r := sqrt(16.0); write(r)")
    assert res.outputs == [1.0, 4.0]


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        run("write(1 div 0)")


def test_sequential_time_counts_memory_accesses():
    # x := y + 1 costs: read y + write x + (temp write + temp read)
    res = run("x := y + 1")
    assert res.memory_accesses > 0
    assert res.sequential_time >= res.steps


def test_final_scalar_state_exposed():
    res = run("x := 42")
    assert res.scalars["x"] == 42


def test_memory_constants_initialised():
    src = "program t; var r: real; begin r := 2.5; write(r + 2.5) end."
    cfg = build_cfg(compile_to_tac(src, constants_in_memory=True))
    res = run_cfg(cfg)
    assert res.outputs == [5.0]
