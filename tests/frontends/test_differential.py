"""Differential suite: every pykernels registry entry executed natively
in CPython versus compiled through the CPython-bytecode frontend and
run on the memory simulator.

The outputs must be *identical* — same values, same order — for every
module count k in {2, 4, 8} and every storage strategy.  This is the
subsystem's ground truth: the frontend is only correct if the whole
pipeline (destackify -> simplify -> rename -> schedule -> allocate ->
simulate) preserves CPython semantics on the supported subset.
"""

from dataclasses import replace

import pytest

from repro.core.strategies import run_strategy
from repro.liw.machine import MachineConfig
from repro.pipeline import compile_source, simulate
from repro.programs import all_pykernels, native_run, pykernel_names
from repro.programs.pykernels import PyKernelSpec

KS = (2, 4, 8)
STRATEGIES = ("STOR1", "STOR2", "STOR3")

_NATIVE = {spec.name: native_run(spec) for spec in all_pykernels()}
_COMPILED: dict = {}


def _compiled(name, k, constants_in_memory=False):
    key = (name, k, constants_in_memory)
    if key not in _COMPILED:
        spec = next(s for s in all_pykernels() if s.name == name)
        _COMPILED[key] = compile_source(
            spec.source,
            MachineConfig(num_modules=k),
            constants_in_memory=constants_in_memory,
            frontend="python",
            py_entry=spec.entry,
        )
    return _COMPILED[key]


def test_registry_has_at_least_ten_kernels():
    names = pykernel_names()
    assert len(names) >= 10
    assert sum(spec.uses_arrays for spec in all_pykernels()) >= 8


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", pykernel_names())
def test_compiled_matches_native(name, k, strategy):
    spec = next(s for s in all_pykernels() if s.name == name)
    program = _compiled(name, k)
    storage = run_strategy(
        strategy, program.schedule, program.renamed,
        method="hitting_set", seed=0,
    )
    result = simulate(program, storage.allocation, list(spec.inputs))
    assert result.outputs == _NATIVE[name], (
        f"{name} diverged from CPython at k={k} {strategy}"
    )


@pytest.mark.parametrize("name", pykernel_names())
def test_compiled_matches_native_with_memory_constants(name):
    spec = next(s for s in all_pykernels() if s.name == name)
    program = _compiled(name, 4, constants_in_memory=True)
    storage = run_strategy(
        "STOR2", program.schedule, program.renamed,
        method="hitting_set", seed=0,
    )
    result = simulate(program, storage.allocation, list(spec.inputs))
    assert result.outputs == _NATIVE[name]


@pytest.mark.parametrize("name", pykernel_names())
def test_kernels_produce_output(name):
    # every registry kernel must actually exercise write()
    assert _NATIVE[name], f"{name} writes nothing"


# -- floor division and modulo on signed operands --------------------------

_FLOOR_KERNEL = PyKernelSpec(
    name="floor_ops",
    entry="floor_ops",
    source='''
def floor_ops():
    for i in range(6):
        a = read()
        b = read()
        write(a // b)
        write(a % b)
        write((a - b) // (b * 2) + (a + b) % 3)
''',
)

_SIGNED_PAIRS = (
    (-7, 2), (7, -2), (-7, -2), (7, 2), (-1, 5), (10**18 + 1, -3),
)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("k", KS)
def test_floor_division_and_modulo_match_native(k, strategy):
    """Python ``//``/``%`` floor: ``-7 // 2 == -4`` and ``-7 % 2 == 1``,
    whatever the module count or strategy."""
    inputs = tuple(x for pair in _SIGNED_PAIRS for x in pair)
    spec = replace(_FLOOR_KERNEL, inputs=inputs)
    program = compile_source(
        spec.source, MachineConfig(num_modules=k),
        frontend="python", py_entry=spec.entry,
    )
    storage = run_strategy(strategy, program.schedule, program.renamed)
    result = simulate(program, storage.allocation, list(inputs))
    assert result.outputs == native_run(spec)
    assert result.outputs[:2] == [-4, 1]


@pytest.mark.parametrize("divisor", [0, 0.0])
def test_floor_division_by_zero_raises_like_native(divisor):
    spec = replace(_FLOOR_KERNEL, inputs=(-7, divisor) * 6)
    with pytest.raises(ZeroDivisionError):
        native_run(spec)
    program = compile_source(
        spec.source, MachineConfig(num_modules=4),
        frontend="python", py_entry=spec.entry,
    )
    storage = run_strategy("STOR1", program.schedule, program.renamed)
    with pytest.raises(ZeroDivisionError):
        simulate(program, storage.allocation, list(spec.inputs))
