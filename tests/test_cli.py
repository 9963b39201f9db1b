"""Tests for the command-line driver (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "sum.p"
    path.write_text(
        """
program sums;
var i, s: int;
begin
  s := 0;
  for i := 1 to 10 do s := s + i;
  write(s)
end.
"""
    )
    return str(path)


def test_compile_command(program_file, capsys):
    assert main(["compile", program_file]) == 0
    out = capsys.readouterr().out
    assert "long" in out and "storage" in out


def test_compile_show_allocation(program_file, capsys):
    assert main(["compile", program_file, "--show-allocation"]) == 0
    assert "M1" in capsys.readouterr().out


def test_compile_show_schedule(program_file, capsys):
    assert main(["compile", program_file, "--show-schedule"]) == 0
    out = capsys.readouterr().out
    assert "[" in out  # schedule listing


def test_compile_trace(program_file, capsys):
    assert main(["compile", program_file, "--trace"]) == 0
    out = capsys.readouterr().out
    for name in ("parse", "sema", "lower", "rename", "schedule",
                 "allocate", "total"):
        assert name in out
    assert "ran" in out and "ms" in out
    assert "skip" in out  # unroll disabled at factor 1


def test_compile_trace_json(program_file, tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    assert main([
        "compile", program_file, "--trace-json", str(trace_path),
        "--strategy", "STOR2",
    ]) == 0
    events = json.loads(trace_path.read_text())
    names = [e["pass"] for e in events]
    assert "parse" in names and "allocate" in names
    assert any(n.startswith("allocate.") for n in names)  # sub-stages
    done = [e for e in events if e["status"] == "end"]
    assert all("fingerprint" in e for e in done if "." not in e["pass"])


def test_compile_pipeline_flags(program_file, capsys):
    assert main([
        "compile", program_file, "--no-simplify",
        "--rename-mode", "variable", "--seed", "3",
    ]) == 0
    assert "storage" in capsys.readouterr().out


def test_run_command(program_file, capsys):
    assert main(["run", program_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[0] == "55"
    assert "cycles=" in captured.err


def test_run_with_inputs(tmp_path, capsys):
    path = tmp_path / "echo.p"
    path.write_text(
        "program echo; var x: int; r: real;"
        " begin read(x); read(r); write(x + 1); write(r) end."
    )
    assert main(["run", str(path), "-i", "41", "-i", "2.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["42", "2.5"]


def test_run_machine_flags(program_file, capsys):
    assert main([
        "run", program_file, "-k", "2", "--fus", "2", "--unroll", "2",
        "--memory-constants", "--strategy", "STOR3", "--method", "backtrack",
    ]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "55"


def test_bench_command(capsys):
    assert main(["bench", "FFT", "--unroll", "2"]) == 0
    out = capsys.readouterr().out
    assert "FFT" in out and "match reference" in out


def test_bench_rejects_unknown_program():
    with pytest.raises(SystemExit):
        main(["bench", "NOTAPROGRAM"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_layout_choice(program_file, capsys):
    assert main(["run", program_file, "--layout", "skewed"]) == 0


@pytest.fixture()
def array_program_file(tmp_path):
    path = tmp_path / "arr.p"
    path.write_text(
        """
program arr;
var i, s: int; a: array[8] of int; b: array[8] of int;
begin
  s := 0;
  for i := 0 to 7 do begin
    a[i] := i * 2;
    b[i] := a[i] + 1;
    s := s + b[i]
  end;
  write(s)
end.
"""
    )
    return str(path)


def test_compile_array_layout_optimize(array_program_file, capsys):
    assert main([
        "compile", array_program_file, "--array-layout", "optimize",
        "--unroll", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "array layout:" in out
    assert "predicted conflicts" in out


def test_compile_array_layout_fixed_stays_silent(array_program_file, capsys):
    assert main(["compile", array_program_file, "--unroll", "4"]) == 0
    assert "array layout:" not in capsys.readouterr().out


def test_run_array_layout_optimize_matches_fixed(array_program_file, capsys):
    assert main(["run", array_program_file, "--unroll", "4"]) == 0
    fixed = capsys.readouterr()
    assert main([
        "run", array_program_file, "--unroll", "4",
        "--array-layout", "optimize",
    ]) == 0
    opt = capsys.readouterr()
    assert opt.out == fixed.out  # identical program outputs
    assert "t_opt/t_min=" in opt.err
    assert "t_opt/t_min=" not in fixed.err


def test_bench_array_layout_optimize(capsys):
    assert main([
        "bench", "TAYLOR1", "--unroll", "2", "--array-layout", "optimize",
    ]) == 0
    assert "match reference" in capsys.readouterr().out


def test_batch_array_layout_optimize(tmp_path, capsys):
    report_path = tmp_path / "batch.json"
    assert main([
        "batch", "TAYLOR1", "--unroll", "2",
        "--array-layout", "optimize", "--json", str(report_path),
    ]) == 0
    import json

    report = json.loads(report_path.read_text())
    assert report["num_ok"] == 1


def _stalls(out: str) -> str:
    return next(line for line in out.splitlines() if "stalls:" in line)


def test_bench_honours_delta(capsys):
    assert main(["bench", "TAYLOR1", "--delta", "1"]) == 0
    one = _stalls(capsys.readouterr().out)
    assert main(["bench", "TAYLOR1", "--delta", "3"]) == 0
    three = _stalls(capsys.readouterr().out)
    assert one != three


def test_bench_checks_output_values(monkeypatch, capsys):
    import dataclasses

    import repro.__main__ as cli
    from repro.programs import get_program

    spec = get_program("TAYLOR1")

    def off_by_one(inputs):
        return [value + 1 for value in spec.reference(inputs)]

    wrong = dataclasses.replace(spec, reference=off_by_one)
    monkeypatch.setattr(cli, "get_program", lambda name: wrong)
    assert main(["bench", "TAYLOR1"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--unroll", "0"], ["--unroll", "-2"], ["--unroll", "65"],
     ["-k", "0"], ["--fus", "0"], ["--max-atom-nodes", "0"],
     ["--strategy", "STOR9"], ["--frontend", "cobol"]],
)
def test_invalid_option_values_are_usage_errors(program_file, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", program_file, *flags])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_accepts_every_registered_strategy(program_file, capsys):
    assert main(["run", program_file, "--strategy", "STOR-REGION"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "55"


def test_cli_max_atom_nodes_is_the_allocate_knob(program_file):
    from repro.__main__ import _options
    from repro.passes.artifacts import PipelineOptions
    from repro.passes.registry import COMPILE_PASSES
    from repro.pipeline import run_pipeline

    args = build_parser().parse_args(
        ["compile", program_file, "--max-atom-nodes", "6"]
    )
    source = open(program_file).read()
    knob = PipelineOptions(machine=_options(args).machine).with_knobs(
        max_atom_nodes=6
    )
    cli = run_pipeline(source, _options(args), passes=COMPILE_PASSES)
    ref = run_pipeline(source, knob, passes=COMPILE_PASSES)
    assert cli.fingerprints["allocate"] == ref.fingerprints["allocate"]
