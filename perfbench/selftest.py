#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size (about a minute).

    python3 perfbench/selftest.py

For each workload, end-to-end and traced: every metric BENCHMARK.json
names is emitted with its unit, the run is correct, and its counts pass
the determinism guard.  A deliberately wrong expected output fed to the
oracle comparison must be counted as failed.  Outside a checkout (only
BENCHMARK.json and this directory present) the benchmark must exit
non-zero without a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        FAILURES.append(message)


def contract() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_metrics(workload: str, trace: int, result: dict) -> None:
    listed = contract()["per_layer" if trace else "end_to_end"]
    for metric in listed:
        got = result["metrics"].get(metric["name"])
        expect(
            got is not None and got["unit"] == metric["unit"]
            and isinstance(got["value"], (int, float)),
            f"{workload} trace={trace}: {metric['name']} emitted in "
            f"{metric['unit']}",
        )


def last_json_line(command: list[str], cwd: Path):
    out = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                         timeout=170)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return out.returncode, None


def main() -> int:
    run.import_program()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            args = run.parse_args([
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ])
            result = run.run_workload(args)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: correct, nothing failed "
                   f"{result['failures'] or ''}{result['problems'] or ''}")
            check_metrics(workload, trace, result)
        wrong = run.run_workload(args, corrupt=True)
        expect(wrong["failed"] >= 1 and not wrong["correct"],
               f"{workload}: a wrong expected output counts as failed")
        args.trace = 0
        wrong = run.run_workload(args, corrupt=True)
        expect(wrong["metrics"]["failed_ratio"]["value"] > 0,
               f"{workload}: a wrong expected output shows in failed_ratio")

    command = [sys.executable, "perfbench/run.py", "--workload", "kernels",
               "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"]
    code, line = last_json_line(command, run.ROOT)
    expect(code == 0 and line is not None
           and set(line) == {"correct", "attempted", "failed", "metrics"},
           "the last line of a run is the result object")

    bare = run.SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, line = last_json_line(command, bare)
    shutil.rmtree(bare)
    expect(code != 0 and line is None,
           "without the compiler the benchmark exits non-zero, no result")

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
