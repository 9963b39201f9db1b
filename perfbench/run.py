#!/usr/bin/env python3
"""Benchmark of the compiler: ``paper``, ``kernels`` and ``serve``.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the compiler is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it print every metric by name and
unit, the latency sample count and each failed job.  See README.md in
this directory for the workloads and for which end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cache dirs of spawned fabrics and the determinism guard's records.
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("paper", "kernels", "serve")
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Allowed |sum of a job's self times - its traced wall|, in seconds.
ACCOUNTING_TOLERANCE_S = 1e-6

#: name -> unit.  The end-to-end metrics, in the order printed.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "jobs_per_ref_s": "1/s",
    "host_speed": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "failed_ratio": "fraction",
    "peak_rss_mb": "MB",
    "sim_time_geomean": "cycles",
    "transfer_ratio": "ratio",
    "extra_copies": "count",
    "residual_conflicts": "count",
    "code_liws": "count",
}

#: Span name -> per-layer metric (inclusive seconds).
LAYER_SPANS = {
    "lang.parse": "lang.parse_s",
    "lang.sema": "lang.sema_s",
    "frontends.pybytecode": "frontends.pybytecode_s",
    "ir.unroll": "ir.unroll_s",
    "ir.lower": "ir.lower_s",
    "ir.simplify": "ir.simplify_s",
    "ir.rename": "ir.rename_s",
    "liw.schedule": "liw.schedule_s",
    "core.allocate": "core.allocate_s",
    "core.conflict_graph": "core.conflict_graph_s",
    "core.color": "core.color_s",
    "core.duplicate": "core.duplicate_s",
    "core.array_opt": "core.array_opt_s",
    "memsim.simulate": "memsim.simulate_s",
    "passes.manager_self": "passes.manager_self_s",
}

#: The fabric worker's ``stage_totals`` -> per-layer metric (``serve``).
SERVER_STAGES = {
    "parse": "lang.parse_s",
    "sema": "lang.sema_s",
    "unroll": "ir.unroll_s",
    "lower": "ir.lower_s",
    "simplify": "ir.simplify_s",
    "rename": "ir.rename_s",
    "schedule": "liw.schedule_s",
    "STOR1.assign": "core.allocate_s",
}

#: Work counts summed over a run's jobs (see inprocess.summarize).
LAYER_COUNTS = (
    "ir.values", "liw.operations", "core.graph_values", "core.graph_edges",
    "core.atoms", "core.copies_created", "core.array_moves", "memsim.cycles",
    "memsim.conflict_instructions",
)
KERNEL_COUNTS = tuple(
    f"core.kernel.{name}" for name in (
        "masks_built", "sdr_checks", "placements_enumerated",
        "combos_enumerated",
    )
)
SERVER_METRICS = {
    "server.worker_total_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.execute_ms": "ms",
    "server.gateway_hop_ms": "ms",
    "server.batch_size_mean": "requests",
    "server.dedup_ratio": "ratio",
    "server.retries": "count",
    "service.cache_hit_ratio": "ratio",
    "passes.frontend_cache_hit_ratio": "ratio",
    "passes.delta_reuse_ratio": "ratio",
}

#: name -> unit.  The per-layer metrics of a traced run.
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS.values()},
    **{name: "count" for name in LAYER_COUNTS},
    "core.colored_ratio": "ratio",
    **{name: "count" for name in KERNEL_COUNTS},
    **SERVER_METRICS,
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

#: The end-to-end metrics that are counts over the jobs.
E2E_COUNTS = (
    "sim_time_geomean", "transfer_ratio", "extra_copies",
    "residual_conflicts", "code_liws",
)
#: Metrics that must repeat exactly across runs of the same code,
#: workload, seed and length, traced or not.
GUARDED = (*E2E_COUNTS, *LAYER_COUNTS, "core.colored_ratio", *KERNEL_COUNTS)


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def aggregate(summaries: list[dict[str, object]]) -> dict[str, float]:
    """End-to-end and per-layer counts over the jobs' summaries."""
    if not summaries:
        return {}
    counts: dict[str, float] = {
        "sim_time_geomean": _geomean([s["sim_time"] for s in summaries]),
        "transfer_ratio": _geomean(
            [s["transfer_ratio"] for s in summaries]
        ),
    }
    for name in ("extra_copies", "residual_conflicts", "code_liws",
                 *LAYER_COUNTS):
        counts[name] = sum(s[name] for s in summaries)
    colored = sum(s["core.colored"] for s in summaries)
    removed = sum(s["core.removed"] for s in summaries)
    counts["core.colored_ratio"] = (
        colored / (colored + removed) if colored + removed else 1.0
    )
    return counts


def _end_to_end(
    setup_s: float, completed: int, elapsed: float, speed: float,
    latencies: list[float], failed: int, attempted: int,
    peak_rss_mb: float, counts: dict,
) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "jobs_per_s": completed / elapsed,
        "jobs_per_ref_s": completed / elapsed / speed,
        "host_speed": speed,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": _p90(latencies) * 1e3,
        "failed_ratio": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        **{name: counts.get(name, 0) for name in E2E_COUNTS},
    }


def _layer_counts(counts: dict) -> dict[str, float]:
    return {
        **{name: counts.get(name, 0) for name in LAYER_COUNTS},
        "core.colored_ratio": counts.get("core.colored_ratio", 0.0),
    }


# -- set-up ------------------------------------------------------------------


def _probe_command(args: argparse.Namespace) -> list[str]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--setup-probe",
    ]
    return command + (["--tiny"] if args.tiny else [])


def measure_setup(args: argparse.Namespace):
    """Median over ``SETUP_REPEATS`` of a fresh process importing the
    compiler, loading the registries and generating the inputs -- and,
    for ``serve``, of spawning the fabric until ``health`` answers.
    Returns the median and, for ``serve``, the last (cold) fabric."""
    from serve import Fabric

    times, fabric = [], None
    for _ in range(SETUP_REPEATS):
        if fabric is not None:
            fabric.stop()
        t0 = time.perf_counter()
        subprocess.run(
            _probe_command(args), cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        if args.workload == "serve":
            fabric = Fabric(ROOT, SCRATCH)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), fabric


# -- the determinism guard ---------------------------------------------------


def _tree_hash() -> str:
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def guard_counts(
    args: argparse.Namespace, counts: dict[str, float]
) -> list[str]:
    """Compare ``counts`` with every earlier run of the same code,
    workload, seed (``paper`` has no random part) and length; return
    the differences.  The first run records them."""
    seed = "-" if args.workload == "paper" else args.seed
    key = f"{args.workload}|{seed}|{args.seconds}|{args.tiny}|{_tree_hash()}"
    name = hashlib.sha256(key.encode()).hexdigest()[:32]
    path = SCRATCH / "counts" / f"{args.workload}-{name}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    diffs = [
        f"{metric}: {known[metric]!r} in an earlier run, {value!r} now"
        for metric, value in counts.items()
        if metric in known and known[metric] != value
    ]
    if not diffs:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**known, **counts}, sort_keys=True))
        os.replace(tmp, path)
    return diffs


# -- the workloads -----------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    attempted: int
    failures: dict[str, str]
    failed: int
    metrics: dict[str, float]
    problems: list[str] = dataclasses.field(default_factory=list)
    samples: int = 0


def _inprocess(args: argparse.Namespace, corrupt: bool) -> Outcome:
    import inprocess
    from spans import Tracer

    jobs = inprocess.JOB_LISTS[args.workload](args.seed, args.tiny)
    if corrupt:
        first = jobs[0]
        jobs[0] = dataclasses.replace(
            first, oracle=lambda: first.oracle() + ["deliberately wrong"]
        )
    problems: list[str] = []
    if args.trace:
        tracer = Tracer()
        m = inprocess.run_traced(jobs, tracer)
        error = tracer.accounting_error()
        if error > ACCOUNTING_TOLERANCE_S:
            problems.append(
                f"self times miss a job's traced wall by {error:.3g} s"
            )
    else:
        setup_s, _ = measure_setup(args)
        m = inprocess.run_timed(jobs, args.seconds)
    inprocess.check(jobs, m)
    failed = inprocess.failed_count(jobs, m)
    counts = aggregate([r for r in m.first if not isinstance(r, str)])
    if args.trace:
        seconds = tracer.layer_seconds()
        metrics = {
            **{metric: seconds.get(span, 0.0)
               for span, metric in LAYER_SPANS.items()},
            **_layer_counts(counts),
            **{name: tracer.counts[name] for name in KERNEL_COUNTS},
            # the paper and kernels workloads never reach the server
            **{name: 0.0 for name in SERVER_METRICS},
            "trace.overhead_ratio": m.overhead_ratio,
            "trace.spans": tracer.span_count(),
        }
    else:
        metrics = _end_to_end(
            setup_s, m.attempted, m.elapsed, m.speed, m.latencies, failed,
            m.attempted, m.peak_rss_mb, counts,
        )
    return Outcome(m.attempted, m.failures, failed, metrics, problems,
                   len(m.latencies))


def _server_metrics(run) -> dict[str, float]:
    worker = next(iter(run.stats["workers"].values()))
    latency = worker["latency"]
    requests = worker["requests"]
    client_mean = statistics.fmean(seconds for _, seconds in run.replies)
    compiles = requests["ok"] + requests["errors"]
    return {
        "server.worker_total_ms": latency["total"]["mean"] * 1e3,
        "server.queue_wait_ms": latency["queue_wait"]["p50"] * 1e3,
        "server.execute_ms": latency["execute"]["p50"] * 1e3,
        "server.gateway_hop_ms": (
            client_mean - latency["total"]["mean"]
        ) * 1e3,
        "server.batch_size_mean": worker["queue"]["mean_batch_size"],
        "server.dedup_ratio": requests["dedup_hits"] / compiles,
        "server.retries": run.retries,
        "service.cache_hit_ratio": worker["cache"]["hit_rate"],
        "passes.frontend_cache_hit_ratio": (
            worker["frontend_cache"]["hit_rate"]
        ),
        "passes.delta_reuse_ratio": worker["delta_cache"]["hit_rate"],
    }


def _reply_counts(run) -> list[object]:
    """What each reply says, for comparing two passes of one stream."""
    fields = ("singles", "multiples", "total_copies", "residual")
    return [
        (reply["status"],) + tuple(reply["result"][f] for f in fields)
        if reply["status"] == "ok" else (reply["status"],)
        for reply, _ in run.replies
    ]


def _stream_length(args: argparse.Namespace) -> int:
    from serve import REQUESTS_PER_SECOND

    return 20 if args.tiny else REQUESTS_PER_SECOND * args.seconds


def _serve(args: argparse.Namespace, corrupt: bool) -> Outcome:
    import serve
    from spans import Tracer

    stream = serve.serve_requests(args.seed, _stream_length(args))
    problems: list[str] = []
    fabric = None
    try:
        if args.trace:
            fabric = serve.Fabric(ROOT, SCRATCH)
            plain = serve.drive(fabric, stream)
            fabric.stop()
            fabric = serve.Fabric(ROOT, SCRATCH)
            tracer = Tracer()
            run = serve.drive(fabric, stream, tracer)
            if _reply_counts(plain) != _reply_counts(run):
                problems.append("the traced pass was answered differently")
        else:
            setup_s, fabric = measure_setup(args)
            run = serve.drive(fabric, stream)
    finally:
        if fabric is not None:
            fabric.stop()
    failures, served = serve.check(stream, run, corrupt)
    failed = len(failures)
    counts = aggregate(served)
    latencies = [seconds for _, seconds in run.replies]
    if args.trace:
        stage_totals = next(iter(run.stats["workers"].values()))[
            "stage_totals"
        ]
        layer = {metric: 0.0 for metric in LAYER_SPANS.values()}
        for stage, metric in SERVER_STAGES.items():
            layer[metric] = stage_totals.get(stage, 0.0)
        metrics = {
            **layer,
            **_layer_counts(counts),
            # the kernel counters live in the worker process
            **{name: 0 for name in KERNEL_COUNTS},
            **_server_metrics(run),
            "trace.overhead_ratio": run.elapsed / plain.elapsed,
            "trace.spans": tracer.span_count(),
        }
    else:
        metrics = _end_to_end(
            setup_s, len(run.replies), run.elapsed, run.speed, latencies,
            failed, len(stream), run.peak_rss_mb, counts,
        )
    return Outcome(len(stream), failures, failed, metrics, problems,
                   len(latencies))


def run_workload(args: argparse.Namespace, corrupt: bool = False) -> dict:
    """Run one workload and return the result object.  ``corrupt``
    feeds the oracle comparison one deliberately wrong expected output
    (the harness self-test)."""
    if args.workload == "serve":
        outcome = _serve(args, corrupt)
    else:
        outcome = _inprocess(args, corrupt)
    guarded = {
        name: value for name, value in outcome.metrics.items()
        if name in GUARDED
    }
    diffs = guard_counts(args, guarded)
    problems = outcome.problems + [
        f"determinism guard: {diff}" for diff in diffs
    ]
    units = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "failures": outcome.failures,
        "problems": problems,
        "samples": outcome.samples,
    }


# -- command line ------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a few jobs only (the self-test), and the set-up probe
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from "
            f"the root of a checkout of the compiler"
        )
    sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        if args.workload == "serve":
            import serve

            serve.serve_requests(args.seed, _stream_length(args))
        else:
            import inprocess

            inprocess.JOB_LISTS[args.workload](args.seed, args.tiny)
        return 0
    result = run_workload(args)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'end-to-end'}: "
          f"{result['attempted']} jobs, {result['failed']} failed, "
          f"{result['samples']} latency samples")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for job, reason in sorted(result["failures"].items()):
        print(f"  FAILED {job}: {reason}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: metric for name, metric in result["metrics"].items()
            if name in _contract_metrics(args.trace)
        },
    }))
    return 0


def _contract_metrics(trace: int) -> set[str]:
    """The metric names BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
