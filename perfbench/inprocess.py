"""The in-process workloads, ``paper`` and ``kernels``: their jobs, the
oracles their outputs are checked against, and the timed loop.

Every job goes from source through ``simulate`` in one cold
``repro.pipeline.run_pipeline`` call (no artifact cache, no delta
cache, the serial runner).
"""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.ir import build_cfg, lower_ast, run_cfg
from repro.lang import analyze, parse
from repro.lang.generator import random_source
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs, all_pykernels, native_run

from calibrate import Sampler
from spans import Tracer

#: A job slower than this counts as timed out (and failed).
JOB_TIMEOUT_S = 60.0

#: The paper's Tables 1 and 2: (k, strategy) cells per program.
PAPER_CELLS = ((8, "STOR1"), (8, "STOR2"), (8, "STOR3"), (4, "STOR1"))
#: The ``kernels`` workload runs the generated programs
#: ``random_source(0 .. KERNELS_PROGRAMS - 1)`` in an order drawn by the
#: seed.  The set is fixed: a free draw of 300 moved throughput by 13 %
#: from seed to seed, and a draw of 300 from 320 still moved
#: ``extra_copies`` by 11 %, the program mix alone.
KERNELS_PROGRAMS = 300


@dataclass(frozen=True)
class Job:
    name: str
    source: str
    options: PipelineOptions
    inputs: tuple[object, ...]
    #: expected output stream, computed without the compiler under test
    oracle: Callable[[], list[object]] = field(compare=False)


def paper_jobs(seed: int, tiny: bool = False) -> list[Job]:
    """24 cells: the six registry programs at the ``compile_for_paper``
    settings (4 FUs, unroll 4, constants in memory, fixed array
    layout).  There is no random part, so ``seed`` is unused."""
    del seed
    programs = all_programs()
    if tiny:
        programs = [p for p in programs if p.name in ("TAYLOR1", "SORT")]
    jobs = []
    for k, strategy in PAPER_CELLS:
        machine = MachineConfig(num_fus=4, num_modules=k)
        for spec in programs:
            options = PipelineOptions(
                machine=machine, unroll=4, constants_in_memory=True,
                strategy=strategy, k=k,
            )
            jobs.append(Job(
                f"{spec.name}/{strategy}/k{k}", spec.source, options,
                spec.inputs,
                # default argument binds this iteration's spec
                lambda spec=spec: spec.reference(spec.inputs),
            ))
    return jobs


def _interpreted(source: str) -> list[object]:
    """Outputs of the reference TAC interpreter on the unoptimised CFG."""
    tree = parse(source)
    analyze(tree)
    return run_cfg(build_cfg(lower_ast(tree)), max_steps=2_000_000).outputs


def kernel_jobs(seed: int, tiny: bool = False) -> list[Job]:
    """The 12 Python kernels through the bytecode frontend, then the
    generated mini-language programs in a seeded order; all at k = 8,
    unroll 1, ``array_layout=optimize``."""
    machine = MachineConfig(num_fus=4, num_modules=8)
    base = PipelineOptions(machine=machine, k=8, array_layout="optimize")
    jobs = []
    for spec in all_pykernels():
        options = PipelineOptions(
            machine=machine, k=8, array_layout="optimize",
            frontend="python", py_entry=spec.entry,
        )
        jobs.append(Job(
            f"py:{spec.name}", spec.source, options, spec.inputs,
            lambda spec=spec: native_run(spec),
        ))
    order = random.Random(seed).sample(
        range(KERNELS_PROGRAMS), KERNELS_PROGRAMS
    )
    for program_seed in order[:10] if tiny else order:
        source = random_source(program_seed)
        jobs.append(Job(
            f"gen:{program_seed}", source, base, (),
            lambda source=source: _interpreted(source),
        ))
    return jobs


#: workload name -> job-list builder
JOB_LISTS = {"paper": paper_jobs, "kernels": kernel_jobs}


def summarize(run) -> dict[str, object]:
    """The outputs and work counts of one full-pipeline run."""
    storage = run.artifact("storage")
    schedule = run.artifact("schedule")
    sim = run.artifact("simulation")
    plan = run.store.get_optional("array_plan")
    stats = [stage.stats for stage in storage.stages]
    return {
        "outputs": sim.outputs,
        "singles": storage.singles,
        "multiples": storage.multiples,
        "total_copies": storage.total_copies,
        # end-to-end
        "sim_time": sim.total_time,
        "transfer_ratio": sim.memory.actual_ratio,
        "extra_copies": (
            storage.total_copies - storage.singles - storage.multiples
        ),
        "residual_conflicts": len(storage.residual_instructions),
        "code_liws": schedule.num_instructions,
        # per layer
        "ir.values": len(run.artifact("renamed").values),
        "liw.operations": schedule.num_operations,
        "core.graph_values": sum(s.num_values for s in stats),
        "core.graph_edges": sum(s.num_edges for s in stats),
        "core.atoms": sum(st.coloring.num_atoms for st in storage.stages),
        "core.colored": sum(s.colored for s in stats),
        "core.removed": sum(s.removed for s in stats),
        "core.copies_created": sum(s.copies_created for s in stats),
        "core.array_moves": plan.num_moves if plan is not None else 0,
        "memsim.cycles": sim.cycles,
        "memsim.conflict_instructions": (
            sim.memory.actual_conflict_instructions
        ),
    }


def _execute(
    job: Job, tracer: Tracer | None = None, sampler: Sampler | None = None
) -> tuple[float, dict[str, object] | str]:
    """Run one job, traced if a tracer is given; return its latency
    (less the sampler's units run meanwhile) and its summary or error."""
    spent = sampler.spent if sampler is not None else 0.0
    t0 = time.perf_counter()
    try:
        if tracer is None:
            run = run_pipeline(
                job.source, job.options, inputs=list(job.inputs)
            )
        else:
            with tracer.installed(), tracer.job():
                run = run_pipeline(
                    job.source, job.options, inputs=list(job.inputs)
                )
    except Exception as exc:  # a failed job is counted, not fatal
        run = exc
    latency = time.perf_counter() - t0
    if sampler is not None:
        latency -= sampler.spent - spent
    if isinstance(run, Exception):
        return latency, f"raised {run!r}"
    if latency > JOB_TIMEOUT_S:
        return latency, f"timed out after {latency:.1f} s"
    return latency, summarize(run)


def close(got: list[object], want: list[object]) -> bool:
    """Outputs equal: ints exactly, floats to rel 1e-9."""
    if len(got) != len(want):
        return False
    for x, y in zip(got, want):
        if isinstance(x, float) or isinstance(y, float):
            if not math.isclose(float(x), float(y), rel_tol=1e-9,
                                abs_tol=1e-12):
                return False
        elif x != y:
            return False
    return True


@dataclass
class Measured:
    """What one timed run of a job list produced."""

    attempted: int = 0
    #: wall seconds of the jobs (without the sampler's units)
    elapsed: float = 0.0
    #: host speed over the timed run (see calibrate.py); 1.0 untimed
    speed: float = 1.0
    latencies: list[float] = field(default_factory=list)
    #: the first pass's summary per job (an error string if it failed)
    first: list[dict[str, object] | str] = field(default_factory=list)
    #: job name -> reason, for every failed job
    failures: dict[str, str] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: traced run only: traced wall / untraced wall of the same jobs
    overhead_ratio: float = 0.0


def run_timed(jobs: list[Job], seconds: float) -> Measured:
    """Run whole passes over ``jobs`` until ``seconds`` have passed, so
    every job has the same weight in the latency samples; sample the
    host's speed all along.  Later passes must reproduce the first."""
    m = Measured()
    repeats: list[tuple[int, dict[str, object] | str]] = []
    with Sampler() as sampler:
        t0 = time.perf_counter()
        i = 0
        while i % len(jobs) or not i or time.perf_counter() - t0 < seconds:
            latency, result = _execute(jobs[i % len(jobs)], sampler=sampler)
            m.latencies.append(latency)
            if i < len(jobs):
                m.first.append(result)
            else:
                repeats.append((i % len(jobs), result))
            i += 1
        m.elapsed = time.perf_counter() - t0 - sampler.spent
    m.speed = sampler.speed()
    m.attempted = i
    m.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    for index, result in repeats:
        if result != m.first[index]:
            m.failures.setdefault(
                jobs[index].name, "a repeated run gave a different result"
            )
    return m


def run_traced(jobs: list[Job], tracer: Tracer) -> Measured:
    """Each job once untraced, then once traced.  The traced result
    must equal the untraced one; ``first`` holds the traced results."""
    m = Measured()
    untraced_wall = 0.0
    for job in jobs:
        latency, plain = _execute(job)
        untraced_wall += latency
        _, traced = _execute(job, tracer)
        if traced != plain:
            m.failures.setdefault(
                job.name, "the traced run gave a different result"
            )
        m.first.append(traced)
        m.latencies.append(latency)
    m.attempted = len(jobs)
    m.overhead_ratio = tracer.wall() / untraced_wall
    return m


def check(jobs: list[Job], m: Measured) -> None:
    """Compare every job's first-pass outputs with its oracle; record
    failures (exceptions, timeouts, mismatches) in ``m.failures``."""
    for job, result in zip(jobs, m.first):
        if isinstance(result, str):
            m.failures.setdefault(job.name, result)
            continue
        try:
            want = job.oracle()
        except Exception as exc:
            m.failures.setdefault(job.name, f"oracle raised {exc!r}")
            continue
        if not close(result["outputs"], want):
            m.failures.setdefault(
                job.name,
                f"outputs {result['outputs']!r} differ from the oracle's "
                f"{want!r}",
            )


def failed_count(jobs: list[Job], m: Measured) -> int:
    """Attempted jobs (every pass) whose job is in ``m.failures``."""
    bad = {index for index, job in enumerate(jobs) if job.name in m.failures}
    return sum(1 for i in range(m.attempted) if i % len(jobs) in bad)
