"""The simulator against a plain per-cycle oracle.

:class:`~repro.memsim.MemorySimulator` computes each long instruction's
increments once and re-adds them; the executor decodes each static long
instruction once.  The oracle below replays the recorded access events
through the straightforward loop — a fresh :func:`scalar_load_vector`
and fresh distribution helpers on every cycle — and every
:class:`MemoryReport` field, floats included, must be exactly equal.
"""

from dataclasses import replace

import pytest

from repro.core.allocation import Allocation
from repro.liw.executor import AccessEvent, LiwExecutor, TraceRecorder
from repro.liw.machine import MachineConfig
from repro.liw.schedule import LiwInstruction
from repro.liw.transfers import insert_transfers
from repro.memsim import MemorySimulator, scalar_load_vector
from repro.memsim.distribution import (
    expected_max_load,
    min_possible_max_load,
)
from repro.memsim.interleave import ArrayLayout, make_layout
from repro.memsim.simulator import MemoryReport
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import get_program, get_pykernel


def oracle_report(
    events: list[AccessEvent],
    alloc: Allocation,
    layout: ArrayLayout,
    k: int,
    delta: float,
    eager_copies: bool,
) -> MemoryReport:
    instructions = transfer_instructions = 0
    scalar_accesses = array_accesses = 0
    scalar_conflicts = actual_conflicts = 0
    t_actual = t_min = t_ave = 0.0
    t_max = [0.0] * k
    for event in events:
        instructions += 1
        busy = [m for _, src, dst in event.transfers for m in (src, dst)]
        vec = scalar_load_vector(
            event.scalar_sources, event.scalar_dests, alloc, k,
            eager_copies, tuple(sorted(busy)),
        )
        n_arr = len(event.array_touches)
        if n_arr == 0 and sum(vec) == 0:
            continue
        transfer_instructions += 1
        scalar_accesses += sum(vec)
        array_accesses += n_arr
        if max(vec) > 1:
            scalar_conflicts += 1
        t_min += delta * min_possible_max_load(vec, n_arr)
        t_ave += delta * expected_max_load(vec, n_arr)
        for m in range(k):
            t_max[m] += delta * max(max(vec), vec[m] + n_arr)
        arrays = [layout.module(t.array, t.index) for t in event.array_touches]
        actual = scalar_load_vector(
            event.scalar_sources, event.scalar_dests, alloc, k,
            eager_copies, tuple(sorted(busy + arrays)),
        )
        t_actual += delta * max(actual)
        if max(actual) > 1:
            actual_conflicts += 1
    return MemoryReport(
        delta=delta,
        k=k,
        instructions=instructions,
        transfer_instructions=transfer_instructions,
        scalar_accesses=scalar_accesses,
        array_accesses=array_accesses,
        t_actual=t_actual,
        t_min=t_min,
        t_max=max(t_max),
        t_ave=t_ave,
        scalar_conflict_instructions=scalar_conflicts,
        actual_conflict_instructions=actual_conflicts,
    )


def _case(name: str, array_layout: str) -> tuple[str, PipelineOptions, list]:
    """Registry programs at unroll 2 with constants in memory (many
    duplicated values); Python kernels with their arrays laid out by the
    optimizer or interleaved."""
    if name.startswith("py:"):
        spec = get_pykernel(name[3:])
        options = PipelineOptions(
            machine=MachineConfig(num_modules=8), k=8, frontend="python",
            py_entry=spec.entry, array_layout=array_layout,
        )
        return spec.source, options, list(spec.inputs)
    spec = get_program(name)
    options = PipelineOptions(
        machine=MachineConfig(num_fus=4, num_modules=4), k=4, unroll=2,
        constants_in_memory=True, array_layout=array_layout,
    )
    return spec.source, options, list(spec.inputs)


CASES = [
    ("SORT", "fixed"),
    ("FFT", "fixed"),
    ("TAYLOR1", "fixed"),
    ("py:matvec", "optimize"),
    ("py:stencil", "optimize"),
    ("py:bubble", "fixed"),
]


@pytest.mark.parametrize("scheduled_transfers", [False, True])
@pytest.mark.parametrize("delta", [1.0, 0.7])
@pytest.mark.parametrize("name, array_layout", CASES)
def test_report_equals_per_cycle_oracle(
    name, array_layout, delta, scheduled_transfers, monkeypatch
):
    source, options, inputs = _case(name, array_layout)
    options = replace(
        options, delta=delta, scheduled_transfers=scheduled_transfers
    )
    run = run_pipeline(source, options, inputs=inputs)
    alloc = run.artifact("storage").allocation
    k = options.k
    schedule = run.artifact("schedule")
    arrays = sorted(run.artifact("cfg").arrays)
    plan = run.store.get_optional("array_plan")
    if plan is not None:
        schedule = plan.apply_to(schedule)
        layout = plan.build_layout(arrays)
    else:
        layout = make_layout(options.layout, arrays, k)
    if scheduled_transfers:
        schedule, _ = insert_transfers(schedule, alloc)

    # each static long instruction is decoded at most once per run
    calls: dict[int, int] = {}
    scalar_sources = LiwInstruction.scalar_sources

    def counted(liw):
        calls[id(liw)] = calls.get(id(liw), 0) + 1
        return scalar_sources(liw)

    monkeypatch.setattr(LiwInstruction, "scalar_sources", counted)
    sim = MemorySimulator(alloc, layout, k, delta, not scheduled_transfers)
    recorder = TraceRecorder()
    executor = LiwExecutor(
        schedule, inputs, observers=[sim, recorder],
        initial_values=run.artifact("renamed").initial_values(),
    )
    executor.run()
    monkeypatch.undo()
    assert calls and max(calls.values()) == 1
    assert len(executor.liw_counts) <= len(calls) <= schedule.num_instructions

    report = sim.report()
    want = oracle_report(
        recorder.events, alloc, layout, k, delta, not scheduled_transfers
    )
    assert report == want
    assert report == run.artifact("simulation").memory
    assert report.array_accesses > 0
    if scheduled_transfers and name == "FFT":
        # the transfers' two module ends reach the oracle too
        assert any(e.transfers for e in recorder.events)
