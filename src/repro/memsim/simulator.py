"""Parallel-memory simulator: turns executed long instructions into the
paper's transfer-time measures.

Model (paper §3): each long instruction has one memory-transfer phase in
which every module can serve one access per Δ.  An instruction whose
accesses pile up ``L`` deep on some module spends ``L·Δ`` on transfers.
The accesses of one instruction are

- its scalar *source* fetches — one module per value, chosen among the
  value's copies so the deepest pile-up is as shallow as possible (the
  fetch unit exploits duplicates, which is how the paper's allocation
  pays off);
- its scalar *destination* writes — every copy of the destination is
  written (a duplicated value's extra stores are the run-time price of
  replication);
- its array-element touches — modules known only at run time.

Four aggregate times are reported:

- **t_actual** — array modules from the concrete layout in force, which
  the source fetches steer around;
- **t_min** — arrays steered so they never conflict (paper's t_min);
- **t_max** — all arrays in one (worst-choice) module (paper's t_max);
- **t_ave** — arrays uniformly random: exact ``Σ i·Δ·p(i)`` via
  :mod:`repro.memsim.distribution`.

The simulator is an executor observer: attach it to
:class:`repro.liw.LiwExecutor` and read :meth:`report` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.allocation import Allocation
from ..core.verify import find_sdr
from ..liw.executor import AccessEvent
from .distribution import (
    expected_max_load,
    max_load_distribution,
    min_possible_max_load,
)
from .interleave import ArrayLayout


def scalar_load_vector(
    sources: frozenset[int],
    dests: frozenset[int],
    alloc: Allocation,
    k: int,
    eager_copies: bool = True,
    busy: tuple[int, ...] = (),
) -> tuple[int, ...]:
    """Per-module access counts for an instruction's scalar operands.

    With ``eager_copies`` (default) destination values write all their
    copies in this cycle; otherwise only the primary copy is written and
    the remaining copies are filled by scheduled Transfer operations
    (:mod:`repro.liw.transfers`).  ``busy`` lists further accesses of the
    same cycle whose modules are already fixed (a transfer's two ends,
    array touches at run time); they are counted in the result.  Source
    fetches then pick one copy each so that the cycle's deepest pile-up
    is as shallow as possible (:func:`fetch_sources`).
    """
    loads = [0] * k
    for v in dests:
        mods = alloc.modules(v)
        if not mods:
            raise ValueError(f"unplaced scalar destination: {v}")
        if eager_copies:
            for m in mods:
                loads[m] += 1
        else:
            loads[alloc.primary(v)] += 1
    for m in busy:
        loads[m] += 1

    pure_sources = sorted(sources - dests)
    if not pure_sources:
        return tuple(loads)
    sets = [alloc.modules(v) for v in pure_sources]
    if any(not s for s in sets):
        missing = [v for v, s in zip(pure_sources, sets) if not s]
        raise ValueError(f"unplaced scalar operands: {missing}")
    for m in fetch_sources(sets, loads):
        loads[m] += 1
    return tuple(loads)


def fetch_sources(sets: list[frozenset[int]], loads: list[int]) -> list[int]:
    """One module per copy-set, minimising the max of ``loads`` plus picks.

    The fetch unit first looks for a matching that avoids every busy
    module, then — while no module is busy twice — for any conflict-free
    matching; either is already optimal when it exists.  Otherwise the
    least feasible max load is found by slot expansion: slot ``(l, m)``
    is the ``l``-th access to module ``m``, and a b-matching at level
    ``L`` may use the slots with ``l <= L``.  Single-copy values leave
    no choice: when every set is a singleton, that is the answer.
    """
    if all(len(s) == 1 for s in sets):
        return [m for s in sets for m in s]
    busy = {m for m, c in enumerate(loads) if c > 0}
    reduced = [s - busy for s in sets]
    if all(reduced):
        sdr = find_sdr(reduced)
        if sdr is not None:
            return sdr
    if max(loads) <= 1:
        sdr = find_sdr(sets)
        if sdr is not None:
            return sdr
    k = len(loads)
    level = max(loads)
    while True:
        slots = [
            [d * k + m for m in s for d in range(loads[m] + 1, level + 1)]
            for s in sets
        ]
        sdr = find_sdr(slots)
        if sdr is not None:
            return [slot % k for slot in sdr]
        level += 1


@dataclass(slots=True)
class MemoryReport:
    """Aggregate transfer-time measures over one execution."""

    delta: float
    k: int
    instructions: int  # executed long instructions
    transfer_instructions: int  # those touching memory at all
    scalar_accesses: int
    array_accesses: int
    t_actual: float
    t_min: float
    t_max: float
    t_ave: float
    scalar_conflict_instructions: int  # scalars alone pile up (residual)
    actual_conflict_instructions: int  # actual transfer load > 1

    @property
    def ave_ratio(self) -> float:
        """The paper's Table 2 ``t_ave / t_min``."""
        return self.t_ave / self.t_min if self.t_min else 1.0

    @property
    def max_ratio(self) -> float:
        """The paper's Table 2 ``t_max / t_min``."""
        return self.t_max / self.t_min if self.t_min else 1.0

    @property
    def actual_ratio(self) -> float:
        return self.t_actual / self.t_min if self.t_min else 1.0

    @property
    def stall_time(self) -> float:
        """Transfer time beyond one Δ per transferring instruction."""
        return self.t_actual - self.delta * self.transfer_instructions


@dataclass(frozen=True, slots=True)
class _Step:
    """What one execution of a long instruction adds to the totals, for
    every part fixed by its operand sets, transfers and array count."""

    busy: tuple[int, ...]  # modules of the transfers' two ends
    scalar_accesses: int
    scalar_conflict: int  # 1 if the scalars alone pile up, else 0
    t_min: float
    t_ave: float
    t_max: tuple[float, ...]  # per candidate all-arrays module
    t_actual: float  # when no array is touched


class MemorySimulator:
    """Observer accumulating the Δ-model statistics of one execution.

    The per-cycle increments depend only on the event's operand sets,
    transfers and number of array touches, so they are computed once per
    such key and re-added in execution order: the sums are the same
    floats, added in the same order, as recomputing them every cycle.
    Only t_actual of a cycle touching arrays depends on the run-time
    array modules and is computed per cycle.
    """

    def __init__(
        self,
        alloc: Allocation,
        layout: ArrayLayout,
        k: int,
        delta: float = 1.0,
        eager_copies: bool = True,
    ):
        self._alloc = alloc
        self._layout = layout
        self._k = k
        self._delta = delta
        self._eager_copies = eager_copies

        self._vec_cache: dict[
            tuple[frozenset[int], frozenset[int], tuple[int, ...]],
            tuple[int, ...],
        ] = {}
        self._steps: dict[
            tuple[
                frozenset[int],
                frozenset[int],
                tuple[tuple[int, int, int], ...],
                int,
            ],
            _Step | None,
        ] = {}
        self.instructions = 0
        self.transfer_instructions = 0
        self.scalar_accesses = 0
        self.array_accesses = 0
        self.t_actual = 0.0
        self.t_min = 0.0
        self.t_ave = 0.0
        self._t_max_per_module = [0.0] * k
        self.scalar_conflicts = 0
        self.actual_conflicts = 0

    # -- observer protocol ----------------------------------------------

    def __call__(self, event: AccessEvent) -> None:
        self.instructions += 1
        n_arr = len(event.array_touches)
        key = (event.scalar_sources, event.scalar_dests, event.transfers, n_arr)
        if key in self._steps:
            step = self._steps[key]
        else:
            step = self._steps[key] = self._step(event, n_arr)
        if step is None:
            return  # no memory access at all

        self.transfer_instructions += 1
        self.scalar_accesses += step.scalar_accesses
        self.array_accesses += n_arr
        self.scalar_conflicts += step.scalar_conflict
        self.t_min += step.t_min
        self.t_ave += step.t_ave
        t_max = self._t_max_per_module
        for m, add in enumerate(step.t_max):
            t_max[m] += add

        if n_arr:
            # at run time the array modules are known, and the fetch unit
            # steers the scalar fetches around them
            arrays = [
                self._layout.module(t.array, t.index)
                for t in event.array_touches
            ]
            actual = self._loads(event, tuple(sorted([*step.busy, *arrays])))
            actual_max = max(actual)
            self.t_actual += self._delta * actual_max
            if actual_max > 1:
                self.actual_conflicts += 1
        else:
            # the actual loads are the scalar loads
            self.t_actual += step.t_actual
            self.actual_conflicts += step.scalar_conflict

    def _step(self, event: AccessEvent, n_arr: int) -> _Step | None:
        """The increments of one execution of ``event`` (None if it
        touches no memory)."""
        # a transfer reads the source module and writes the destination
        busy = tuple(sorted(m for _, src, dst in event.transfers
                            for m in (src, dst)))
        vec = self._loads(event, busy)
        n_scalar = sum(vec)
        if n_arr == 0 and n_scalar == 0:
            return None
        scalar_max = max(vec)
        delta = self._delta
        return _Step(
            busy=busy,
            scalar_accesses=n_scalar,
            scalar_conflict=int(scalar_max > 1),
            t_min=delta * min_possible_max_load(vec, n_arr),
            t_ave=delta * expected_max_load(vec, n_arr),
            # t_max: all arrays stacked in module m, for every candidate m.
            t_max=tuple(
                delta * max(scalar_max, vec[m] + n_arr) for m in range(self._k)
            ),
            t_actual=delta * scalar_max,
        )

    def _loads(
        self, event: AccessEvent, busy: tuple[int, ...]
    ) -> tuple[int, ...]:
        key = (event.scalar_sources, event.scalar_dests, busy)
        vec = self._vec_cache.get(key)
        if vec is None:
            vec = scalar_load_vector(
                event.scalar_sources,
                event.scalar_dests,
                self._alloc,
                self._k,
                self._eager_copies,
                busy,
            )
            self._vec_cache[key] = vec
        return vec

    # -- results ------------------------------------------------------------

    def report(self) -> MemoryReport:
        return MemoryReport(
            delta=self._delta,
            k=self._k,
            instructions=self.instructions,
            transfer_instructions=self.transfer_instructions,
            scalar_accesses=self.scalar_accesses,
            array_accesses=self.array_accesses,
            t_actual=self.t_actual,
            t_min=self.t_min,
            t_max=max(self._t_max_per_module) if self._k else 0.0,
            t_ave=self.t_ave,
            scalar_conflict_instructions=self.scalar_conflicts,
            actual_conflict_instructions=self.actual_conflicts,
        )


def instruction_distribution(
    sources: frozenset[int],
    dests: frozenset[int],
    n_array: int,
    alloc: Allocation,
    k: int,
) -> dict[int, float]:
    """p(i) for one instruction — exposed for tests and the docs."""
    vec = scalar_load_vector(sources, dests, alloc, k)
    return max_load_distribution(vec, n_array)
