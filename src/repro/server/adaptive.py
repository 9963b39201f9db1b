"""Tiered adaptive recompilation: the server's background upgrade lane.

The compile server answers every request with the cheap heuristic
allocation (STOR1 + hitting set, the paper's reported configuration) so
latency stays low.  But the repository also carries strictly stronger
allocators the synchronous path can never afford:

- a *sweep* over the other strategy/method/seed configurations
  (:func:`repro.core.strategies.run_strategy`),
- profile-guided conflict weighting (:mod:`repro.core.profiled`, the
  paper's §3 closing discussion),
- the exact minimum-copy solver (:mod:`repro.core.exact`) on small
  instances.

This module closes that gap JIT-style.  :class:`UpgradeEngine` watches
which ``job_key`` s the server actually serves (weighted by coalesced
waiters, so a thundering herd counts as many hits); once a key crosses
``hot_threshold`` it is queued on a low-priority lane — one dedicated
worker thread, bounded queue, shed when full — that re-runs allocation
through the candidate tiers under a CPU budget, *verifies* the best
candidate (placement totality, pinned single copies via
:func:`repro.core.verify.conflicting_instructions` facts, and a memsim
run whose outputs must match the baseline's), and publishes it with
:meth:`repro.service.cache.AllocationCache.swap` — an atomic
compare-and-swap against the entry the decision was based on.  Readers
never observe a partial entry; a candidate that fails verification, or
that is not strictly better in residual conflicts, copies, or predicted
``t_ave``, is rejected and the original entry stays untouched.

Every upgrade emits a :class:`repro.passes.events.PassEvent` into a
bounded :class:`repro.passes.events.EventLog`; :meth:`UpgradeEngine
.stats` is the ``upgrades`` block of the server's ``stats`` payload.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from ..core.exact import min_total_copies
from ..core.profiled import profile_guided_stor1
from ..core.strategies import StorageResult, _program_facts, run_strategy
from ..core.verify import conflicting_instructions
from ..passes.cache import ArtifactCache
from ..passes.events import EventLog, Metrics, PassEvent
from ..service.batch import BatchJob, _compile_and_key
from ..service.cache import (
    AllocationCache,
    decode_storage_result,
    encode_storage_result,
)


@dataclass(frozen=True, slots=True)
class AdaptiveConfig:
    """Tunables of one :class:`UpgradeEngine`."""

    #: served-request count (waiter-weighted) before a key is queued
    hot_threshold: int = 3
    #: per-upgrade CPU budget (seconds); candidate tiers stop starting
    #: new work once it is spent
    budget_s: float = 5.0
    #: candidate tiers, tried in order within the budget
    tiers: tuple[str, ...] = ("sweep", "profiled", "exact")
    sweep_strategies: tuple[str, ...] = ("STOR1", "STOR2", "STOR3")
    sweep_methods: tuple[str, ...] = ("hitting_set", "backtrack")
    sweep_seeds: tuple[int, ...] = (0, 1, 2)
    #: exact tier only runs when the program has at most this many
    #: live values (the solver is exponential)
    exact_max_values: int = 8
    #: bounded upgrade queue; hot keys arriving beyond it are shed
    max_pending: int = 32
    #: bounded hotness table (LRU evicted)
    max_track: int = 1024


@dataclass(slots=True)
class UpgradeOutcome:
    """Result of one :func:`compute_upgrade` run."""

    key: str
    status: str  # 'improved' | 'rejected' | 'failed'
    tier: str | None = None
    strategy: str | None = None
    copies_saved: int = 0
    residual_saved: int = 0
    t_ave_delta: float = 0.0
    candidates: int = 0
    wall_time: float = 0.0
    error: str | None = None


@dataclass(frozen=True, slots=True)
class _Score:
    """Candidate quality, lexicographic-free: a candidate must be no
    worse on *every* axis and strictly better on at least one."""

    residual: int
    copies: int
    t_ave: float | None

    _EPS = 1e-9

    def improves_on(self, base: "_Score") -> bool:
        if self.residual > base.residual or self.copies > base.copies:
            return False
        if (
            self.t_ave is not None
            and base.t_ave is not None
            and self.t_ave > base.t_ave + self._EPS
        ):
            return False
        better = (
            self.residual < base.residual
            or self.copies < base.copies
        )
        if (
            not better
            and self.t_ave is not None
            and base.t_ave is not None
        ):
            better = self.t_ave < base.t_ave - self._EPS
        return better


def _validate_candidate(
    storage: StorageResult,
    k: int,
    all_values: list[int],
    duplicable: set[int],
) -> str | None:
    """Structural verification; returns a reason string on failure.

    Beyond what :func:`repro.core.verify.verify_allocation` checks
    (conflict freedom, which an upgrade is allowed to miss — residual
    conflicts are part of the score), a *publishable* candidate must

    - allocate on the same machine width ``k``,
    - place every live value (a served allocation is total),
    - give every non-duplicable (multi-definition) value exactly one
      copy — the exact solver does not know about pinning, so this is
      where an illegally duplicated pinned value is caught,
    - survive the cache encode/decode round trip bit-identically (what
      readers will decode is exactly what was scored).
    """
    alloc = storage.allocation
    if alloc.k != k:
        return f"allocation built for k={alloc.k}, machine has k={k}"
    for v in all_values:
        if not alloc.is_placed(v):
            return f"live value {v} left unplaced"
        if v not in duplicable and alloc.copy_count(v) != 1:
            return (
                f"non-duplicable value {v} has "
                f"{alloc.copy_count(v)} copies"
            )
    try:
        entry = encode_storage_result(storage)
        decoded = decode_storage_result(entry)
    except Exception as exc:  # noqa: BLE001 - any codec failure rejects
        return f"candidate does not round-trip: {exc!r}"
    if encode_storage_result(decoded) != entry:
        return "candidate round-trip is not bit-identical"
    return None


def _score(
    storage: StorageResult,
    operand_sets: list[frozenset[int]],
    program,
) -> tuple[_Score, list[object] | None]:
    """Score an allocation: recomputed residual conflicts, total copies,
    and (when the program simulates without inputs) predicted ``t_ave``
    plus the simulated outputs for the semantic check."""
    residual = len(
        conflicting_instructions(operand_sets, storage.allocation)
    )
    t_ave: float | None = None
    outputs: list[object] | None = None
    try:
        from ..pipeline import simulate

        sim = simulate(program, storage.allocation, [])
        t_ave = sim.memory.t_ave
        outputs = list(sim.outputs)
    except Exception:  # noqa: BLE001 - programs needing inputs, etc.
        pass
    return (
        _Score(residual, storage.allocation.total_copies, t_ave),
        outputs,
    )


def _candidate_tiers(
    job: BatchJob,
    program,
    config: AdaptiveConfig,
    operand_sets: list[frozenset[int]],
    all_values: list[int],
    k: int,
):
    """Yield ``(tier, describe, thunk)`` lazily so the budget check sits
    between solver runs, not after an eager list was already paid for."""
    options = job.options
    for tier in config.tiers:
        if tier == "sweep":
            for strategy in config.sweep_strategies:
                for method in config.sweep_methods:
                    for seed in config.sweep_seeds:
                        if (
                            strategy.upper() == options.strategy
                            and method == options.method
                            and seed == options.seed
                        ):
                            continue  # the baseline itself
                        yield (
                            tier,
                            f"{strategy}/{method}/s{seed}",
                            lambda s=strategy, m=method, sd=seed: (
                                run_strategy(
                                    s, program.schedule, program.renamed,
                                    options.k, method=m, seed=sd,
                                )
                            ),
                        )
        elif tier == "profiled":
            for method in config.sweep_methods:
                yield (
                    tier,
                    f"profiled/{method}",
                    lambda m=method: profile_guided_stor1(
                        program.schedule, program.renamed, [],
                        k=options.k, method=m, seed=options.seed,
                    ),
                )
        elif tier == "exact":
            if len(all_values) > config.exact_max_values:
                continue
            yield tier, "exact", lambda: _exact_candidate(
                operand_sets, all_values, k
            )


def _exact_candidate(
    operand_sets: list[frozenset[int]],
    all_values: list[int],
    k: int,
) -> StorageResult | None:
    """The exact minimum-copy allocation, completed to a total one
    (values never appearing as operands get a least-used single copy,
    mirroring :func:`repro.core.assign.assign_modules`)."""
    alloc = min_total_copies(operand_sets, k)
    if alloc is None:
        return None
    load = [0] * k
    for v in alloc.values():
        for m in alloc.modules(v):
            load[m] += 1
    for v in sorted(set(all_values)):
        if not alloc.is_placed(v):
            m = min(range(k), key=lambda i: (load[i], i))
            alloc.add_copy(v, m)
            load[m] += 1
    return StorageResult(
        "EXACT", alloc, [], conflicting_instructions(operand_sets, alloc)
    )


def compute_upgrade(
    job: BatchJob,
    cache: AllocationCache,
    config: AdaptiveConfig,
    artifacts: ArtifactCache | None = None,
    stop: threading.Event | None = None,
) -> UpgradeOutcome:
    """Try to improve the cached allocation for ``job``; pure function
    of its arguments, runs on the upgrade worker thread.

    Walks the candidate tiers under ``config.budget_s``, scores each
    structurally valid candidate against the cached baseline, verifies
    the winner semantically (simulated outputs must match), and
    publishes it with a compare-and-swap so a concurrently refreshed
    entry is never clobbered.  Every failure mode — missing or
    undecodable baseline, solver exception, validation failure, lost
    swap race — leaves the original cache entry intact.
    """
    t0 = time.perf_counter()
    deadline = t0 + config.budget_s

    def done(outcome: UpgradeOutcome) -> UpgradeOutcome:
        outcome.wall_time = time.perf_counter() - t0
        return outcome

    try:
        program, key = _compile_and_key(job, Metrics(), artifacts)
    except Exception as exc:  # noqa: BLE001 - front end failed
        return done(UpgradeOutcome(
            key="", status="failed", error=f"front end: {exc!r}"
        ))

    baseline_entry = cache.peek(key)
    if baseline_entry is None:
        return done(UpgradeOutcome(
            key, "failed", error="baseline entry missing"
        ))
    try:
        baseline = decode_storage_result(baseline_entry)
    except Exception as exc:  # noqa: BLE001 - corrupt baseline
        return done(UpgradeOutcome(
            key, "failed", error=f"baseline undecodable: {exc!r}"
        ))

    operand_sets, _, duplicable, all_values = _program_facts(
        program.schedule, program.renamed
    )
    k = job.options.k or job.options.resolved_machine().k
    base_score, base_outputs = _score(baseline, operand_sets, program)

    best: StorageResult | None = None
    best_score: _Score | None = None
    best_tier = best_label = None
    tried = 0
    for tier, label, thunk in _candidate_tiers(
        job, program, config, operand_sets, all_values, k
    ):
        if time.perf_counter() >= deadline:
            break
        if stop is not None and stop.is_set():
            break
        tried += 1
        try:
            candidate = thunk()
        except Exception:  # noqa: BLE001 - one tier failing is fine
            continue
        if candidate is None:
            continue
        if _validate_candidate(candidate, k, all_values, duplicable):
            continue
        score, _ = _score(candidate, operand_sets, program)
        against = best_score if best_score is not None else base_score
        if score.improves_on(against):
            best, best_score = candidate, score
            best_tier, best_label = tier, label

    if best is None or best_score is None:
        return done(UpgradeOutcome(
            key, "rejected", candidates=tried,
            error="no candidate beat the baseline" if tried else
                  "budget exhausted before any candidate ran",
        ))

    # Semantic verification: the upgraded allocation must compute the
    # same thing.  Only enforceable when both simulations ran.
    _, best_outputs = _score(best, operand_sets, program)
    if (
        base_outputs is not None
        and best_outputs is not None
        and best_outputs != base_outputs
    ):
        return done(UpgradeOutcome(
            key, "rejected", tier=best_tier, candidates=tried,
            error=f"candidate {best_label} changed simulated outputs",
        ))

    if not cache.swap(key, best, expected=baseline_entry):
        return done(UpgradeOutcome(
            key, "rejected", tier=best_tier, candidates=tried,
            error="lost swap race: baseline changed during upgrade",
        ))
    t_delta = (
        base_score.t_ave - best_score.t_ave
        if base_score.t_ave is not None and best_score.t_ave is not None
        else 0.0
    )
    return done(UpgradeOutcome(
        key, "improved", tier=best_tier, strategy=best.strategy,
        copies_saved=base_score.copies - best_score.copies,
        residual_saved=base_score.residual - best_score.residual,
        t_ave_delta=t_delta, candidates=tried,
    ))


class UpgradeEngine:
    """Hotness tracking + the single background upgrade worker.

    Lives inside the server's event loop: :meth:`note_served` is called
    from the dispatch loop for every resolved flight (loop thread, no
    locking needed for the tracking tables), while the actual solver
    work runs on a dedicated one-thread executor so neither the loop
    nor the dispatch thread ever waits on an upgrade.  The engine keeps
    its *own* :class:`~repro.passes.cache.ArtifactCache` — the batch
    compiler's instance is not thread-safe across threads.
    """

    def __init__(
        self,
        cache: AllocationCache,
        config: AdaptiveConfig | None = None,
        on_outcome: Callable[[UpgradeOutcome], None] | None = None,
    ):
        self.cache = cache
        self.config = config or AdaptiveConfig()
        self.on_outcome = on_outcome
        self.artifacts = ArtifactCache(max_entries=32)
        self.events = EventLog(maxlen=64)
        self._hits: OrderedDict[str, int] = OrderedDict()
        #: key -> 'queued' | 'upgrading' | terminal status; a key is
        #: upgraded at most once per server lifetime
        self._state: dict[str, str] = {}
        self._queue: asyncio.Queue[tuple[str, BatchJob]] = asyncio.Queue(
            maxsize=self.config.max_pending
        )
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-upgrade"
        )
        self._stop = threading.Event()
        self._task: asyncio.Task | None = None
        self._in_progress = 0
        self.attempted = 0
        self.improved = 0
        self.rejected = 0
        self.failed = 0
        self.shed = 0
        self.copies_saved = 0
        self.t_ave_delta = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.create_task(
                self._worker_loop(), name="repro-upgrade-loop"
            )

    async def aclose(self) -> None:
        """Stop promptly: the cooperative flag interrupts an in-flight
        ``compute_upgrade`` between candidates, then the worker task is
        cancelled and the pool drained."""
        self._stop.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._pool.shutdown(wait=True)

    # -- hotness ------------------------------------------------------------

    def note_served(self, job: BatchJob, key: str, weight: int = 1) -> None:
        """Record that ``key`` was served to ``weight`` waiters; enqueue
        an upgrade once it crosses the hotness threshold.  Runs on the
        event loop."""
        if key in self._state:
            return  # queued, running, or already decided
        count = self._hits.get(key, 0) + max(1, weight)
        self._hits[key] = count
        self._hits.move_to_end(key)
        while len(self._hits) > self.config.max_track:
            self._hits.popitem(last=False)
        if count < self.config.hot_threshold:
            return
        try:
            self._queue.put_nowait((key, job))
        except asyncio.QueueFull:
            self.shed += 1
            return
        self._state[key] = "queued"
        self._hits.pop(key, None)

    # -- worker -------------------------------------------------------------

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            key, job = await self._queue.get()
            self._state[key] = "upgrading"
            self._in_progress += 1
            self.attempted += 1
            try:
                outcome = await loop.run_in_executor(
                    self._pool, compute_upgrade,
                    job, self.cache, self.config, self.artifacts,
                    self._stop,
                )
            except Exception as exc:  # noqa: BLE001 - worker must survive
                outcome = UpgradeOutcome(
                    key, "failed", error=f"upgrade worker: {exc!r}"
                )
            finally:
                self._in_progress -= 1
            self._absorb(key, outcome)

    def _absorb(self, key: str, outcome: UpgradeOutcome) -> None:
        self._state[key] = outcome.status
        if outcome.status == "improved":
            self.improved += 1
            self.copies_saved += outcome.copies_saved
            self.t_ave_delta += outcome.t_ave_delta
        elif outcome.status == "rejected":
            self.rejected += 1
        else:
            self.failed += 1
        counts: dict[str, int | float] = {
            "candidates": outcome.candidates,
            "copies_saved": outcome.copies_saved,
            "t_ave_delta": outcome.t_ave_delta,
        }
        self.events.emit(PassEvent(
            name=f"upgrade:{key[:12]}",
            status="end" if outcome.status == "improved" else "skip"
            if outcome.status == "rejected" else "error",
            wall_time=outcome.wall_time,
            counts=counts,
            warnings=(outcome.error,) if outcome.error else (),
        ))
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    # -- observability ------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No queued and no executing upgrades (the bench's settle
        condition)."""
        return self._queue.empty() and self._in_progress == 0

    def stats(self) -> dict[str, object]:
        return {
            "enabled": True,
            "hot_threshold": self.config.hot_threshold,
            "tracked": len(self._hits),
            "pending": self._queue.qsize(),
            "in_progress": self._in_progress,
            "attempted": self.attempted,
            "improved": self.improved,
            "rejected": self.rejected,
            "failed": self.failed,
            "shed": self.shed,
            "copies_saved": self.copies_saved,
            "t_ave_delta": self.t_ave_delta,
            "recent": self.events.as_rows(),
        }

    @staticmethod
    def disabled_stats() -> dict[str, object]:
        """The ``upgrades`` stats block when ``--adaptive`` is off —
        same keys, so the payload schema is stable either way."""
        return {
            "enabled": False,
            "hot_threshold": 0,
            "tracked": 0,
            "pending": 0,
            "in_progress": 0,
            "attempted": 0,
            "improved": 0,
            "rejected": 0,
            "failed": 0,
            "shed": 0,
            "copies_saved": 0,
            "t_ave_delta": 0.0,
            "recent": [],
        }
