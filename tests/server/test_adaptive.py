"""The adaptive-recompilation test layer (ISSUE 6).

Three families:

- **Differential**: for every registry program and ~50 seeded generator
  programs, seed the cache with the heuristic baseline, run
  :func:`repro.server.adaptive.compute_upgrade`, and assert the entry
  left in the cache is structurally valid, never worse than the
  baseline in copies / residual conflicts / predicted ``t_ave``, and
  schema-identical to what a client saw before the swap.
- **Fault injection**: an exhausted budget, a crashing upgrade worker,
  a disk failure mid-swap, and a corrupt candidate must all leave the
  original cache entry intact and readable.
- **Engine behaviour**: hotness accounting, the per-key once-only state
  machine, and survival of the worker loop across a crashed upgrade.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.strategies import StorageResult, _program_facts, run_strategy
from repro.core.allocation import Allocation
from repro.lang.generator import random_source
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.passes.events import Metrics
from repro.programs import all_programs
from repro.server import adaptive as adaptive_mod
from repro.server.adaptive import (
    AdaptiveConfig,
    UpgradeEngine,
    _validate_candidate,
    compute_upgrade,
)
from repro.service.batch import BatchJob, _compile_and_key
from repro.service.cache import AllocationCache, decode_storage_result

#: Two modules: tight enough that the heuristics leave headroom.
MACHINE = MachineConfig(num_fus=4, num_modules=2)

#: Trimmed tier sweep so the differential suite stays fast: one extra
#: heuristic configuration, the profiled allocator, and the exact
#: solver on small instances.
TRIMMED = AdaptiveConfig(
    budget_s=20.0,
    sweep_strategies=("STOR1",),
    sweep_methods=("backtrack",),
    sweep_seeds=(1,),
    exact_max_values=6,
)

GENERATOR_SEEDS = list(range(50))


def _seed_baseline(
    source: str, name: str, cache: AllocationCache
) -> tuple[BatchJob, object, str, StorageResult]:
    """Compile ``source`` and install the synchronous-path heuristic
    result in the cache, exactly as a served request would."""
    job = BatchJob(name, source, PipelineOptions(machine=MACHINE))
    program, key = _compile_and_key(job, Metrics(), None)
    options = job.options
    storage = run_strategy(
        options.strategy, program.schedule, program.renamed, options.k,
        method=options.method, seed=options.seed,
    )
    cache.put(key, storage)
    return job, program, key, storage


def _check_differential(source: str, name: str) -> None:
    cache = AllocationCache()
    job, program, key, baseline = _seed_baseline(source, name, cache)
    before = dict(cache.peek(key))

    outcome = compute_upgrade(job, cache, TRIMMED)

    # (a) the upgrade never errors out on a valid program, and the
    # surviving entry decodes and is structurally valid
    assert outcome.status in ("improved", "rejected"), outcome.error
    after = cache.peek(key)
    assert after is not None, "upgrade lost the cache entry"
    upgraded = decode_storage_result(after)
    sets, _, duplicable, all_values = _program_facts(
        program.schedule, program.renamed
    )
    assert _validate_candidate(
        upgraded, baseline.allocation.k, all_values, duplicable
    ) is None

    # (b) never worse than the heuristic it replaced
    from repro.core.verify import conflicting_instructions

    assert upgraded.allocation.total_copies <= baseline.allocation.total_copies
    assert len(conflicting_instructions(sets, upgraded.allocation)) <= len(
        conflicting_instructions(sets, baseline.allocation)
    )
    if outcome.status == "improved":
        assert outcome.copies_saved >= 0
        assert outcome.t_ave_delta >= -1e-9 or outcome.copies_saved > 0 \
            or outcome.residual_saved > 0

    # (c) clients see the same payload schema before and after the swap
    assert sorted(after.keys()) == sorted(before.keys())
    assert after["k"] == before["k"]
    if outcome.status == "rejected":
        assert after == before, "rejected upgrade must not touch the entry"


@pytest.mark.parametrize(
    "spec", all_programs(), ids=lambda s: s.name
)
def test_differential_registry_program(spec):
    _check_differential(spec.source, spec.name)


@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_differential_generated_program(seed):
    _check_differential(random_source(seed), f"gen{seed}")


# --------------------------------------------------------------------------
# Fault injection
# --------------------------------------------------------------------------

HOT_SRC = """
program hot;
var i, s, t0, t1: int; a: array[16] of int;
begin
  s := 0; t0 := 2; t1 := 3;
  for i := 0 to 15 do a[i] := i * i;
  for i := 0 to 15 do begin
    t0 := t0 + a[i] * t1;
    t1 := t1 + a[i] * t0
  end;
  s := s + t0; s := s + t1;
  write(s)
end.
"""


def test_budget_exhausted_leaves_entry_intact():
    """Exact-solver (or any tier) timeout: a zero budget means no
    candidate ever runs — the outcome is a rejection and the baseline
    entry is byte-identical to before."""
    cache = AllocationCache()
    job, _, key, _ = _seed_baseline(HOT_SRC, "hot", cache)
    before = dict(cache.peek(key))

    outcome = compute_upgrade(
        job, cache, AdaptiveConfig(budget_s=0.0, tiers=("exact",))
    )
    assert outcome.status == "rejected"
    assert outcome.candidates == 0
    assert cache.peek(key) == before


def test_stop_event_interrupts_between_candidates():
    import threading

    cache = AllocationCache()
    job, _, key, _ = _seed_baseline(HOT_SRC, "hot", cache)
    before = dict(cache.peek(key))
    stop = threading.Event()
    stop.set()

    outcome = compute_upgrade(job, cache, TRIMMED, stop=stop)
    assert outcome.status == "rejected"
    assert outcome.candidates == 0
    assert cache.peek(key) == before


def test_crash_mid_swap_preserves_entry(tmp_path, monkeypatch):
    """A worker dying between the tmp write and the atomic replace: the
    published file is still the original, in memory and on disk, and a
    fresh process reads it cleanly."""
    cache = AllocationCache(tmp_path)
    job, _, key, baseline = _seed_baseline(HOT_SRC, "hot", cache)
    before = dict(cache.peek(key))
    on_disk_before = (tmp_path / f"{key}.json").read_text()

    import repro.service.cache as cache_mod

    def exploding_replace(src, dst):
        raise OSError("simulated crash between tmp write and publish")

    monkeypatch.setattr(cache_mod.os, "replace", exploding_replace)

    candidate = run_strategy(
        "STOR1", *_recompile(job), method="backtrack", seed=1
    )
    with pytest.raises(OSError):
        cache.swap(key, candidate, expected=before)
    monkeypatch.undo()

    # memory was never updated (disk-before-memory ordering) and the
    # disk file is byte-identical to the original
    assert cache.peek(key) == before
    assert (tmp_path / f"{key}.json").read_text() == on_disk_before
    fresh = AllocationCache(tmp_path)
    assert fresh.get(key) is not None
    assert fresh.corrupt == 0


def _recompile(job: BatchJob):
    program, _ = _compile_and_key(job, Metrics(), None)
    return program.schedule, program.renamed


def test_corrupt_candidate_rejected_by_validation(monkeypatch):
    """A tier returning garbage — an allocation that drops live values
    and illegally duplicates a pinned one, while *claiming* fewer
    copies — must be rejected before it can reach the cache."""
    cache = AllocationCache()
    job, program, key, _ = _seed_baseline(HOT_SRC, "hot", cache)
    before = dict(cache.peek(key))

    corrupt_alloc = Allocation(MACHINE.k)
    corrupt_alloc.add_copy(1, 0)
    corrupt = StorageResult("STOR1", corrupt_alloc, [], [])

    monkeypatch.setattr(
        adaptive_mod, "run_strategy", lambda *a, **kw: corrupt
    )
    monkeypatch.setattr(
        adaptive_mod, "profile_guided_stor1", lambda *a, **kw: corrupt
    )
    monkeypatch.setattr(
        adaptive_mod, "min_total_copies", lambda *a, **kw: corrupt_alloc
    )

    outcome = compute_upgrade(job, cache, TRIMMED)
    assert outcome.status == "rejected"
    assert cache.peek(key) == before


def test_validate_candidate_rejects_structural_corruption():
    sets = [frozenset({1, 2}), frozenset({2, 3})]
    all_values = [1, 2, 3]
    duplicable = {3}

    ok = Allocation(2)
    for v, m in ((1, 0), (2, 1), (3, 0)):
        ok.add_copy(v, m)
    assert _validate_candidate(
        StorageResult("X", ok, [], []), 2, all_values, duplicable
    ) is None

    # wrong machine width
    assert _validate_candidate(
        StorageResult("X", ok, [], []), 4, all_values, duplicable
    ) is not None

    # missing live value
    partial = Allocation(2)
    partial.add_copy(1, 0)
    assert "unplaced" in _validate_candidate(
        StorageResult("X", partial, [], []), 2, all_values, duplicable
    )

    # pinned value illegally duplicated
    dup = Allocation(2)
    for v, m in ((1, 0), (1, 1), (2, 1), (3, 0)):
        dup.add_copy(v, m)
    assert "copies" in _validate_candidate(
        StorageResult("X", dup, [], []), 2, all_values, duplicable
    )


def test_lost_swap_race_is_rejected():
    """A concurrent writer replacing the baseline mid-upgrade: the CAS
    refuses, the outcome is a rejection, and the newer entry wins."""
    cache = AllocationCache()
    job, program, key, baseline = _seed_baseline(HOT_SRC, "hot", cache)

    newer = run_strategy(
        "STOR2", program.schedule, program.renamed, job.k,
        method="hitting_set", seed=0,
    )

    class RacingCache:
        """Delegates to the real cache but swaps in a newer entry the
        moment the upgrade reads its baseline — the worst-case
        interleaving for the CAS."""

        def __init__(self, inner):
            self._inner = inner

        def peek(self, key):
            entry = self._inner.peek(key)
            self._inner.put(key, newer)
            return entry

        def __getattr__(self, name):
            return getattr(self._inner, name)

    outcome = compute_upgrade(job, RacingCache(cache), TRIMMED)
    assert outcome.status in ("rejected", "improved")
    if outcome.status == "rejected" and outcome.error:
        assert "race" in outcome.error or "candidate" in outcome.error
    # whatever happened, the surviving entry is the newer writer's —
    # the stale upgrade never clobbered it
    from repro.service.cache import encode_storage_result

    assert cache.peek(key) == encode_storage_result(newer)


# --------------------------------------------------------------------------
# Engine behaviour
# --------------------------------------------------------------------------


def test_worker_crash_engine_survives(monkeypatch):
    """A compute_upgrade that raises must not kill the worker loop: the
    outcome is recorded as failed, the cache entry survives, and the
    next hot key is still processed."""

    async def scenario():
        cache = AllocationCache()
        job, _, key, _ = _seed_baseline(HOT_SRC, "hot", cache)
        before = dict(cache.peek(key))

        outcomes = []
        engine = UpgradeEngine(
            cache,
            AdaptiveConfig(hot_threshold=1, budget_s=20.0,
                           sweep_strategies=("STOR1",),
                           sweep_methods=("backtrack",),
                           sweep_seeds=(1,), tiers=("sweep",)),
            on_outcome=outcomes.append,
        )
        engine.start()

        def exploding(*args, **kwargs):
            raise RuntimeError("simulated worker crash")

        monkeypatch.setattr(adaptive_mod, "compute_upgrade", exploding)
        engine.note_served(job, key)
        for _ in range(200):
            if engine.failed:
                break
            await asyncio.sleep(0.01)
        assert engine.failed == 1
        assert cache.peek(key) == before

        # the loop survived: a structurally different program (the
        # cache is content-addressed, so a renamed copy would collide
        # on the same key) upgrades normally
        monkeypatch.undo()
        from repro.server.loadgen import make_program

        job2, _, key2, _ = _seed_baseline(
            make_program(1, 3), "hot2", cache
        )
        assert key2 != key
        engine.note_served(job2, key2)
        for _ in range(500):
            if engine.attempted >= 2 and engine.idle:
                break
            await asyncio.sleep(0.01)
        assert engine.attempted == 2
        assert engine.improved + engine.rejected + engine.failed == 2
        assert len(outcomes) == 2
        await engine.aclose()

    asyncio.run(scenario())


def test_note_served_threshold_and_once_only():
    async def scenario():
        cache = AllocationCache()
        job = BatchJob("x", HOT_SRC, PipelineOptions(machine=MACHINE))
        engine = UpgradeEngine(cache, AdaptiveConfig(hot_threshold=5))
        # below threshold: tracked but not queued
        for _ in range(4):
            engine.note_served(job, "k1")
        assert engine.stats()["tracked"] == 1
        assert engine.stats()["pending"] == 0
        # crossing the threshold queues exactly once
        engine.note_served(job, "k1")
        assert engine.stats()["pending"] == 1
        engine.note_served(job, "k1", weight=100)
        assert engine.stats()["pending"] == 1
        # waiter weight counts as many hits: a thundering herd of 5 on
        # a fresh key is immediately hot
        engine.note_served(job, "k2", weight=5)
        assert engine.stats()["pending"] == 2
        await engine.aclose()

    asyncio.run(scenario())


def test_disabled_stats_schema_matches_enabled():
    async def scenario():
        engine = UpgradeEngine(AllocationCache())
        enabled = engine.stats()
        disabled = UpgradeEngine.disabled_stats()
        assert sorted(enabled.keys()) == sorted(disabled.keys())
        assert disabled["enabled"] is False and enabled["enabled"] is True
        await engine.aclose()

    asyncio.run(scenario())
