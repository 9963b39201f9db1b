"""Size-aware eviction accounting (repro.passes.cache + delta).

The stage cache counts every entry as one unit; fragment entries vary
by orders of magnitude, so the weighted mode must (a) charge entries by
payload size, (b) evict by weight budget and not only entry count, and
(c) refuse entries so large that admitting one would churn out a big
slice of the resident set — the bug class where one huge program's
fragments evict the whole cache.
"""

import pytest

from repro.passes.cache import ArtifactCache
from repro.passes.delta import DeltaCache, DeltaScope, fragment_weight


def _fragment(scalars: int) -> dict[str, object]:
    return {"assign": [[i, 0] for i in range(scalars // 2)]}


def test_fragment_weight_counts_scalars():
    assert fragment_weight({"assign": [[0, 1], [2, 3]]}) == 4
    assert fragment_weight({"a": [1, 2, 3], "b": 7}) == 4
    assert fragment_weight({}) == 1  # never zero-weight


def test_weigher_charges_entries_by_size():
    cache = ArtifactCache(
        max_entries=100, max_weight=10, weigher=fragment_weight,
        max_entry_weight=10,
    )
    cache.put("a", _fragment(8))  # weight 8
    assert cache.total_weight == 8
    cache.put("b", _fragment(4))  # weight 4 -> over budget, evict "a"
    assert cache.get("a") is None
    assert cache.get("b") is not None
    assert cache.total_weight == 4
    assert cache.evictions == 1


def test_unweighted_mode_is_unchanged():
    cache = ArtifactCache(max_entries=2)
    cache.put("a", {"x": 1})
    cache.put("b", {"x": 2})
    cache.put("c", {"x": 3})
    assert len(cache) == 2 and "a" not in cache
    assert "weight" not in cache.stats()


def test_oversized_entry_is_rejected_not_admitted():
    cache = ArtifactCache(
        max_entries=100, max_weight=100, weigher=fragment_weight
    )
    # default admission cap: a quarter of the budget
    assert cache.max_entry_weight == 25
    cache.put("small", _fragment(10))
    evicted = cache.put("huge", _fragment(80))
    assert evicted == 0
    assert "huge" not in cache
    assert cache.rejected == 1
    # the small entry survived: the huge one couldn't flush the cache
    assert cache.get("small") is not None


def test_rejected_overwrite_drops_the_stale_entry():
    """Rejecting a too-large *update* must not leave the old value
    visible under the same key — that would serve stale fragments."""
    cache = ArtifactCache(
        max_entries=100, max_weight=100, weigher=fragment_weight
    )
    cache.put("k", _fragment(10))
    cache.put("k", _fragment(80))  # oversized replacement
    assert cache.get("k") is None
    assert cache.total_weight == 0


def test_replacing_an_entry_reaccounts_its_weight():
    cache = ArtifactCache(
        max_entries=100, max_weight=50, weigher=fragment_weight
    )
    cache.put("k", _fragment(10))
    cache.put("k", _fragment(4))
    assert cache.total_weight == 4
    assert len(cache) == 1


def test_weight_accounting_survives_eviction_churn():
    cache = ArtifactCache(
        max_entries=100, max_weight=20, weigher=fragment_weight,
        max_entry_weight=20,
    )
    for i in range(50):
        cache.put(f"k{i}", _fragment(8))
    assert cache.total_weight <= 20
    assert cache.total_weight == sum(
        fragment_weight(cache.get(f"k{i}") or {})
        for i in range(50)
        if f"k{i}" in cache
    )


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        ArtifactCache(max_entries=0)
    with pytest.raises(ValueError):
        ArtifactCache(max_weight=0)


def test_delta_cache_defaults_and_stats():
    cache = DeltaCache()
    assert cache.max_weight == 262_144
    assert cache.max_entry_weight == 262_144 // 4
    cache.put("a", _fragment(6))
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["weight"] == 6
    assert stats["rejected"] == 0


def test_delta_scope_counts_and_keys():
    cache = DeltaCache()
    scope = DeltaScope(cache, "allocate")
    key = scope.key("atom-color", {"n": 3})
    assert scope.get(key) is None
    scope.put(key, _fragment(4))
    assert scope.get(key) is not None
    assert (scope.hits, scope.misses, scope.lookups) == (1, 1, 2)
    # keys are scoped by pass name and unit kind
    other = DeltaScope(cache, "other-pass")
    assert other.key("atom-color", {"n": 3}) != key
    assert scope.key("whole-color", {"n": 3}) != key


def test_delta_keys_are_fingerprint_digests():
    """Scope keys skip ``encode_value``; on the payloads the work-unit
    engine builds they must still equal ``fingerprint.digest``."""
    from repro.core import ConflictGraph
    from repro.core.workunits import atom_task, task_fingerprint
    from repro.passes.fingerprint import digest

    graph = ConflictGraph.from_operand_sets(
        [frozenset({3, 5, 9}), frozenset({5, 12}), frozenset({9, 12})],
        [2, 1, 1],
    )
    task = atom_task(0, graph, 2, "first", {12})
    payloads = [
        {"n": 3},
        task_fingerprint(task, {5: 1}),
        {"unit": task_fingerprint(task, {}), "pre_empty": True},
    ]
    scope = DeltaScope(DeltaCache(), "allocate")
    for payload in payloads:
        assert scope.key("atom-color", payload) == digest(
            {"pass": "allocate", "kind": "atom-color", "unit": payload}
        )


def test_delta_cache_is_thread_safe_under_churn():
    import threading

    cache = DeltaCache(max_entries=64, max_weight=512)
    errors: list[BaseException] = []

    def worker(base: int) -> None:
        try:
            for i in range(200):
                k = f"{base}-{i % 40}"
                cache.put(k, _fragment(8))
                cache.get(k)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.total_weight <= 512
