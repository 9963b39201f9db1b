"""Sub-pass delta cache: fragment reuse below the stage fingerprints.

The chained fingerprints of :mod:`repro.passes.fingerprint` identify a
pass's *whole* output — one edited character invalidates every stage
downstream of ``parse``.  A :class:`DeltaCache` works below that
granularity: passes that can decompose their work into independent
units (the allocate pass's clique-separator atoms, see
:mod:`repro.core.workunits`) publish one **fragment** per unit under a
content address computed from the unit's own inputs, in a
relabel-invariant *rank space* (node ids normalised to 0..n-1).  A
near-duplicate program — same atoms, shifted value ids — then re-runs
only the units whose structure actually changed.

Keys are full content addresses (the unit payload is folded into the
SHA-256 :func:`repro.passes.fingerprint.digest` computes), so a hit is
exact in the same sense as the stage cache.  Fragments are plain-data dicts
(rank lists and ints); entries are weighted by their payload size and
admitted against a weight budget — see :class:`ArtifactCache` for the
size-aware eviction rules.

:class:`DeltaScope` is the per-run view a pass sees: it binds the
shared cache to the pass's name and counts this run's hits/misses so
tracers and the service metrics can report per-request delta
effectiveness.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Mapping

from .cache import ArtifactCache
from .fingerprint import canonical_bytes


def fragment_weight(fragment: Mapping[str, object]) -> int:
    """Rough size of a fragment: total scalar count of its payload."""
    total = 0
    for value in fragment.values():
        if isinstance(value, (list, tuple)):
            for item in value:
                total += (
                    len(item) if isinstance(item, (list, tuple)) else 1
                )
        else:
            total += 1
    return max(1, total)


class DeltaCache(ArtifactCache):
    """Thread-safe, size-aware LRU of sub-pass artifact fragments.

    Defaults hold ~256k rank/module scalars (a few thousand typical
    atoms) with a per-entry admission cap of a quarter of the budget,
    so one huge monolithic-graph fragment cannot flush the pool.
    """

    def __init__(
        self,
        max_entries: int = 8192,
        max_weight: int = 262_144,
        max_entry_weight: int | None = None,
    ):
        super().__init__(
            max_entries=max_entries,
            max_weight=max_weight,
            weigher=fragment_weight,
            max_entry_weight=max_entry_weight,
        )
        self._lock = threading.Lock()

    def get(self, fingerprint: str) -> dict[str, object] | None:
        with self._lock:
            return super().get(fingerprint)

    def put(self, fingerprint: str, artifacts: dict[str, object]) -> int:
        with self._lock:
            return super().put(fingerprint, artifacts)

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def stats(self) -> dict[str, object]:
        with self._lock:
            return super().stats()


class DeltaScope:
    """One pass run's window onto a :class:`DeltaCache`.

    ``key()`` folds the pass name, a unit kind, and the unit's
    rank-space payload into a content address; ``get``/``put`` move
    fragments and keep per-run hit/miss counters (the shared cache keeps
    the lifetime ones).
    """

    __slots__ = ("cache", "pass_name", "hits", "misses")

    def __init__(self, cache: DeltaCache, pass_name: str = "allocate"):
        self.cache = cache
        self.pass_name = pass_name
        self.hits = 0
        self.misses = 0

    def key(self, kind: str, payload: object) -> str:
        """``digest({"pass", "kind", "unit"})`` of the unit payload.

        Unit payloads are JSON-native (str-keyed dicts, lists, ints,
        bools, str), which ``encode_value`` would return unchanged, so
        its walk over the often long rank lists is skipped."""
        unit = {"pass": self.pass_name, "kind": kind, "unit": payload}
        return hashlib.sha256(canonical_bytes(unit)).hexdigest()

    def get(self, key: str) -> dict[str, object] | None:
        fragment = self.cache.get(key)
        if fragment is None:
            self.misses += 1
        else:
            self.hits += 1
        return fragment

    def put(self, key: str, fragment: dict[str, object]) -> None:
        self.cache.put(key, fragment)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses
