"""Storage allocation: which memory module(s) hold each data value.

A value may have several *copies* (read-only replicas, paper §2): its
placement is a set of module indices ``0..k-1``.  The x-grid figures of
the paper (e.g. Fig. 1) correspond line-by-line to rows of
:meth:`Allocation.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .bitset import iter_bits


#: mask -> the frozenset of its module indices, shared by every
#: allocation (there are few distinct masks: k is small)
_MODULE_SETS: dict[int, frozenset[int]] = {}


def _modules_of(mask: int) -> frozenset[int]:
    mods = _MODULE_SETS.get(mask)
    if mods is None:
        mods = _MODULE_SETS[mask] = frozenset(iter_bits(mask))
    return mods


@dataclass(slots=True)
class Allocation:
    """Mutable value -> module-set mapping for a k-module memory."""

    k: int
    #: (value, module) pairs in creation order — the audit trail used by
    #: tests that replay the paper's worked examples.
    history: list[tuple[int, int]] = field(default_factory=list)
    #: module-occupancy bitmask per placed value (bit m == copy in
    #: module m), in first-placement order; the bitset kernels consume
    #: it directly
    _mask: dict[int, int] = field(default_factory=dict)
    #: running ``Σ popcount(_mask[v])``, kept by every mutation
    _total: int = field(default=0, repr=False, compare=False)

    def _check_module(self, module: int) -> None:
        if not 0 <= module < self.k:
            raise ValueError(f"module {module} out of range [0, {self.k})")

    # -- mutation -----------------------------------------------------------

    def place(self, value: int, module: int) -> None:
        """Place the first copy of ``value``; it must be unplaced."""
        self._check_module(module)
        if value in self._mask:
            raise ValueError(f"value {value} already placed; use add_copy")
        self._mask[value] = 1 << module
        self._total += 1
        self.history.append((value, module))

    def add_copy(self, value: int, module: int) -> None:
        """Add a copy of ``value`` (first or additional) in ``module``."""
        self._check_module(module)
        mask = self._mask.get(value, 0)
        if mask >> module & 1:
            raise ValueError(f"value {value} already has a copy in {module}")
        self._mask[value] = mask | (1 << module)
        self._total += 1
        self.history.append((value, module))

    # -- queries ------------------------------------------------------------

    def modules(self, value: int) -> frozenset[int]:
        """Modules holding a copy of ``value`` (empty if unplaced)."""
        return _modules_of(self._mask.get(value, 0))

    def modules_mask(self, value: int) -> int:
        """Modules holding a copy of ``value`` as a bitmask (0 if
        unplaced) — the representation the bitset kernels consume."""
        return self._mask.get(value, 0)

    def primary(self, value: int) -> int:
        """The first module a copy of ``value`` was placed in — where the
        defining instruction writes; further copies are filled by
        scheduled transfers (see :mod:`repro.liw.transfers`)."""
        for v, m in self.history:
            if v == value:
                return m
        raise KeyError(f"value {value} is unplaced")

    def is_placed(self, value: int) -> bool:
        return value in self._mask

    def copy_count(self, value: int) -> int:
        return self._mask.get(value, 0).bit_count()

    def values(self) -> list[int]:
        return sorted(self._mask)

    def single_copy_values(self) -> list[int]:
        return sorted(v for v, m in self._mask.items() if m.bit_count() == 1)

    def multi_copy_values(self) -> list[int]:
        return sorted(v for v, m in self._mask.items() if m.bit_count() > 1)

    def module_loads(self) -> list[int]:
        """How many copies each module holds."""
        load = [0] * self.k
        for mask in self._mask.values():
            for m in iter_bits(mask):
                load[m] += 1
        return load

    @property
    def total_copies(self) -> int:
        return self._total

    @property
    def extra_copies(self) -> int:
        """Copies beyond the mandatory one per placed value."""
        return self._total - len(self._mask)

    def copy(self) -> "Allocation":
        return Allocation(
            self.k, list(self.history), dict(self._mask), self._total
        )

    # -- presentation -------------------------------------------------------

    def grid(self, values: Iterable[int] | None = None) -> str:
        """Render the x-grid of the paper's figures."""
        vals = sorted(self._mask) if values is None else list(values)
        header = "      " + " ".join(f"M{m + 1}" for m in range(self.k))
        lines = [header]
        for v in vals:
            mask = self._mask.get(v, 0)
            row = "".join(
                " x " if mask >> m & 1 else " - " for m in range(self.k)
            )
            lines.append(f"V{v:<4d}{row}")
        return "\n".join(lines)

    def as_dict(self) -> dict[int, frozenset[int]]:
        return {v: _modules_of(m) for v, m in self._mask.items()}
