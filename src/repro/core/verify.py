"""Conflict-freedom checks via systems of distinct representatives.

With multiple copies, an instruction is free of memory access conflicts
iff its operands can be served from pairwise-distinct modules — i.e. the
family of copy-sets admits a system of distinct representatives (SDR).
We check this with augmenting-path bipartite matching (operand -> module);
instruction widths are at most k, so the tiny-Kuhn implementation is
exact and fast.

:func:`min_max_load` generalises the check to the paper's timing model:
the smallest L such that operands can be served with at most L accesses
to any one module — the instruction's fetch phase then costs ``L * Δ``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .allocation import Allocation
from .bitset import COUNTERS, sdr_exists_masks


def find_sdr(module_sets: Sequence[Iterable[int]]) -> list[int] | None:
    """Distinct representatives for the given sets, or None.

    Returns one module per set, all distinct, with ``result[i]`` drawn
    from ``module_sets[i]``; ties resolved deterministically.
    """
    sets = [sorted(set(s)) for s in module_sets]
    match_of_module: dict[int, int] = {}  # module -> operand index

    def try_assign(i: int, visited: set[int]) -> bool:
        for m in sets[i]:
            if m in visited:
                continue
            visited.add(m)
            if m not in match_of_module or try_assign(
                match_of_module[m], visited
            ):
                match_of_module[m] = i
                return True
        return False

    for i in range(len(sets)):
        if not sets[i]:
            return None
        if not try_assign(i, set()):
            return None

    result = [-1] * len(sets)
    for m, i in match_of_module.items():
        result[i] = m
    return result


def sdr_exists(module_sets: Sequence[Iterable[int]]) -> bool:
    return find_sdr(module_sets) is not None


def min_max_load(module_sets: Sequence[Iterable[int]]) -> int:
    """Smallest L such that each set can pick a module with no module
    picked more than L times.  Raises ValueError on an empty set
    (an unplaced operand can never be fetched)."""
    sets = [sorted(set(s)) for s in module_sets]
    if not sets:
        return 0
    if any(not s for s in sets):
        raise ValueError("operand with no copies cannot be fetched")

    n = len(sets)
    for load in range(1, n + 1):
        # b-matching with module capacity `load`, via slot expansion.
        match_of_slot: dict[tuple[int, int], int] = {}

        def try_assign(i: int, visited: set[tuple[int, int]]) -> bool:
            for m in sets[i]:
                for c in range(load):
                    slot = (m, c)
                    if slot in visited:
                        continue
                    visited.add(slot)
                    if slot not in match_of_slot or try_assign(
                        match_of_slot[slot], visited
                    ):
                        match_of_slot[slot] = i
                        return True
            return False

        if all(try_assign(i, set()) for i in range(n)):
            return load
    return n  # pragma: no cover - load == n always feasible


# --------------------------------------------------------------------------
# Allocation-level checks
# --------------------------------------------------------------------------


def instruction_conflict_free(
    operands: Iterable[int], alloc: Allocation
) -> bool:
    """True iff the instruction's operand copy-sets admit an SDR."""
    masks = [alloc.modules_mask(v) for v in set(operands)]
    return sdr_exists_masks(masks)


def conflicting_instructions(
    operand_sets: Iterable[Iterable[int]], alloc: Allocation
) -> list[frozenset[int]]:
    """Instructions that still have a memory access conflict."""
    # Identical operand sets share one SDR check (the allocation is
    # fixed for the duration of the scan).
    verdicts: dict[frozenset[int], bool] = {}
    out: list[frozenset[int]] = []
    for ops in operand_sets:
        key = frozenset(ops)
        free = verdicts.get(key)
        if free is None:
            free = instruction_conflict_free(key, alloc)
            verdicts[key] = free
        if not free:
            out.append(key)
    return out


class ConflictLedger:
    """The still-conflicting instructions of a fixed instruction list,
    kept current while copies are added to an allocation.

    Copies are only ever added, and an extra copy only widens one mask
    of an SDR check, so a conflict-free instruction stays conflict free:
    the conflicting set only shrinks.  :meth:`add_copy` therefore
    re-tests just the still-conflicting rows holding the copied value.
    Every change to ``alloc`` between construction and the last query
    must go through :meth:`add_copy`.

    Identical instructions share one row (``rows`` in first-occurrence
    order, ``weights`` their multiplicities); ``rows_of`` maps each value
    to the ids of the rows containing it, ascending.
    """

    __slots__ = ("alloc", "rows", "weights", "rows_of", "conflicting", "_order")

    def __init__(
        self, operand_sets: Iterable[Iterable[int]], alloc: Allocation
    ) -> None:
        self.alloc = alloc
        self.rows: list[frozenset[int]] = []
        self.weights: list[int] = []
        #: row id of every input instruction, in input order
        self._order: list[int] = []
        index: dict[frozenset[int], int] = {}
        for ops in operand_sets:
            key = frozenset(ops)
            i = index.get(key)
            if i is None:
                i = index[key] = len(self.rows)
                self.rows.append(key)
                self.weights.append(1)
            else:
                self.weights[i] += 1
                COUNTERS.instructions_deduped += 1
            self._order.append(i)
        self.rows_of: dict[int, list[int]] = {}
        for i, ops in enumerate(self.rows):
            for v in ops:
                self.rows_of.setdefault(v, []).append(i)
        mask = alloc.modules_mask
        self.conflicting: set[int] = {
            i
            for i, ops in enumerate(self.rows)
            if not sdr_exists_masks([mask(v) for v in ops])
        }

    def add_copy(self, value: int, module: int) -> None:
        """``alloc.add_copy``, then drop the rows the copy makes free."""
        self.alloc.add_copy(value, module)
        conflicting = self.conflicting
        if not conflicting:
            return
        mask = self.alloc.modules_mask
        for i in self.rows_of.get(value, ()):
            if i in conflicting and sdr_exists_masks(
                [mask(v) for v in self.rows[i]]
            ):
                conflicting.discard(i)

    def residual(self) -> list[frozenset[int]]:
        """The conflicting instructions in input order, repeats kept —
        what :func:`conflicting_instructions` returns on the same list."""
        conflicting = self.conflicting
        return [self.rows[i] for i in self._order if i in conflicting]


def verify_allocation(
    operand_sets: Iterable[Iterable[int]], alloc: Allocation
) -> bool:
    """True iff every instruction is conflict free under ``alloc``."""
    return not conflicting_instructions(operand_sets, alloc)


def combination_conflict_free(
    combo: Iterable[int], alloc: Allocation
) -> bool:
    """Paper §2.2.2: conflict-freedom of an operand *combination*.

    Identical to the instruction check; a combination is a subset of some
    instruction's operands.
    """
    return instruction_conflict_free(combo, alloc)


def instruction_fetch_load(operands: Iterable[int], alloc: Allocation) -> int:
    """Max accesses any one module serves for this instruction, assuming
    the fetch unit picks copies optimally (paper's Δ-model)."""
    sets = [alloc.modules(v) for v in set(operands)]
    if not sets:
        return 0
    return min_max_load(sets)
