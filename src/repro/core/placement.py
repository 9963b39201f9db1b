"""Placement of value copies into memory modules (paper Fig. 10).

Given values that must receive one (additional) copy each, choose the
module for each copy so the maximum number of still-conflicting
instructions becomes conflict free:

- instructions are grouped by how many of their operands are duplicable
  (the paper's I_1 ... I_k: I_1 — one duplicable operand, hence exactly
  one way to fix it — is the most constrained and scores first);
- values are processed in decreasing involvement in I_1 conflicts (then
  I_2, ...);
- for a value v, module M_x scores the vector
  ``(C[M_x, I_1](v), ..., C[M_x, I_k](v))`` — the number of conflicting
  instructions per group that a copy of v at M_x would fix — and the
  lexicographically largest vector wins; remaining ties go to a seeded
  random choice (the paper: "a random choice is made") or the lowest
  module index, per ``tie_break``.

Placement runs on a :class:`~repro.core.verify.ConflictLedger`:
identical instructions are one row with a multiplicity weight — a
duplicated instruction is conflicting, fixed, and counted exactly like
its twin, so weighted sums over distinct rows equal plain sums over all
rows — and which rows still conflict is read off the ledger instead of
re-checked per value.  The scoring SDR checks run directly on the
allocation's module-occupancy bitmasks.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .allocation import Allocation
from .bitset import iter_bits, sdr_exists_masks
from .verify import ConflictLedger


def group_instructions(
    operand_sets: Sequence[frozenset[int]],
    duplicable: set[int],
    k: int,
) -> dict[int, list[frozenset[int]]]:
    """Paper Fig. 10: I_y = instructions with y duplicable operands."""
    groups: dict[int, list[frozenset[int]]] = {y: [] for y in range(1, k + 1)}
    for ops in operand_sets:
        y = len(ops & duplicable)
        if 1 <= y <= k:
            groups[y].append(ops)
    return groups


def ledger_groups(
    ledger: ConflictLedger, duplicable: set[int], min_width: int = 1
) -> dict[int, int]:
    """:func:`group_instructions` on the ledger's rows: row id -> y for
    every row of at least ``min_width`` operands in some group I_y."""
    k = ledger.alloc.k
    groups: dict[int, int] = {}
    for i, ops in enumerate(ledger.rows):
        if len(ops) >= min_width:
            y = len(ops & duplicable)
            if 1 <= y <= k:
                groups[i] = y
    return groups


def place_on_ledger(
    values: Iterable[int],
    ledger: ConflictLedger,
    groups: dict[int, int],
    rng: random.Random,
    tie_break: str = "random",
) -> None:
    """Place one copy of each value per Fig. 10 through ``ledger``.

    ``groups`` (from :func:`ledger_groups`) selects the rows that are
    scored and their group; conflicts are read off the ledger, which
    every placed copy updates.
    """
    alloc = ledger.alloc
    k = alloc.k
    all_modules = (1 << k) - 1
    rows, weights, conflicting = ledger.rows, ledger.weights, ledger.conflicting
    mask = alloc.modules_mask

    # Order the values once, up front (Fig. 10: "The order is determined
    # by counting the number of instructions in the first group that
    # involve each of the variables", falling back to later groups).
    involvement = {v: [0] * k for v in values}
    for i in conflicting:
        y = groups.get(i)
        if y is not None:
            for v in rows[i]:
                counts = involvement.get(v)
                if counts is not None:
                    counts[y - 1] += weights[i]
    ordered = sorted(
        involvement, key=lambda v: (tuple(involvement[v]), -v), reverse=True
    )

    for v in ordered:
        base = mask(v)
        avail = ~base & all_modules
        if not avail:
            continue  # v already everywhere
        candidates = list(iter_bits(avail))
        # Only still-conflicting instructions containing v can be fixed
        # by a copy of v: (other operands' masks, weight, group index).
        relevant = [
            ([mask(u) for u in rows[i] if u != v], weights[i], groups[i] - 1)
            for i in ledger.rows_of.get(v, ())
            if i in conflicting and i in groups
        ]
        score: dict[int, tuple[int, ...]] = {}
        for m in candidates:
            augmented = base | (1 << m)
            fixed = [0] * k
            for others, w, y in relevant:
                if sdr_exists_masks([*others, augmented]):
                    fixed[y] += w
            score[m] = tuple(fixed)
        best_vec = max(score.values())
        best_modules = [m for m in candidates if score[m] == best_vec]
        if len(best_modules) == 1 or tie_break == "first":
            chosen = best_modules[0]
        elif tie_break == "random":
            chosen = rng.choice(best_modules)
        else:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        ledger.add_copy(v, chosen)


def place_copies(
    values: Iterable[int],
    alloc: Allocation,
    operand_sets: Sequence[frozenset[int]],
    duplicable: set[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
) -> None:
    """Place one copy of each value per Fig. 10, mutating ``alloc``.

    ``operand_sets`` is the full instruction list; conflicts are
    re-evaluated against the evolving allocation as copies land.
    """
    ledger = ConflictLedger(operand_sets, alloc)
    place_on_ledger(
        values,
        ledger,
        ledger_groups(ledger, duplicable),
        rng or random.Random(0),
        tie_break,
    )
