"""Differential fuzzing: bitset kernels vs the frozen set-based reference.

The mask-based ports in :mod:`repro.core` are required to be
*byte-identical* to the original implementations retained in
:mod:`repro.core.reference` — same allocations, same histories (copy
creation order), same colouring traces, same rng draw sequences — not
merely "also conflict-free".  These tests compare the two stacks,
kernel by kernel and end to end, over several hundred seeded random
programs.
"""

import random
from itertools import combinations

import pytest

from repro.core import (
    Allocation,
    ConflictGraph,
    assign_modules,
    backtrack_duplication,
    color_graph,
    greedy_hitting_set,
    paper_hitting_set,
    place_copies,
)
from repro.core.duplication import hitting_set_duplication
from repro.core.verify import ConflictLedger, conflicting_instructions
from repro.core.reference import (
    ReferenceConflictGraph,
    reference_assign_modules,
    reference_backtrack_duplication,
    reference_color_graph,
    reference_greedy_hitting_set,
    reference_hitting_set_duplication,
    reference_paper_hitting_set,
    reference_place_copies,
)


def random_operand_sets(seed: int, max_values: int = 24,
                        max_instructions: int = 20,
                        max_width: int = 5) -> list[frozenset[int]]:
    """A random 'program' for the allocation phase: per-instruction
    operand sets over a small value universe."""
    rng = random.Random(seed)
    n_values = rng.randint(2, max_values)
    n_instr = rng.randint(1, max_instructions)
    sets = []
    for _ in range(n_instr):
        width = rng.randint(1, min(max_width, n_values))
        sets.append(frozenset(rng.sample(range(n_values), width)))
    return sets


def assert_allocs_equal(got: Allocation, want: Allocation, ctx) -> None:
    assert got.as_dict() == want.as_dict(), ctx
    assert got.history == want.history, ctx


# --------------------------------------------------------------------------
# Kernel-level comparisons
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_conflict_graph_matches_reference(seed):
    sets = random_operand_sets(seed)
    live = ConflictGraph.from_operand_sets(sets)
    ref = ReferenceConflictGraph.from_operand_sets(sets)

    assert live.nodes == ref.nodes
    assert sorted(live.edges()) == sorted(ref.edges())
    assert live.num_edges == ref.num_edges
    for u, v in ref.edges():
        assert live.conflict_count(u, v) == ref.conflict_count(u, v)
        assert live.has_edge(u, v) and live.has_edge(v, u)
    for v in ref.nodes:
        assert live.degree(v) == ref.degree(v)
        assert live.neighbors(v) == ref.neighbors(v)
    assert live.components() == ref.components()

    rng = random.Random(seed ^ 0xBEEF)
    nodes = sorted(ref.nodes)
    probe = rng.sample(nodes, min(4, len(nodes)))
    assert live.is_clique(probe) == ref.is_clique(probe)
    keep = rng.sample(nodes, rng.randint(1, len(nodes)))
    assert sorted(live.subgraph(keep).edges()) == sorted(
        ref.subgraph(keep).edges()
    )


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [2, 4])
def test_weighted_conflict_graph_matches_reference(seed, k):
    sets = random_operand_sets(seed, max_values=12, max_instructions=10)
    rng = random.Random(seed * 31 + k)
    weights = [rng.randint(0, 3) for _ in sets]
    live = ConflictGraph.from_operand_sets(sets, weights)
    ref = ReferenceConflictGraph.from_operand_sets(sets, weights)
    assert live.nodes == ref.nodes
    assert sorted(live.edges()) == sorted(ref.edges())
    for u, v in ref.edges():
        assert live.conflict_count(u, v) == ref.conflict_count(u, v)


def _normalized_trace(trace):
    """Preassigned steps commute (their state updates are sums/unions),
    and their order within an atom follows ``set`` iteration of the
    atom's node set — an implementation detail that differs between the
    two graph classes.  Order them canonically; every *decision* step
    must match exactly, in sequence."""
    pre = sorted(
        (s.node, s.module) for s in trace if s.action == "preassigned"
    )
    rest = [s for s in trace if s.action != "preassigned"]
    return pre, rest


def _assert_coloring_matches(sets, k, weights=None, ctx=None, **options):
    live = color_graph(
        ConflictGraph.from_operand_sets(sets, weights), k, **options
    )
    ref = reference_color_graph(
        ReferenceConflictGraph.from_operand_sets(sets, weights), k, **options
    )
    assert live.assignment == ref.assignment, ctx
    assert live.unassigned == ref.unassigned, ctx
    assert _normalized_trace(live.trace) == _normalized_trace(ref.trace), ctx
    assert live.num_atoms == ref.num_atoms, ctx


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_coloring_matches_reference(seed, k):
    _assert_coloring_matches(random_operand_sets(seed), k, ctx=(seed, k))


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("k", [5, 6, 8])
@pytest.mark.parametrize("use_atoms", [True, False])
def test_coloring_matches_reference_wide_k(seed, k, use_atoms):
    """k >= 5: urgencies incoming/k_v with k_v up to k, where the
    heap's lcm(1..k) scaling must order every fraction exactly."""
    sets = random_operand_sets(
        seed + 500, max_values=40, max_instructions=60, max_width=k + 1
    )
    _assert_coloring_matches(
        sets, k, ctx=(seed, k), use_atoms=use_atoms
    )


def _hub_graph(seed, k):
    """Hubs pre-assigned to distinct modules; each candidate is joined
    to 1..k-1 hubs by weighted edges.  After the pre-assigned steps the
    candidates' urgencies w / k_v are many close fractions over
    different k_v, which only an exact ordering ranks right."""
    rng = random.Random(seed)
    hubs = range(k)
    sets, weights = [], []
    for cand in range(k, 4 * k):
        for hub in rng.sample(hubs, rng.randint(1, k - 1)):
            sets.append(frozenset({hub, cand}))
            weights.append(rng.randint(1, 12))
    preassigned = dict(zip(hubs, rng.sample(range(k), k)))
    return sets, weights, preassigned


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("k", [5, 6, 8])
@pytest.mark.parametrize("use_atoms", [True, False])
def test_coloring_fractions_match_reference(seed, k, use_atoms):
    sets, weights, preassigned = _hub_graph(seed, k)
    _assert_coloring_matches(
        sets, k, weights, ctx=(seed, k),
        preassigned=preassigned, use_atoms=use_atoms,
    )


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [2, 3, 5, 8])
@pytest.mark.parametrize("module_choice", ["first", "least_used"])
def test_coloring_options_match_reference(seed, k, module_choice):
    """Preferred nodes, pre-assigned nodes (possibly clashing), weighted
    operand sets and both module choices, with and without atoms."""
    rng = random.Random(seed * 131 + k)
    sets = random_operand_sets(
        seed + 900, max_values=30, max_instructions=40,
        max_width=min(k + 2, 8),
    )
    weights = [rng.randint(0, 3) for _ in sets]
    values = sorted(set().union(*sets))
    prefer = set(rng.sample(values, rng.randint(0, len(values) // 3)))
    preassigned = {
        v: rng.randrange(k)
        for v in rng.sample(values, rng.randint(0, len(values) // 4))
    }
    _assert_coloring_matches(
        sets, k, weights, ctx=(seed, k, module_choice),
        preassigned=preassigned, module_choice=module_choice,
        use_atoms=rng.random() < 0.5, prefer=prefer,
    )


def _equal_weight_graphs():
    """Symmetric graphs with unit weights: every node looks alike, so
    urgencies tie at the start and often afterwards, and only the
    smallest-id tie-break decides."""
    for n in (3, 5, 9, 12):
        yield f"K{n}", [frozenset(p) for p in combinations(range(n), 2)]
        yield f"C{n}", [frozenset({i, (i + 1) % n}) for i in range(n)]
    # K_{5,5}: every node has the same degree and the same weights
    yield "K5,5", [frozenset({a, b}) for a in range(5) for b in range(5, 10)]
    # one instruction holding every value: the clique K10, weight 1 each
    yield "I10", [frozenset(range(10))]


@pytest.mark.parametrize("name,sets", list(_equal_weight_graphs()))
@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("use_atoms", [True, False])
def test_coloring_ties_match_reference(name, sets, k, use_atoms):
    _assert_coloring_matches(sets, k, ctx=(name, k), use_atoms=use_atoms)


@pytest.mark.parametrize("seed", range(40))
def test_hitting_sets_match_reference(seed):
    rng = random.Random(seed + 7000)
    k = rng.randint(2, 6)
    families = [
        frozenset(
            rng.sample(range(12), rng.randint(1, k))
        )
        for _ in range(rng.randint(1, 15))
    ]
    assert paper_hitting_set(families, k) == reference_paper_hitting_set(
        families, k
    )
    assert greedy_hitting_set(families) == reference_greedy_hitting_set(
        families
    )


def _colored_alloc(sets, k):
    """A starting allocation + removal list shared by both stacks."""
    coloring = color_graph(ConflictGraph.from_operand_sets(sets), k)
    alloc = Allocation(k)
    for v, m in coloring.assignment.items():
        alloc.add_copy(v, m)
    return alloc, coloring.unassigned


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [2, 4])
def test_backtrack_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    alloc, unassigned = _colored_alloc(sets, k)
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    live = backtrack_duplication(
        sets, live_alloc, unassigned, random.Random(seed)
    )
    ref = reference_backtrack_duplication(
        sets, ref_alloc, unassigned, random.Random(seed)
    )
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))
    assert live.instructions_processed == ref.instructions_processed
    assert live.copies_created == ref.copies_created
    assert live.unreferenced_placed == ref.unreferenced_placed
    assert live.residual_instructions == ref.residual_instructions
    # placements_enumerated intentionally differs: the live kernel
    # prunes cost-dominated branches the reference walks in full.
    assert live.placements_enumerated <= ref.placements_enumerated


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("k", [2, 4])
def test_place_copies_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    alloc, unassigned = _colored_alloc(sets, k)
    if not unassigned:
        return
    duplicable = {v for s in sets for v in s}
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    place_copies(unassigned, live_alloc, sets, duplicable,
                 random.Random(seed))
    reference_place_copies(unassigned, ref_alloc, sets, duplicable,
                           random.Random(seed))
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("k", [2, 4])
def test_hitting_set_duplication_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    alloc, unassigned = _colored_alloc(sets, k)
    duplicable = {v for s in sets for v in s}
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    live = hitting_set_duplication(
        sets, live_alloc, unassigned, duplicable, random.Random(seed)
    )
    ref = reference_hitting_set_duplication(
        sets, ref_alloc, unassigned, duplicable, random.Random(seed)
    )
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))
    assert live.copies_created == ref.copies_created
    assert live.rounds_per_size == ref.rounds_per_size
    assert live.residual_combos == ref.residual_combos
    assert live.unreferenced_placed == ref.unreferenced_placed


# --------------------------------------------------------------------------
# End-to-end: the full assignment pipeline, both duplication methods
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("method", ["hitting_set", "backtrack"])
@pytest.mark.parametrize("k", [3, 8])
def test_assign_modules_matches_reference(seed, method, k):
    sets = random_operand_sets(seed)
    live = assign_modules(sets, k, method=method, seed=seed)
    ref = reference_assign_modules(sets, k, method=method, seed=seed)
    assert_allocs_equal(
        live.allocation, ref.allocation, (seed, method, k)
    )
    assert live.coloring.assignment == ref.coloring.assignment
    assert live.coloring.unassigned == ref.coloring.unassigned
    assert live.stats == ref.stats, (seed, method, k)


@pytest.mark.parametrize("seed", range(20))
def test_assign_modules_weighted_matches_reference(seed):
    sets = random_operand_sets(seed, max_values=14, max_instructions=12)
    rng = random.Random(seed * 13 + 5)
    weights = [rng.randint(0, 4) for _ in sets]
    live = assign_modules(sets, 4, seed=seed, weights=weights)
    ref = reference_assign_modules(sets, 4, seed=seed, weights=weights)
    assert_allocs_equal(live.allocation, ref.allocation, seed)
    assert live.stats == ref.stats


@pytest.mark.parametrize("seed", range(15))
def test_assign_modules_with_initial_matches_reference(seed):
    """Cross-phase composition (STOR2/3 shape): an earlier-phase
    allocation with single- and multi-copy values is imported by both
    stacks identically."""
    k = 4
    sets = random_operand_sets(seed, max_values=16)
    values = sorted({v for s in sets for v in s})
    rng = random.Random(seed + 99)
    initial = Allocation(k)
    for v in values[: len(values) // 2]:
        mods = rng.sample(range(k), rng.randint(1, 2))
        for m in mods:
            initial.add_copy(v, m)
    live = assign_modules(sets, k, initial=initial, seed=seed)
    ref = reference_assign_modules(sets, k, initial=initial, seed=seed)
    assert_allocs_equal(live.allocation, ref.allocation, seed)
    assert live.stats == ref.stats


# --------------------------------------------------------------------------
# The conflict ledger: duplication re-tests only rows a new copy can fix
# --------------------------------------------------------------------------


def _ledger_case(seed: int, k: int):
    """A wide program with repeated rows, a partial duplicable set and an
    imported allocation holding single- and multi-copy values."""
    rng = random.Random(seed * 7919 + k)
    sets = random_operand_sets(seed, max_values=3 * k,
                               max_instructions=3 * k, max_width=k + 1)
    sets += [rng.choice(sets) for _ in range(rng.randint(0, len(sets)))]
    rng.shuffle(sets)
    values = sorted({v for s in sets for v in s})
    duplicable = {v for v in values if rng.random() < 0.75}
    initial = Allocation(k)
    for v in rng.sample(values, len(values) // 3):
        for m in rng.sample(range(k), rng.randint(1, min(3, k))):
            initial.add_copy(v, m)
    weights = [rng.randint(0, 3) for _ in sets]
    return sets, duplicable, initial, weights


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("k", [5, 6, 8])
def test_hitting_set_duplication_ledger_matches_reference(seed, k):
    """Sizes past 4, partial duplicable sets, repeated rows and values
    arriving with several copies: same copies, in the same order."""
    sets, duplicable, initial, _ = _ledger_case(seed, k)
    coloring = color_graph(ConflictGraph.from_operand_sets(sets), k)
    alloc = initial.copy()
    for v, m in coloring.assignment.items():
        if not alloc.is_placed(v):
            alloc.add_copy(v, m)
    unassigned = [v for v in coloring.unassigned if v in duplicable]
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    live = hitting_set_duplication(
        sets, live_alloc, unassigned, duplicable, random.Random(seed)
    )
    ref = reference_hitting_set_duplication(
        sets, ref_alloc, unassigned, duplicable, random.Random(seed)
    )
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))
    assert live.copies_created == ref.copies_created
    assert live.rounds_per_size == ref.rounds_per_size
    assert live.residual_combos == ref.residual_combos
    assert live.unreferenced_placed == ref.unreferenced_placed


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("k", [5, 6, 8])
@pytest.mark.parametrize("method", ["hitting_set", "backtrack"])
def test_assign_modules_ledger_matches_reference(seed, k, method):
    sets, duplicable, initial, weights = _ledger_case(seed, k)
    for kwargs in (
        {"duplicable": duplicable, "initial": initial},
        {"weights": weights, "initial": initial},
        {"duplicable": duplicable, "weights": weights},
    ):
        live = assign_modules(sets, k, method=method, seed=seed, **kwargs)
        ref = reference_assign_modules(
            sets, k, method=method, seed=seed, **kwargs
        )
        ctx = (seed, k, method, sorted(kwargs))
        assert_allocs_equal(live.allocation, ref.allocation, ctx)
        assert live.stats == ref.stats, ctx


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("k", [2, 4, 8])
def test_ledger_tracks_conflicts_after_every_copy(seed, k, monkeypatch):
    """After every ``ConflictLedger.add_copy`` the ledger's conflicting
    rows are exactly those a from-scratch check finds."""
    sets, duplicable, initial, _ = _ledger_case(seed, k)
    checked = []
    add_copy = ConflictLedger.add_copy

    def add_copy_and_check(self, value, module):
        add_copy(self, value, module)
        want = set(conflicting_instructions(self.rows, self.alloc))
        assert {self.rows[i] for i in self.conflicting} == want
        assert self.residual() == conflicting_instructions(
            [self.rows[i] for i in self._order], self.alloc
        )
        checked.append(value)

    monkeypatch.setattr(ConflictLedger, "add_copy", add_copy_and_check)
    result = assign_modules(sets, k, duplicable=duplicable, initial=initial,
                            all_values=range(40), seed=seed)
    assert result.stats.residual_instructions == conflicting_instructions(
        sets, result.allocation
    )
    # every copy made after colouring went through the ledger, and
    # values never used by an instruction (ids past the program's) got
    # theirs there too
    assert len(checked) == result.stats.copies_created > 0
