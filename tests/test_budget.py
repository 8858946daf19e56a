"""One budget rule for every exact search: a node is one entry popped off a
search's stack, the root included, and every search a public call runs draws
from one count of the call's ``budget`` nodes. The pop that would take that
count past ``budget`` stops the call.

Each case below needs exactly ``nodes`` pops in all, so it answers at that
budget as it does at the default, and one node less stops it. The node counts
of the benchmark's ``pierce`` ladder and of each dual VC dimension proof are
pinned per search too: they are the searches' primary cost metric.
"""

import re
from collections import Counter
from unittest import mock

import pytest

from setfam import (
    BudgetExceededError,
    SetFamily,
    build_quadratic_witness,
    dual_shatter,
    dual_vc_dimension,
    errors,
    gen_halfplane_grid,
    gen_intervals,
    gen_random,
    gen_witness_rich,
    growth_profile,
    has_pq,
    max_disjoint,
    piercing,
    pq,
    shatter,
    transversal_exact,
    transversal_greedy,
)
from setfam.errors import DEFAULT_BUDGET


def rich():
    return gen_witness_rich(6, 0)


def halfplanes():
    return gen_halfplane_grid(12, 96, 1)


def gapped_pairs():
    return SetFamily(20, tuple(f"S{i}" for i in range(20)), tuple(0b101 << i % 3 for i in range(20)))


# Case -> (the search that stops first, the call at a given budget, the nodes
# its searches pop in all). The first four are named by that search.
CASES = {
    # Dimension proofs at k = 1 and 2 pop 1 + 2 nodes, the main search 5.
    "exact shatter search": (
        "exact shatter search", lambda b: dual_shatter(gen_intervals(100, 500, 0), 5, budget=b), 8,
    ),
    "packing search": ("packing search", lambda b: max_disjoint(gen_random(90, 135, 0.03, 0), budget=b), 416),
    # The sets {i % 3, i % 3 + 2}, which are not intervals. Point 2 lies in
    # the sets of the first and third kinds, and point 1 in those of the
    # second, so at most four sets leave each point in at most two of them,
    # no ten do and (10,3) holds.
    "(p,q) search": ("(p,q) search", lambda b: has_pq(gapped_pairs(), 10, 3, b), 2756),
    "witness search": (
        "witness search", lambda b: build_quadratic_witness(*rich(), 7, exhaustive=True, budget=b), 111,
    ),
    # Composite calls: proofs of d = 2 pop 1 + 2 + 66 nodes, then the main
    # search 7; the profile's searches pop 1 + 2 + 66 + 4 + 5 + 6 + 7.
    "dual_shatter(halfplanes)": ("exact shatter search", lambda b: dual_shatter(halfplanes(), 7, budget=b), 76),
    "growth_profile": ("exact shatter search", lambda b: growth_profile(halfplanes(), 7, budget=b), 91),
    "dual_vc_dimension": ("exact shatter search", lambda b: dual_vc_dimension(halfplanes(), b), 69),
}


@pytest.mark.parametrize("case", CASES)
def test_search_stops_at_the_pop_past_its_budget(case):
    search, run, nodes = CASES[case]
    assert run(nodes) == run(DEFAULT_BUDGET)
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(search)} exceeded the budget of {nodes - 1} nodes$"):
        run(nodes - 1)


# Public call -> (the search whose root is its first pop, the call at a given
# budget). Packing and (p,q) calls run no search on an interval family, so
# these run on random sets.
FIRST_POPS = {
    "max_disjoint": ("packing search", lambda b: max_disjoint(gen_random(30, 60, 0.1, 0), budget=b)),
    "has_pq(q=2)": ("packing search", lambda b: has_pq(gen_random(30, 60, 0.1, 0), 3, 2, b)),
    "has_pq(q=3)": ("(p,q) search", lambda b: has_pq(gen_random(30, 60, 0.1, 0), 3, 3, b)),
    "transversal_exact": ("packing search", lambda b: transversal_exact(gen_random(30, 60, 0.1, 0), b)),
    "dual_shatter": ("exact shatter search", lambda b: dual_shatter(halfplanes(), 3, budget=b)),
    "growth_profile": ("exact shatter search", lambda b: growth_profile(halfplanes(), 3, budget=b)),
    "dual_vc_dimension": ("exact shatter search", lambda b: dual_vc_dimension(halfplanes(), b)),
    "build_quadratic_witness": ("witness search", lambda b: build_quadratic_witness(*rich(), 3, budget=b)),
}


@pytest.mark.parametrize("call", FIRST_POPS)
def test_negative_budget_stops_the_first_pop(call):
    # A count below zero reads as spent, like a count of zero.
    search, run = FIRST_POPS[call]
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(search)} exceeded the budget of -1 nodes$"):
        run(-1)


def test_pq_search_finds_a_small_violation_in_few_nodes():
    fam = gen_random(30, 150, 0.05, 1)
    assert has_pq(fam, 6, 3, budget=7).violation == tuple(range(6))
    with pytest.raises(BudgetExceededError):
        has_pq(fam, 6, 3, budget=6)


def test_interval_families_spend_no_budget():
    # The right-endpoint greedy answers packing and (p,q) on intervals with no
    # search, so a spent budget changes nothing.
    fam = gen_intervals(40, 200, 0)
    for run in (lambda b: max_disjoint(fam, budget=b), lambda b: max_disjoint(fam, 3, b),
                lambda b: has_pq(fam, 11, 2, b), lambda b: has_pq(fam, 11, 3, b), lambda b: has_pq(fam, 8, 3, b)):
        assert run(0) == run(DEFAULT_BUDGET)


def test_q2_and_greedy_witness_obey_the_budget():
    fam = gen_random(90, 135, 0.03, 0)
    assert has_pq(fam, 29, 2, budget=416) == has_pq(fam, 29, 2)
    with pytest.raises(BudgetExceededError, match="^packing search exceeded the budget of 415 nodes$"):
        has_pq(fam, 29, 2, budget=415)
    # The greedy chain is the search's first descent: root and six steps.
    assert build_quadratic_witness(*rich(), 6, budget=7).length == 6
    with pytest.raises(BudgetExceededError, match="^witness search exceeded the budget of 6 nodes$"):
        build_quadratic_witness(*rich(), 6, budget=6)


def test_piercing_stops_with_its_best_cover():
    # The packing search pops 38 nodes and the branch and bound 99, both from
    # the call's budget. Past it the branch and bound returns its best cover,
    # flagged non-optimal with the packing number as lower bound; the packing
    # search raises like every other search.
    fam = gen_random(30, 60, 0.1, 0)
    full = transversal_exact(fam)
    assert (full.tau, full.optimal, full.lower_bound) == (9, True, 9)
    assert transversal_exact(fam, budget=137) == full
    capped = transversal_exact(fam, budget=136)
    assert (capped.optimal, capped.lower_bound) == (False, 8)
    assert capped.tau >= full.tau
    # A budget the packing search spends leaves the greedy cover.
    greedy = transversal_exact(fam, budget=38)
    assert greedy.piercing_points == tuple(sorted(transversal_greedy(fam).piercing_points))
    assert (greedy.optimal, greedy.lower_bound) == (False, 8)
    with pytest.raises(BudgetExceededError, match="^packing search exceeded the budget of 37 nodes$"):
        transversal_exact(fam, budget=37)


# The benchmark's pierce ladder: family -> (the nodes max_disjoint pops, the
# nodes each search of transversal_exact pops, or None where the benchmark
# runs no piercing). On the interval families both take the packing number
# from the right-endpoint greedy (Gallai's tau = nu), so neither pops a
# packing search.
LADDER = {
    "intervals(100,500,9)": (lambda: gen_intervals(100, 500, 9), 0, {"piercing search": 11}),
    "intervals(80,400,38)": (lambda: gen_intervals(80, 400, 38), 0, {"piercing search": 22}),
    "random(40,80,0.1,1)": (lambda: gen_random(40, 80, 0.1, 1), 104, {"packing search": 104, "piercing search": 1059}),
    "random(40,80,0.1,12)": (lambda: gen_random(40, 80, 0.1, 12), 45, {"packing search": 45, "piercing search": 1155}),
    "random(40,80,0.1,18)": (lambda: gen_random(40, 80, 0.1, 18), 47, {"packing search": 47, "piercing search": 664}),
    "random(90,135,0.03,0)": (lambda: gen_random(90, 135, 0.03, 0), 416, None),
    "random(90,135,0.03,5)": (lambda: gen_random(90, 135, 0.03, 5), 406, None),
}


@pytest.mark.parametrize("name", LADDER)
def test_ladder_searches_pop_their_pinned_nodes(name):
    build, packing, piercing_pops = LADDER[name]
    fam = build()
    counts: Counter = Counter()

    def pops(stack, budget, search):
        for node in errors.pops(stack, budget, search):
            counts[search] += 1
            yield node

    with mock.patch.object(pq, "pops", pops), mock.patch.object(piercing, "pops", pops):
        max_disjoint(fam)
        assert counts == Counter({"packing search": packing})
        if piercing_pops is not None:
            counts.clear()
            transversal_exact(fam)
            assert counts == piercing_pops


def per_search_pops(run):
    """The nodes each search ``run`` starts pops, in the order they start."""
    counts: list[int] = []

    def pops(stack, budget, search):
        counts.append(0)
        for node in errors.pops(stack, budget, search):
            counts[-1] += 1
            yield node

    with mock.patch.object(shatter, "pops", pops):
        run()
    return counts


# Family -> n -> (the nodes of each dimension proof, of the main search).
PROOFS = {
    **{f"halfplane_grid(12,96,{s})": (lambda s=s: gen_halfplane_grid(12, 96, s),
                                      {n: ([1, 2, 66], n) for n in (5, 6, 7)}) for s in (1, 16)},
    "random(24,40,0.2,0)": (lambda: gen_random(24, 40, 0.2, 0), {5: ([1, 2, 9, 172], 4604)}),
    "random(24,40,0.2,1)": (lambda: gen_random(24, 40, 0.2, 1), {5: ([1, 2, 3, 291], 3398)}),
    "random(24,40,0.2,2)": (lambda: gen_random(24, 40, 0.2, 2), {5: ([1, 2, 4, 129], 4876)}),
    **{f"intervals(40,200,{s})": (lambda s=s: gen_intervals(40, 200, s), {4: ([1, 2], 4)}) for s in (0, 1, 2)},
}


@pytest.mark.parametrize("name", PROOFS)
def test_dimension_proofs_pop_their_pinned_nodes(name):
    # What a lone dual_shatter pays to prove d before its main search, all of
    # it charged to the call's budget.
    build, rows = PROOFS[name]
    fam = build()
    for n, (proofs, main) in rows.items():
        assert per_search_pops(lambda: dual_shatter(fam, n)) == [*proofs, main]
