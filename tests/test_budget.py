"""One budget rule for every exact search: a node is one entry popped off the
search's stack, the root included, and the pop that would take the count
past ``budget`` stops the search.

Each case below needs exactly ``nodes`` pops, so it answers at that budget as
it does at the default, and one node less stops it. The node counts of the
benchmark's ``pierce`` ladder are pinned too: they are the searches' primary
cost metric.
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
    errors,
    gen_intervals,
    gen_random,
    gen_witness_rich,
    has_pq,
    max_disjoint,
    piercing,
    pq,
    transversal_exact,
)
from setfam.errors import DEFAULT_BUDGET


def rich():
    return gen_witness_rich(6, 0)


# Search name -> (the search at a given budget, the nodes it pops).
CASES = {
    "exact shatter search": (lambda b: dual_shatter(gen_intervals(100, 500, 0), 5, budget=b), 5),
    "packing search": (lambda b: max_disjoint(gen_random(90, 135, 0.03, 0), budget=b), 416),
    # Singletons on three points: at most six sets leave each point in at
    # most two of them, so no ten do and (10,3) holds.
    "(p,q) search": (
        lambda b: has_pq(SetFamily(20, tuple(f"S{i}" for i in range(20)), tuple(1 << i % 3 for i in range(20))),
                         10, 3, b),
        15811,
    ),
    "witness search": (lambda b: build_quadratic_witness(*rich(), 7, exhaustive=True, budget=b), 111),
}


@pytest.mark.parametrize("search", CASES)
def test_search_stops_at_the_pop_past_its_budget(search):
    run, nodes = CASES[search]
    assert run(nodes) == run(DEFAULT_BUDGET)
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(search)} exceeded the budget of {nodes - 1} nodes$"):
        run(nodes - 1)


def test_pq_search_finds_a_small_violation_in_few_nodes():
    fam = gen_intervals(30, 150, 0)
    assert has_pq(fam, 6, 3, budget=7).violation == tuple(range(6))
    with pytest.raises(BudgetExceededError):
        has_pq(fam, 6, 3, budget=6)


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
    # The packing search pops 38 nodes and the branch and bound 99. Past its
    # own budget the branch and bound returns its best cover, flagged
    # non-optimal with the packing number as lower bound; the packing search
    # raises like every other search.
    fam = gen_random(30, 60, 0.1, 0)
    full = transversal_exact(fam)
    assert (full.tau, full.optimal, full.lower_bound) == (9, True, 9)
    assert transversal_exact(fam, budget=99) == full
    capped = transversal_exact(fam, budget=98)
    assert (capped.optimal, capped.lower_bound) == (False, 8)
    assert capped.tau >= full.tau
    assert transversal_exact(fam, budget=38).lower_bound == 8
    with pytest.raises(BudgetExceededError, match="^packing search exceeded the budget of 37 nodes$"):
        transversal_exact(fam, budget=37)


# The benchmark's pierce ladder: family -> (the nodes max_disjoint pops, the
# nodes transversal_exact's branch and bound pops after its own packing
# search, or None where the benchmark runs no piercing).
LADDER = {
    "intervals(100,500,9)": (lambda: gen_intervals(100, 500, 9), 51, 11),
    "intervals(80,400,38)": (lambda: gen_intervals(80, 400, 38), 83, 22),
    "random(40,80,0.1,1)": (lambda: gen_random(40, 80, 0.1, 1), 104, 1059),
    "random(40,80,0.1,12)": (lambda: gen_random(40, 80, 0.1, 12), 45, 1155),
    "random(40,80,0.1,18)": (lambda: gen_random(40, 80, 0.1, 18), 47, 664),
    "random(90,135,0.03,0)": (lambda: gen_random(90, 135, 0.03, 0), 416, None),
    "random(90,135,0.03,5)": (lambda: gen_random(90, 135, 0.03, 5), 406, None),
}


@pytest.mark.parametrize("name", LADDER)
def test_ladder_searches_pop_their_pinned_nodes(name):
    build, packing, piercing_nodes = LADDER[name]
    fam = build()
    counts: Counter = Counter()

    def pops(stack, budget, search):
        for node in errors.pops(stack, budget, search):
            counts[search] += 1
            yield node

    with mock.patch.object(pq, "pops", pops), mock.patch.object(piercing, "pops", pops):
        max_disjoint(fam)
        assert counts == {"packing search": packing}
        if piercing_nodes is not None:
            counts.clear()
            transversal_exact(fam)
            assert counts == {"packing search": packing, "piercing search": piercing_nodes}
