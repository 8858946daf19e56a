import hashlib
import json
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_max_disjoint,
    brute_min_consistent_partition,
    brute_min_piercing,
    families,
    interval_families,
    interval_packing,
    plain_transversal_exact,
)
from setfam import (
    BudgetExceededError,
    EmptySetError,
    PiercingSolution,
    SetFamily,
    gen_intervals,
    gen_random,
    max_disjoint,
    transversal_exact,
    transversal_greedy,
    verify_partition,
)
from setfam import errors
from setfam import piercing as piercing_module
from setfam.family import Check


def star():
    return SetFamily.from_points(4, [("A", [0, 1]), ("B", [0, 2]), ("C", [0, 3])])


def singletons():
    return SetFamily.from_points(3, [("A", [0]), ("B", [1]), ("C", [2])])


def intervals():
    return SetFamily.from_points(
        10,
        [("a", range(0, 4)), ("b", range(2, 6)), ("c", range(4, 8)), ("d", range(6, 10))],
    )


def assert_solution_valid(fam, solution):
    assert len(solution.piercing_points) == solution.tau
    assert len(solution.assignment) == fam.num_sets
    for i, cls in enumerate(solution.assignment):
        assert 0 <= cls < solution.tau
        assert fam.members[i] >> solution.piercing_points[cls] & 1
    ok, failing = verify_partition(fam, solution.assignment)
    assert ok and failing is None


class TestExact:
    def test_star(self):
        solution = transversal_exact(star())
        assert solution.tau == 1
        assert solution.piercing_points == (0,)
        assert solution.optimal
        assert_solution_valid(star(), solution)

    def test_singletons(self):
        solution = transversal_exact(singletons())
        assert solution.tau == 3
        assert_solution_valid(singletons(), solution)

    def test_intervals(self):
        # Oracle: exhaustive point-subset search says two points suffice.
        assert brute_min_piercing(intervals()) == 2
        solution = transversal_exact(intervals())
        assert solution.tau == 2
        assert solution.optimal
        assert_solution_valid(intervals(), solution)

    def test_empty_set_rejected(self):
        fam = SetFamily.from_points(3, [("A", [0]), ("VOID", [])])
        with pytest.raises(EmptySetError, match="VOID"):
            transversal_exact(fam)

    def test_empty_family(self):
        solution = transversal_exact(SetFamily(3, (), ()))
        assert solution.tau == 0
        assert solution.optimal

    def test_budget_exhaustion_returns_bounds(self):
        # Pairwise intersecting without a common point: packing 1, piercing 2,
        # so the greedy/packing shortcut cannot fire and the search must run.
        fam = SetFamily.from_points(3, [("A", [0, 1]), ("B", [1, 2]), ("C", [0, 2])])
        full = transversal_exact(fam)
        assert full.tau == 2 and full.optimal
        # The packing search takes 2 nodes and the branch and bound 3: at a
        # budget of 2 the branch and bound stops with the greedy cover, and at
        # 1 the packing search itself raises.
        capped = transversal_exact(fam, budget=2)
        assert not capped.optimal
        assert capped.lower_bound == max_disjoint(fam)[0] == 1
        assert capped.lower_bound <= full.tau <= capped.tau
        assert_solution_valid(fam, capped)
        with pytest.raises(BudgetExceededError, match="packing search exceeded the budget of 1 nodes"):
            transversal_exact(fam, budget=1)

    def test_budget_stopped_cover_meeting_its_bound_is_optimal(self):
        # At a budget of 6 the branch and bound stops holding a 5-point cover
        # with a redundant point; dropped, the cover meets the packing number.
        fam = gen_random(15, 25, 0.25, 322)
        full = transversal_exact(fam)
        capped = transversal_exact(fam, budget=6)
        assert (capped.tau, capped.optimal, capped.lower_bound) == (4, True, 4)
        assert (full.tau, full.optimal, full.lower_bound) == (4, True, 4)
        assert_solution_valid(fam, capped)

    @given(families(nonempty=True))
    def test_matches_partition_oracle(self, fam):
        solution = transversal_exact(fam)
        assert solution.optimal
        assert solution.tau == brute_min_consistent_partition(fam)
        assert_solution_valid(fam, solution)

    @given(families(nonempty=True))
    def test_packing_bounds_piercing(self, fam):
        assert brute_max_disjoint(fam) <= transversal_exact(fam).tau

    @given(families(max_sets=5, max_points=8, nonempty=True), st.integers(0, 255))
    def test_monotone_under_new_sets(self, fam, extra_mask):
        extra = (extra_mask % fam.universe_mask) + 1  # nonempty, inside the universe
        bigger = SetFamily(fam.universe_size, fam.names + ("EXTRA",), fam.members + (extra,))
        assert transversal_exact(bigger).tau >= transversal_exact(fam).tau
        assert max_disjoint(bigger)[0] >= max_disjoint(fam)[0]

    @settings(max_examples=200)
    @given(families(max_sets=8, max_points=10, nonempty=True), st.integers(1, 60))
    # At a budget of 4 the branch and bound proves this cover optimal in
    # index order, but not with a packing taken highest index first.
    @example(SetFamily(7, ("S0", "S1", "S2", "S3", "S4"), (98, 104, 17, 10, 116)), 4)
    def test_node_bound_matches_a_separate_disjoint_count(self, fam, budget):
        # The per-node bound is the length of pq's greedy packing of the
        # uncovered sets, in index order. Counting those sets here, apart
        # from pq, must give the same cover, or the same stop, at every budget.
        def count(members, uncovered):
            acc, kept = 0, []
            for i in range(len(members)):
                if uncovered >> i & 1 and not members[i] & acc:
                    acc |= members[i]
                    kept.append(i)
            return kept

        def outcome():
            try:
                return transversal_exact(fam, budget), transversal_exact(fam)
            except BudgetExceededError as exc:
                return str(exc)

        shared = outcome()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(piercing_module, "greedy_packing", count)
            assert outcome() == shared

    def test_solution_as_dict(self):
        solution = transversal_exact(singletons())
        assert solution._asdict() == {
            "tau": 3, "piercing_points": (0, 1, 2), "assignment": (0, 1, 2), "optimal": True, "lower_bound": 3,
        }
        assert list(solution._asdict()) == list(PiercingSolution._fields)
        assert PiercingSolution(**solution._asdict()) == solution
        assert PiercingSolution(1, (0,), (0,), False).lower_bound is None


def piercing_nodes(fam):
    """The cover ``transversal_exact`` returns and the nodes its branch and
    bound pops."""
    counts: Counter = Counter()

    def pops(stack, budget, search):
        for node in errors.pops(stack, budget, search):
            counts[search] += 1
            yield node

    with mock.patch.object(piercing_module, "pops", pops):
        solution = transversal_exact(fam)
    return solution, counts["piercing search"]


class TestSkipRules:
    """The fewest-points-first bound and the table of covered masks skip only
    nodes that cannot improve the cover, so a completed search returns the
    cover of the plain branch and bound."""

    @settings(max_examples=200)
    @given(st.integers(1, 30), st.integers(1, 60), st.sampled_from([0.05, 0.1, 0.2, 0.3]), st.integers(0, 2**64 - 1))
    def test_random_families_match_the_plain_search(self, m, n, density, seed):
        fam = gen_random(m, n, density, seed)
        assert transversal_exact(fam) == plain_transversal_exact(fam)

    @settings(max_examples=200)
    @given(st.integers(1, 30), st.integers(0, 60), st.integers(0, 2**64 - 1))
    def test_interval_families_match_the_plain_search(self, m, extra, seed):
        fam = gen_intervals(m, 2 * m + extra, seed)
        assert transversal_exact(fam) == plain_transversal_exact(fam)

    def test_a_full_table_keeps_the_cover(self):
        # Eight masks fill the table early: fewer nodes are skipped than with
        # room for every mask, more than with no table, and the cover stays.
        fam = gen_random(30, 60, 0.1, 0)
        full, full_nodes = piercing_nodes(fam)
        found = {}
        for limit in (8, 0):
            with mock.patch.object(piercing_module, "MAX_COVERED_MASKS", limit):
                found[limit] = piercing_nodes(fam)
        assert found[8][0] == found[0][0] == full == plain_transversal_exact(fam)
        assert full_nodes < found[8][1] < found[0][1]
        assert piercing_module.MAX_COVERED_MASKS <= 1 << 14

    def test_a_search_of_many_nodes_pops_far_fewer(self):
        # The plain search pops 251,715 nodes here; tests/test_budget.py pins
        # the benchmark ladder's counts.
        fam = gen_random(90, 135, 0.03, 0)
        solution, nodes = piercing_nodes(fam)
        assert (solution.tau, solution.optimal, nodes) == (29, True, 15305)


class TestGallai:
    @settings(max_examples=300)
    @given(interval_families(max_sets=12, max_points=16))
    def test_lower_bound_is_the_packing_number(self, fam):
        # On intervals tau = nu, and transversal_exact takes nu from the
        # right-endpoint greedy, with no packing search.
        solution = transversal_exact(fam)
        assert solution.lower_bound == max_disjoint(fam)[0] == interval_packing(fam) == solution.tau
        assert solution.optimal

    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_families_read_the_packing_number(self, seed):
        # transversal_exact reads nu from the right-endpoint greedy, with no
        # packing search; it must be the packing search's nu.
        fam = gen_intervals(40, 200, seed)
        assert transversal_exact(fam).lower_bound == max_disjoint(fam)[0] == interval_packing(fam)

    def test_a_budget_spends_no_node_on_the_packing_number(self):
        # The branch and bound pops 22 nodes, and the packing number costs
        # none, so a budget of 0 leaves the greedy cover with nu = 14 as its
        # lower bound, and 21 a cover the search has not yet proved.
        fam = gen_intervals(100, 500, 0)
        spent = transversal_exact(fam, budget=0)
        assert spent.piercing_points == tuple(sorted(transversal_greedy(fam).piercing_points))
        assert (spent.tau, spent.optimal, spent.lower_bound) == (16, False, 14)
        capped = transversal_exact(fam, budget=21)
        assert (capped.tau, capped.optimal, capped.lower_bound) == (15, False, 14)
        assert transversal_exact(fam, budget=22) == transversal_exact(fam)
        assert transversal_exact(fam).tau == 14


class TestIntervalsAtScale:
    @pytest.mark.parametrize("m, seed", [(200, s) for s in range(5)] + [(400, 0)] + [(800, s) for s in range(3)])
    def test_gallai_tau_equals_nu(self, m, seed):
        # Intervals have the Helly property in dimension one, so the piercing
        # number equals the packing number (Gallai).
        fam = gen_intervals(m, 5 * m, seed)
        solution = transversal_exact(fam)
        assert solution.optimal
        assert solution.tau == max_disjoint(fam)[0] == interval_packing(fam)
        assert_solution_valid(fam, solution)

    @pytest.mark.parametrize("m, tau, nodes, cover", [
        (800, 29, 91, "568b0ac4c2e0bf578257ceb4e780ed2040495e243a7c3c3753734106ebf192ab"),
        (1600, 47, 1632, "77ca570e7b9e3ece4445c33aca9cc35a0e49fde3491b9da1e78847352e1776d3"),
    ])
    def test_gallai_at_scale_keeps_its_search(self, m, tau, nodes, cover):
        # The closed form tau = nu at scale, with the branch and bound's node
        # count and the sha256 of its cover pinned.
        fam = gen_intervals(m, 5 * m, 0)
        solution, popped = piercing_nodes(fam)
        assert solution.tau == interval_packing(fam) == tau
        assert solution.optimal and solution.lower_bound == tau
        assert popped == nodes
        assert hashlib.sha256(json.dumps(solution.piercing_points).encode()).hexdigest() == cover

    @pytest.mark.parametrize("seed", [0, 9, 10, 13, 38])
    def test_search_stops_at_packing_number(self, seed):
        # On these seeds greedy needs more points than nu; the search ends as
        # soon as its cover has nu points, within a few hundred nodes.
        assert transversal_exact(gen_intervals(100, 500, seed), budget=1000).optimal


class TestGreedy:
    def test_star(self):
        solution = transversal_greedy(star())
        assert solution.tau == 1
        assert solution.piercing_points == (0,)

    def test_singletons(self):
        assert transversal_greedy(singletons()).tau == 3

    def test_intervals_between_bounds(self):
        solution = transversal_greedy(intervals())
        assert solution.tau in (2, 3)
        assert solution.tau >= transversal_exact(intervals()).tau
        assert_solution_valid(intervals(), solution)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            transversal_greedy(SetFamily.from_points(2, [("E", [])]))

    @given(families(nonempty=True))
    def test_upper_bounds_exact(self, fam):
        greedy = transversal_greedy(fam)
        assert greedy.tau >= transversal_exact(fam).tau
        assert_solution_valid(fam, greedy)


class TestVerifyPartition:
    def test_exact_output_verifies(self):
        solution = transversal_exact(intervals())
        assert verify_partition(intervals(), solution.assignment) == (True, None)

    def test_disjoint_class_fails(self):
        fam = SetFamily.from_points(2, [("A", [0]), ("B", [1])])
        assert verify_partition(fam, [0, 0]) == (False, 0)

    def test_interval_split_succeeds(self):
        # {a,b} meet in {2,3}; {c,d} meet in {6,7}.
        assert verify_partition(intervals(), [0, 0, 1, 1]) == (True, None)

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError, match="partial"):
            verify_partition(intervals(), [0, 0, 1])
        with pytest.raises(ValueError, match="partial"):
            verify_partition(intervals(), {0: 0, 1: 0, 2: 1})

    def test_mapping_assignment_accepted(self):
        assert verify_partition(intervals(), {0: 0, 1: 0, 2: 1, 3: 1}) == (True, None)

    @pytest.mark.parametrize("point", [-1, 3])
    def test_check_solution_refuses_a_point_out_of_range(self, point):
        with pytest.raises(ValueError, match=f"^point {point} out of range for a universe of 3 points$"):
            piercing_module.check_solution(singletons(), 3, [0, 1, point], [0, 1, 2], True, 3)

    def test_check_solution_finds_a_repeat_in_one_pass(self):
        # 200,001 points, the last a repeat of the first, on one set holding
        # them all: a scan of the points before each point would take minutes.
        n = 200_000
        fam = SetFamily(n, ("A",), ((1 << n) - 1,))
        start = time.perf_counter()
        checks = piercing_module.check_solution(fam, n + 1, [*range(n), 0], [0], False, None)
        assert time.perf_counter() - start < 1
        assert checks[1] == Check("pierce.classes-pierced", False, "point 0 listed twice")

    def test_first_failing_class_in_label_order(self):
        fam = SetFamily.from_points(4, [("A", [0]), ("B", [1]), ("C", [2]), ("D", [3])])
        ok, failing = verify_partition(fam, [5, 5, 3, 3])
        assert not ok
        assert failing == 3


def test_greedy_on_no_sets_is_optimal_and_empty():
    assert transversal_greedy(SetFamily.from_points(3, [])) == PiercingSolution(0, (), (), True, 0)
