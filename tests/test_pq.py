import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_first_packing,
    brute_max_disjoint,
    brute_pq,
    conflicts_oracle,
    families,
    interval_families,
)
from setfam import (
    BudgetExceededError,
    SetFamily,
    disjoint_sequence_greedy,
    gen_intervals,
    has_pq,
    max_disjoint,
)
from setfam import pq
from setfam.pq import check_disjoint, check_verdict


def singletons():
    return SetFamily.from_points(3, [("A", [0]), ("B", [1]), ("C", [2])])


def star():
    return SetFamily.from_points(4, [("A", [0, 1]), ("B", [0, 2]), ("C", [0, 3])])


def intervals():
    return SetFamily.from_points(
        10,
        [("a", range(0, 4)), ("b", range(2, 6)), ("c", range(4, 8)), ("d", range(6, 10))],
    )


def pairwise_disjoint(fam, indices):
    return all(
        fam.members[i] & fam.members[j] == 0 for i, j in itertools.combinations(indices, 2)
    )


class TestMaxDisjoint:
    def test_singletons_all_disjoint(self):
        assert max_disjoint(singletons()) == (3, (0, 1, 2))

    def test_star_is_one(self):
        size, witness = max_disjoint(star())
        assert size == 1
        assert witness == (0,)

    def test_intervals(self):
        # Oracle: exhaustive subset search finds 2 as the maximum.
        assert brute_max_disjoint(intervals()) == 2
        size, witness = max_disjoint(intervals())
        assert size == 2
        assert pairwise_disjoint(intervals(), witness)

    def test_empty_family(self):
        assert max_disjoint(SetFamily(3, (), ())) == (0, ())

    def test_cap_stops_early(self):
        size, witness = max_disjoint(singletons(), cap=2)
        assert size == 2
        assert witness == (0, 1)

    def test_cap_above_nu_returns_nu(self):
        assert max_disjoint(star(), cap=5) == (1, (0,))

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            max_disjoint(star(), cap=-1)

    @given(families())
    def test_matches_brute_force(self, fam):
        size, witness = max_disjoint(fam)
        assert size == brute_max_disjoint(fam)
        assert len(witness) == size
        assert pairwise_disjoint(fam, witness)

    @settings(max_examples=300)
    @given(families(max_sets=8, max_points=8), st.integers(1, 9))
    def test_witness_is_lexicographically_first(self, fam, cap):
        # Among all maximum packings the smallest sorted tuple, and with a cap
        # the smallest packing of min(cap, nu) sets.
        nu = brute_max_disjoint(fam)
        assert max_disjoint(fam) == (nu, brute_first_packing(fam, nu))
        size = min(cap, nu)
        assert max_disjoint(fam, cap=cap) == (size, brute_first_packing(fam, size))

    @given(families(max_sets=7, max_points=6), st.integers(0, 7))
    def test_packing_verifies_within_its_cap_only(self, fam, cap):
        nu, witness = max_disjoint(fam, cap)
        assert check_disjoint(fam, witness, nu=nu, cap=cap).ok
        assert not check_disjoint(fam, witness, nu=nu, cap=nu - 1).ok


class TestConflicts:
    """On interval families the span sweep builds the graph that testing
    every pair builds; any other family takes the pairwise loop."""

    @settings(max_examples=300)
    @given(interval_families())
    # Sets 0 and 1 share point 2 only: one starts where the other ends. Set 2
    # is a single point inside both, set 3 holds every other set, and set 4
    # repeats set 1.
    @example(SetFamily.from_points(5, [("a", [0, 1, 2]), ("b", [2, 3, 4]), ("c", [2]), ("d", range(5)),
                                       ("e", [2, 3, 4])]))
    def test_sweep_matches_the_pairwise_oracle(self, fam):
        assert pq.interval_spans(fam.members) is not None
        assert pq._conflicts(fam.members) == conflicts_oracle(fam.members)

    @settings(max_examples=300)
    @given(interval_families(), st.data())
    def test_a_gapped_or_empty_set_takes_the_pairwise_path(self, fam, data):
        n = fam.universe_size
        if n >= 3 and data.draw(st.booleans(), label="gapped"):
            lo = data.draw(st.integers(0, n - 3))
            hi = data.draw(st.integers(lo + 2, n - 1))
            spoiler = (1 << hi + 1) - (1 << lo) ^ 1 << data.draw(st.integers(lo + 1, hi - 1))
        else:
            spoiler = 0
        members = list(fam.members)
        members.insert(data.draw(st.integers(0, len(members))), spoiler)
        assert pq.interval_spans(members) is None
        assert pq._conflicts(members) == conflicts_oracle(members)


class TestHasPq:
    def test_star_holds(self):
        assert has_pq(star(), 5, 2).holds

    def test_singletons_fail_with_violation(self):
        report = has_pq(singletons(), 3, 2)
        assert not report.holds
        assert report.violation == (0, 1, 2)
        assert pairwise_disjoint(singletons(), report.violation)

    def test_intervals_hold_at_three(self):
        assert has_pq(intervals(), 3, 2).holds

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            has_pq(star(), 2, 3)
        with pytest.raises(ValueError):
            has_pq(star(), 3, 1)

    def test_general_q_holds(self):
        fam = SetFamily.from_points(4, [("A", [0, 1]), ("B", [0, 2]), ("C", [0, 3])])
        assert has_pq(fam, 3, 3).holds

    def test_general_q_fails_with_violation(self):
        fam = SetFamily.from_points(3, [("A", [0, 1]), ("B", [0, 2]), ("C", [1, 2])])
        report = has_pq(fam, 3, 3)
        assert not report.holds
        assert report.violation == (0, 1, 2)
        inter = fam.universe_mask
        for i in report.violation:
            inter &= fam.members[i]
        assert inter == 0
        # the same family satisfies (2,2) trivially
        assert has_pq(fam, 2, 2).holds

    def test_vacuous_when_family_smaller_than_p(self):
        assert has_pq(singletons(), 9, 3).holds

    def test_budget_guard(self):
        fam = SetFamily(
            20, tuple(f"S{i}" for i in range(20)), tuple(1 << (i % 3) for i in range(20))
        )
        with pytest.raises(BudgetExceededError):
            has_pq(fam, 10, 3, budget=100)

    @settings(max_examples=300)
    @given(families(max_sets=8, max_points=6), st.integers(3, 4), st.integers(0, 4))
    def test_general_q_matches_brute_force(self, fam, q, extra):
        # The first violation in lexicographic order, as combinations finds it.
        report = has_pq(fam, q + extra, q)
        assert (report.holds, report.violation) == brute_pq(fam, q + extra, q)
        assert report.disjoint_witness is None

    def test_general_q_on_intervals(self):
        # A small violation is found at once, and a property that holds is
        # proved within the default budget.
        assert has_pq(gen_intervals(30, 150, 0), 6, 3).violation == tuple(range(6))
        assert has_pq(gen_intervals(40, 200, 0), 11, 3).holds

    def test_general_q_with_more_layers_than_sets(self):
        fam = SetFamily.from_points(2, [("A", [0]), ("B", [0])])
        assert has_pq(fam, 10**9, 10**9).holds

    @given(families(), st.integers(2, 6))
    def test_q2_equivalent_to_packing(self, fam, p):
        assert has_pq(fam, p, 2).holds == (brute_max_disjoint(fam) < p)

    @given(families())
    def test_witnesses_reverify(self, fam):
        report = has_pq(fam, 3, 2)
        if report.violation is not None:
            assert len(report.violation) == 3
            assert pairwise_disjoint(fam, report.violation)
        if report.disjoint_witness is not None:
            assert pairwise_disjoint(fam, report.disjoint_witness)

    @settings(max_examples=200)
    @given(families(max_sets=7, max_points=6), st.integers(2, 4), st.integers(0, 3))
    def test_verdicts_verify_and_flipped_ones_fail(self, fam, q, extra):
        # Every verdict agrees with its witnesses; the same witnesses under the
        # opposite verdict do not, so verify fails the flipped report.
        p = q + extra
        report = has_pq(fam, p, q)
        assert all(check.ok for check in check_verdict(fam, p, q, *report[2:]))
        assert not all(check.ok for check in check_verdict(fam, p, q, not report.holds, *report[3:]))


@pytest.mark.parametrize("sets, message", [
    ([0, 1, -1], "^set index -1 out of range for a family of 3 sets$"),
    ([0, 1, 99], "^set index 99 out of range for a family of 3 sets$"),
    ([0, 1, 1], "^set index 1 repeated in subfamily$"),
])
def test_checks_refuse_a_bad_set_index(sets, message):
    # -1 is not the last set, and 99 is no IndexError: each is malformed, as a
    # repeat is, whatever list of sets it comes in.
    fam = singletons()
    calls = [
        lambda: check_disjoint(fam, sets, nu=3),
        lambda: check_disjoint(fam, sets, nu=2),
        lambda: check_disjoint(fam, sets),
        lambda: check_verdict(fam, 3, 2, False, sets, None),
        lambda: check_verdict(fam, 3, 3, False, sets, None),
        lambda: check_verdict(fam, 4, 2, False, sets, None),
        lambda: check_verdict(fam, 3, 2, False, None, sets),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


class TestDisjointSequence:
    def test_all_disjoint_takes_everything(self):
        assert disjoint_sequence_greedy(singletons()) == (0, 1, 2)

    def test_star_takes_first_only(self):
        assert disjoint_sequence_greedy(star()) == (0,)

    def test_avoid_blocks_sets(self):
        # Only the set {0,1} avoids the blocked points; afterwards nothing
        # disjoint from it remains. Oracle: direct check of all three sets.
        fam = SetFamily.from_points(10, [("s0", [8, 0]), ("s1", [9, 1]), ("s2", [0, 1])])
        assert disjoint_sequence_greedy(fam, [8, 9]) == (2,)

    def test_every_set_meets_avoid(self):
        assert disjoint_sequence_greedy(star(), [0, 1, 2, 3]) == ()

    @given(families(), st.data())
    def test_output_disjoint_avoiding_and_maximal(self, fam, data):
        from setfam import points_from_mask

        avoid_mask = data.draw(st.integers(0, fam.universe_mask))
        avoid = points_from_mask(avoid_mask)
        seq = disjoint_sequence_greedy(fam, avoid)
        assert pairwise_disjoint(fam, seq)
        union = avoid_mask
        for i in seq:
            assert fam.members[i] & avoid_mask == 0
            union |= fam.members[i]
        # maximality: every unchosen set meets the avoided points or a chosen set
        for t in range(fam.num_sets):
            if t not in seq:
                assert fam.members[t] & union != 0

    @given(families(), st.data())
    def test_only_the_greedy_sequence_verifies(self, fam, data):
        from setfam import points_from_mask

        avoid = points_from_mask(data.draw(st.integers(0, fam.universe_mask)))
        seq = disjoint_sequence_greedy(fam, avoid)
        assert check_disjoint(fam, seq, avoid).ok
        # Every other disjoint sequence missing ``avoid``: a proper prefix, or
        # a reordering of a subset.
        for size in range(len(seq) + 1):
            for other in itertools.permutations(seq, size):
                assert check_disjoint(fam, other, avoid).ok == (other == seq)
