import math
import statistics
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_first_shatter, brute_pi_star, families, run_families
from setfam import shatter as shatter_module
from setfam import (
    BudgetExceededError,
    SetFamily,
    boolean_atoms,
    dual_shatter,
    dual_vc_dimension,
    gen_halfplane_grid,
    gen_intervals,
    gen_random,
    growth_profile,
)


def singletons():
    return SetFamily.from_points(3, [("A", [0]), ("B", [1]), ("C", [2])])


def counted_pops(counts: list):
    """``shatter.pops`` appending one count per search and adding one per node."""
    original = shatter_module.pops

    def pops(stack, budget, search):
        counts.append(0)
        for node in original(stack, budget, search):
            counts[-1] += 1
            yield node

    return pops


class TestDualShatterExact:
    def test_disjoint_singletons(self):
        result = dual_shatter(singletons(), 2)
        assert result.value == 3  # two sets plus the zero cell
        assert result.witness == (0, 1)

    def test_deeper_than_the_recursion_limit(self):
        # One set per search level, 1,100 levels; C(1100, 1100) = 1 subfamily.
        fam = SetFamily.from_points(1100, [(f"S{i}", [i]) for i in range(1100)])
        result = dual_shatter(fam, 1100)
        assert result.value == 1100
        assert result.witness == tuple(range(1100))

    def test_two_overlapping_sets(self):
        fam = SetFamily.from_points(4, [("A0", [0, 1]), ("A1", [1, 2])])
        assert dual_shatter(fam, 2).value == 4

    def test_halfplane_grid_formula(self):
        fam = gen_halfplane_grid(4, 32, seed=0)
        result = dual_shatter(fam, 4)
        assert result.value == 11 == 1 + 4 + math.comb(4, 2)
        assert result.value == brute_pi_star(fam, 4)

    def test_empty_universe(self):
        fam = SetFamily(0, ("A", "B", "C"), (0, 0, 0))
        result = dual_shatter(fam, 2)
        assert (result.value, result.witness) == (0, (0, 1))

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            dual_shatter(singletons(), 4)
        with pytest.raises(ValueError):
            dual_shatter(singletons(), 0)

    def test_budget_refusal(self):
        # A search that needs more than 200,000 nodes stops at the pop that
        # would exceed the budget.
        fam = gen_random(24, 40, 0.2, 0)
        with pytest.raises(BudgetExceededError, match="exact shatter search exceeded the budget of 1000 nodes"):
            dual_shatter(fam, 10, budget=1000)

    @given(families())
    def test_matches_brute_force(self, fam):
        n = min(3, fam.num_sets)
        assert dual_shatter(fam, n).value == brute_pi_star(fam, n)

    @given(families())
    def test_witness_reproduces_value(self, fam):
        n = min(3, fam.num_sets)
        result = dual_shatter(fam, n)
        assert len(result.witness) == n
        assert len(boolean_atoms(fam, result.witness)) == result.value

    @settings(max_examples=300)
    @given(families(max_sets=7, max_points=8, min_points=0), st.data())
    def test_witness_is_lexicographically_first(self, fam, data):
        # The first n-subfamily in combinations order among all maximizers.
        n = data.draw(st.integers(1, fam.num_sets))
        result = dual_shatter(fam, n)
        assert (result.value, result.witness) == brute_first_shatter(fam, n)

    @settings(max_examples=300)
    @given(run_families(max_sets=7))
    def test_runs_of_consecutive_points_match_brute_force(self, fam):
        # A run, wrapping or not, holds a run of columns in lowest-point
        # order, so it cuts at most two edges of their cycle, and the
        # boundary bound can prune; it must not change a value or witness.
        assert all(b.bit_count() <= 2 for b in shatter_module._compress(fam)[1])
        for n in range(1, fam.num_sets + 1):
            result = dual_shatter(fam, n)
            assert (result.value, result.witness) == brute_first_shatter(fam, n)

    @pytest.mark.parametrize("seed", range(3))
    def test_intervals_stop_at_twice_n(self, monkeypatch, seed):
        # n intervals make at most 2n atoms; the first descent reaching 2n
        # closes the search (about 9,800 splits without the boundary bound).
        calls = []
        original = shatter_module._split
        monkeypatch.setattr(shatter_module, "_split", lambda *a: calls.append(1) or original(*a))
        result = dual_shatter(gen_intervals(40, 200, seed=seed), 4)
        assert result.value == 8
        assert len(calls) <= 150

    def test_intervals_closed_form_at_scale(self):
        # C(60,5) = 5,461,512 subfamilies; the boundary bound ends the search
        # at the first one reaching 2n atoms.
        assert dual_shatter(gen_intervals(60, 300, seed=0), 5).value == 10 == 2 * 5

    @given(families(max_sets=5, max_points=8))
    def test_nondecreasing_and_bounded(self, fam):
        values = [dual_shatter(fam, n).value for n in range(1, fam.num_sets + 1)]
        assert values == sorted(values)
        full_sigs = brute_pi_star(fam, fam.num_sets)
        for n, v in enumerate(values, start=1):
            assert v <= min(2**n, full_sigs)


class TestDualShatterGreedy:
    @given(families())
    def test_greedy_below_exact(self, fam):
        for n in range(1, min(4, fam.num_sets) + 1):
            greedy = dual_shatter(fam, n, mode="greedy")
            exact = dual_shatter(fam, n)
            assert greedy.value <= exact.value
            assert greedy.mode == "greedy-lower-bound"
            assert len(boolean_atoms(fam, greedy.witness)) == greedy.value

    @given(families(max_sets=8, max_points=12))
    def test_greedy_matches_building_every_candidates_cells(self, fam):
        # The reference builds each candidate's cells (one signature per
        # point) and keeps the first candidate with the most.
        chosen: list[int] = []
        for n in range(1, fam.num_sets + 1):
            counts = {
                t: len({tuple(fam.members[i] >> p & 1 for i in (*chosen, t)) for p in range(fam.universe_size)})
                for t in range(fam.num_sets) if t not in chosen
            }
            best = max(counts, key=lambda t: (counts[t], -t))
            chosen.append(best)
            result = dual_shatter(fam, n, mode="greedy")
            assert (result.value, result.witness) == (counts[best], tuple(chosen))

    def test_greedy_tie_breaks_lowest_index(self):
        fam = SetFamily.from_points(4, [("A", [0, 1]), ("B", [0, 1]), ("C", [2])])
        assert dual_shatter(fam, 2, mode="greedy").witness == (0, 2)

    def test_greedy_tie_on_split_count_goes_to_lower_index(self):
        # After A, both B and C split both cells into four; B has the lower index.
        fam = SetFamily.from_points(6, [("A", [0, 1, 2]), ("B", [0, 3]), ("C", [1, 4, 5])])
        result = dual_shatter(fam, 2, mode="greedy")
        assert (result.witness, result.value) == ((0, 1), 4)


class TestGrowthProfile:
    def test_interval_family_near_linear(self):
        fam = gen_intervals(10, 30, seed=0)
        profile = growth_profile(fam, 8)
        # Oracle: exact values recomputed by exhaustive enumeration.
        for r in profile.results:
            assert r.value == brute_pi_star(fam, r.n)
        assert 0.7 <= profile.exponent <= 1.3

    def test_halfplane_family_near_quadratic(self):
        fam = gen_halfplane_grid(8, 96, seed=0)
        profile = growth_profile(fam, 8)
        expected = [1 + n + math.comb(n, 2) for n in range(1, 9)]
        assert [r.value for r in profile.results] == expected
        assert 1.7 <= profile.exponent <= 2.1

    def test_halfplane_closed_form_at_scale(self):
        # Every subfamily of lines in general position cuts 1 + n + C(n,2) cells.
        fam = gen_halfplane_grid(12, 64, seed=3)
        profile = growth_profile(fam, 12)
        expected = [1 + n + math.comb(n, 2) for n in range(1, 13)]
        assert [r.value for r in profile.results] == expected

    def test_single_set_family_flat(self):
        fam = SetFamily.from_points(4, [("A", [0, 1])])
        profile = growth_profile(fam, 4)
        assert all(r.value <= 2 for r in profile.results)
        assert profile.exponent == 0.0

    @pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                        reason="3.12's linear_regression sums with math.sumprod")
    @given(st.lists(st.tuples(st.integers(1, 10**6), st.floats(-1e6, 1e6)), min_size=2, unique_by=lambda p: p[0]))
    def test_slope_is_the_statistics_slope(self, pairs):
        # As in a profile: x the log of a distinct n, y any finite value.
        xs, ys = [math.log(n) for n, _ in pairs], [y for _, y in pairs]
        assert shatter_module._slope(xs, ys) == statistics.linear_regression(xs, ys).slope

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            growth_profile(singletons(), 1)

    @given(families(max_sets=8, max_points=12))
    def test_greedy_profile_matches_greedy_at_every_n(self, fam):
        profile = growth_profile(fam, fam.num_sets + 1, "greedy")
        assert profile.results == tuple(
            dual_shatter(fam, k, "greedy") for k in range(1, fam.num_sets + 1)
        )

    def test_greedy_profile_takes_one_pass(self, monkeypatch):
        # One greedy step per n, not n steps for each n.
        calls = []
        original = shatter_module._split
        monkeypatch.setattr(shatter_module, "_split", lambda *a: calls.append(1) or original(*a))
        growth_profile(gen_intervals(30, 90, seed=1), 30, "greedy")
        assert len(calls) == 30

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            growth_profile(singletons(), 2, "bogus")
        with pytest.raises(ValueError):
            dual_shatter(singletons(), 2, "bogus")

    def test_exact_profile_compresses_once(self, monkeypatch):
        # The distinct point columns are built once per profile, not once per n.
        calls = []
        original = shatter_module.columns
        monkeypatch.setattr(shatter_module, "columns", lambda *a: calls.append(a) or original(*a))
        fam = gen_intervals(10, 30, seed=0)
        profile = growth_profile(fam, 6)
        assert len(calls) == 1
        assert profile.results == tuple(dual_shatter(fam, n) for n in range(1, 7))


class TestSauerShelahStop:
    @settings(max_examples=200)
    @given(families(max_sets=6, max_points=10, min_points=0))
    def test_dual_vc_dimension_matches_brute_force(self, fam):
        # The largest k such that some k sets make 2^k atoms, 0 if no set splits.
        shattered = [k for k in range(1, fam.num_sets + 1) if brute_pi_star(fam, k) == 1 << k]
        assert dual_vc_dimension(fam) == max(shattered, default=0)

    @settings(max_examples=100)
    @given(st.one_of(
        run_families(max_sets=7),
        st.builds(gen_halfplane_grid, st.integers(2, 7), st.just(32), st.integers(0, 2**16)),
    ))
    def test_stopped_searches_match_brute_force(self, fam):
        # Lone calls prove d with their own searches, a profile reads it off
        # its values; both must keep the lexicographically first maximizer.
        expected = [brute_first_shatter(fam, n) for n in range(1, fam.num_sets + 1)]
        results = [dual_shatter(fam, n) for n in range(1, fam.num_sets + 1)]
        assert [(r.value, r.witness) for r in results] == expected
        if fam.num_sets >= 2:
            profile = growth_profile(fam, fam.num_sets)
            assert [(r.value, r.witness) for r in profile.results] == expected

    @pytest.mark.parametrize("seed", (1, 16))
    def test_halfplane_searches_pop_under_a_hundred_nodes(self, seed):
        # d = 2: two lines make 4 cells, no three make 8. So n lines make at
        # most 1 + n + C(n,2) atoms, which the first descent reaches; without
        # the stop the searches pop 495, 792 and 924 nodes.
        fam = gen_halfplane_grid(12, 96, seed)
        for n in (5, 6, 7):
            counts: list[int] = []
            with mock.patch.object(shatter_module, "pops", counted_pops(counts)):
                assert dual_shatter(fam, n).value == 1 + n + math.comb(n, 2)
            assert sum(counts) < 100, counts

    def test_exact_profile_runs_no_dimension_search(self):
        # One search per n: d is the k before the first value below 2^k, so
        # n = 3 (7 cells) proves d = 2 and each later n stops at node n.
        counts: list[int] = []
        with mock.patch.object(shatter_module, "pops", counted_pops(counts)):
            profile = growth_profile(gen_halfplane_grid(12, 96, 1), 7)
        assert [r.value for r in profile.results] == [1 + n + math.comb(n, 2) for n in range(1, 8)]
        assert counts == [1, 2, 66, 4, 5, 6, 7]

    @settings(max_examples=200)
    @given(families(max_sets=7, max_points=8, min_points=0), st.data())
    def test_budget_covers_the_dimension_proofs_and_the_search(self, fam, data):
        # One count for the call: the nodes every search pops at the default
        # budget are enough, and one node less stops the call.
        n = data.draw(st.integers(1, fam.num_sets))
        counts: list[int] = []
        with mock.patch.object(shatter_module, "pops", counted_pops(counts)):
            result = dual_shatter(fam, n)
        nodes = sum(counts)
        assert dual_shatter(fam, n, budget=nodes) == result
        with pytest.raises(BudgetExceededError, match=f"^exact shatter search exceeded the budget of {nodes - 1} nodes$"):
            dual_shatter(fam, n, budget=nodes - 1)

    @settings(max_examples=200)
    @given(st.one_of(
        families(max_sets=6, max_points=10, min_points=0),
        run_families(max_sets=7),
        st.builds(gen_halfplane_grid, st.integers(2, 6), st.just(32), st.integers(0, 2**16)),
    ))
    def test_upper_bound_never_falls_below_a_value(self, fam):
        # The stop and the dimension proof's roof both read this bound, so
        # at the proved dimension it must hold for every n.
        compressed = shatter_module._compress(fam)
        d = dual_vc_dimension(fam)
        for n in range(1, fam.num_sets + 1):
            assert shatter_module._upper(compressed, n, d) >= brute_first_shatter(fam, n)[0]
