
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import random_target_family
from setfam import (
    ChainStep,
    SetFamily,
    StuckCertificate,
    WitnessChain,
    build_quadratic_witness,
    candidate_sets,
    chain_from_dict,
    chain_to_dict,
    dual_shatter,
    gen_witness_rich,
    verify_witness,
)
from setfam import witness as witness_module
from setfam.family import boolean_atoms, mask_from_points
from setfam.rng import SplitMix64
from setfam.witness import REASON_NO_BASE_HIT, REASON_NO_PROBE_AVOID, REASON_NO_SPLIT


def one_set_family():
    return SetFamily.from_points(10, [("S1", [8, 0])], extension=[8, 9])


def flip_first(signature):
    """The signature with its first membership flipped."""
    return ("1" if signature[0] == "0" else "0") + signature[1:]


class TestCandidateSets:
    def test_splitting_set_with_base_point_qualifies(self):
        # S1 splits {8,9} (contains 8, misses 9) and owns base point 0.
        assert candidate_sets(one_set_family(), [8, 9]) == (0,)

    def test_singleton_atoms_cannot_be_split(self):
        fam = one_set_family()
        chain = build_quadratic_witness(fam, [8, 9], 1)
        assert isinstance(chain, WitnessChain)
        assert candidate_sets(fam, [8, 9], chain) == ()

    def test_sets_containing_prior_probes_excluded(self):
        # S1 splits a live atom and meets both atoms in base points, but
        # contains the probe placed by step 1, so nothing qualifies.
        fam = SetFamily.from_points(
            10,
            [("S0", [0, 6, 7]), ("S1", [0, 1, 6, 8])],
            extension=[6, 7, 8, 9],
        )
        chain = build_quadratic_witness(fam, [6, 7, 8, 9], 1)
        assert chain.steps[0] == ChainStep(0, (0,))
        assert candidate_sets(fam, [6, 7, 8, 9], chain) == ()

    def test_target_must_avoid_base_points(self):
        with pytest.raises(ValueError, match="base point"):
            candidate_sets(one_set_family(), [0, 8])

    def test_chain_repeating_a_set_rejected(self):
        fam, target = gen_witness_rich(3, seed=0)
        chain = build_quadratic_witness(fam, target, 2)
        looped = chain._replace(steps=(chain.steps[0], chain.steps[1]._replace(set_index=chain.steps[0].set_index)))
        with pytest.raises(ValueError, match=f"^set index {chain.steps[0].set_index} repeated in subfamily$"):
            candidate_sets(fam, target, looped)


class TestBuild:
    def test_single_set_family_stuck_after_one(self):
        outcome = build_quadratic_witness(one_set_family(), [8, 9], 2)
        assert isinstance(outcome, StuckCertificate)
        assert outcome.reached_length == 1
        assert outcome.reason == REASON_NO_SPLIT
        assert outcome.chain.target_atom_counts == (2,)
        # the certificate state really is final
        assert candidate_sets(one_set_family(), [8, 9], outcome.chain) == ()
        trace = dict(outcome.candidate_trace)
        assert trace["splits_target_within_a_live_atom"] == ()

    def test_stuck_reason_probe_avoidance(self):
        fam = SetFamily.from_points(
            10,
            [("S0", [0, 6, 7]), ("S1", [0, 1, 6, 8])],
            extension=[6, 7, 8, 9],
        )
        outcome = build_quadratic_witness(fam, [6, 7, 8, 9], 2)
        assert isinstance(outcome, StuckCertificate)
        assert outcome.reason == REASON_NO_PROBE_AVOID

    def test_stuck_reason_base_hit(self):
        # S1 splits the target but owns no base point at all.
        fam = SetFamily.from_points(
            10,
            [("S1", [6, 8])],
            extension=[6, 7, 8, 9],
        )
        outcome = build_quadratic_witness(fam, [6, 7, 8, 9], 1)
        assert isinstance(outcome, StuckCertificate)
        assert outcome.reached_length == 0
        assert outcome.reason == REASON_NO_BASE_HIT

    def test_witness_rich_depth_three(self):
        fam, target = gen_witness_rich(3, seed=0)
        chain = build_quadratic_witness(fam, target, 3)
        assert isinstance(chain, WitnessChain)
        assert chain.length == 3
        assert chain.target_atom_counts[0] == 2
        report = verify_witness(fam, target, chain)
        assert report.ok
        assert report.distinct_trace_count >= 6

    def test_deterministic(self):
        fam, target = gen_witness_rich(4, seed=9)
        assert build_quadratic_witness(fam, target, 4) == build_quadratic_witness(fam, target, 4)

    def test_chain_certifies_shatter_bound(self):
        for depth in (2, 3):
            fam, target = gen_witness_rich(depth, seed=5)
            chain = build_quadratic_witness(fam, target, depth)
            assert isinstance(chain, WitnessChain)
            assert dual_shatter(fam, depth).value >= depth * (depth + 1) // 2

    def test_validation(self):
        fam = one_set_family()
        with pytest.raises(ValueError, match="nonempty"):
            build_quadratic_witness(fam, [], 1)
        with pytest.raises(ValueError, match="base point"):
            build_quadratic_witness(fam, [0], 1)
        with pytest.raises(ValueError, match="n_target"):
            build_quadratic_witness(fam, [8, 9], 0)


def gap_family():
    """Greedy takes set 0 and dies; backtracking reaches depth 2 via set 1.

    Set 0's inside atom holds only base point 0, which becomes the probe, so
    no later set can both meet that atom in a base point and avoid the probe.
    Set 1 keeps a spare base point (2) in its inside atom, and set 2 then
    splits the target block {6,8} while meeting both atoms.
    """
    return SetFamily.from_points(
        10,
        [("T0", [0, 6, 7]), ("T1", [1, 2, 6, 8]), ("T2", [2, 3, 6])],
        extension=[6, 7, 8, 9],
    )


class TestExhaustiveMode:
    def test_greedy_sticks_where_backtracking_survives(self):
        fam = gap_family()
        target = [6, 7, 8, 9]
        greedy = build_quadratic_witness(fam, target, 2)
        assert isinstance(greedy, StuckCertificate)
        assert greedy.reached_length == 1
        assert greedy.chain.set_indices() == (0,)
        deep = build_quadratic_witness(fam, target, 2, exhaustive=True)
        assert isinstance(deep, WitnessChain)
        assert deep.set_indices() == (1, 2)
        assert verify_witness(fam, target, deep).ok

    def test_exhaustive_reports_deepest_when_target_unreachable(self):
        outcome = build_quadratic_witness(gap_family(), [6, 7, 8, 9], 3, exhaustive=True)
        assert isinstance(outcome, StuckCertificate)
        assert outcome.reached_length == 2
        assert candidate_sets(gap_family(), [6, 7, 8, 9], outcome.chain) == ()


class TestVerifier:
    def test_valid_chain_passes_all_checks(self):
        fam, target = gen_witness_rich(3, seed=1)
        chain = build_quadratic_witness(fam, target, 3)
        report = verify_witness(fam, target, chain)
        assert report.ok
        assert report.step_separation_ok
        assert report.within_step_distinct_ok
        assert report.all_traces_distinct_ok
        assert report.quadratic_bound_ok
        assert report.target_counts_ok
        assert report.failures == ()
        assert report.distinct_trace_count == report.required_trace_count == 6

    def test_cross_step_probe_swap_breaks_separation(self):
        fam, target = gen_witness_rich(3, seed=1)
        chain = build_quadratic_witness(fam, target, 3)
        steps = list(chain.steps)
        p1 = list(steps[1].probes)
        p2 = list(steps[2].probes)
        p1[0], p2[0] = p2[0], p1[0]
        steps[1] = steps[1]._replace(probes=tuple(p1))
        steps[2] = steps[2]._replace(probes=tuple(p2))
        mutated = chain._replace(steps=tuple(steps))
        report = verify_witness(fam, target, mutated)
        assert not report.step_separation_ok
        assert not report.ok
        assert any("earlier step" in msg or "own set" in msg for msg in report.failures)

    def test_duplicate_probe_breaks_within_step_distinctness(self):
        fam, target = gen_witness_rich(2, seed=3)
        chain = build_quadratic_witness(fam, target, 2)
        steps = list(chain.steps)
        probes = list(steps[1].probes)
        probes[1] = probes[0]
        steps[1] = steps[1]._replace(probes=tuple(probes))
        mutated = chain._replace(steps=tuple(steps))
        report = verify_witness(fam, target, mutated)
        assert not report.within_step_distinct_ok
        assert not report.all_traces_distinct_ok

    def test_tampered_counts_detected(self):
        fam, target = gen_witness_rich(2, seed=4)
        chain = build_quadratic_witness(fam, target, 2)
        mutated = chain._replace(target_atom_counts=(2, 9))
        report = verify_witness(fam, target, mutated)
        assert not report.target_counts_ok

    @pytest.mark.parametrize("fam, chain, message", [
        # Both target points 1 and 2 lie in the one chain set: one live atom.
        pytest.param(
            SetFamily.from_points(3, [("A", [0, 1, 2])], extension=[1, 2]),
            WitnessChain((ChainStep(0, (0,)),), (("1",),), (1,)),
            "live-atom count 1 at step 1 is below the floor 2",
            id="below-the-floor",
        ),
        # Probes 0..5 carry the six traces 100, 110, 010, 001, 011, 101; the
        # target points 6..9 are four live atoms after two sets, which C,
        # holding none of them, cannot split again.
        pytest.param(
            SetFamily.from_points(10, [("A", [0, 1, 5, 8, 9]), ("B", [1, 2, 4, 7, 9]), ("C", [3, 4, 5])],
                                  extension=range(6, 10)),
            WitnessChain(
                (ChainStep(0, (0,)), ChainStep(1, (1, 2)), ChainStep(2, (3, 4, 5))),
                (("0", "1"), ("00", "01", "10", "11"), ("000", "010", "100", "110")),
                (2, 4, 4),
            ),
            "live-atom counts fail to increase at step 3",
            id="fails-to-increase",
        ),
    ])
    def test_stalled_live_atoms_fail_only_the_counts(self, fam, chain, message):
        report = verify_witness(fam, fam.extension_points(), chain)
        assert report.step_separation_ok and report.within_step_distinct_ok
        assert report.all_traces_distinct_ok and report.quadratic_bound_ok
        assert not report.target_counts_ok and not report.ok
        assert report.failures == (message,)

    @pytest.mark.parametrize("seed", [0, 6])
    @pytest.mark.parametrize("tamper, message", [
        pytest.param(
            lambda chain: chain._replace(atom_history=(
                *chain.atom_history[:2],
                (flip_first(chain.atom_history[2][0]), *chain.atom_history[2][1:]),
                *chain.atom_history[3:],
            )),
            "recorded atom signatures at step 3 differ from recomputed atoms",
            id="signature-changed-at-step-3",
        ),
        pytest.param(
            lambda chain: chain._replace(atom_history=(
                *chain.atom_history[:-1], chain.atom_history[-1][:-1],
            )),
            "recorded atom signatures at step 6 differ from recomputed atoms",
            id="signature-dropped-at-step-6",
        ),
        pytest.param(
            lambda chain: chain._replace(target_atom_counts=(3, *chain.target_atom_counts[1:])),
            "recorded live-atom count 3 at step 1 differs from recomputed 2",
            id="count-changed-at-step-1",
        ),
    ])
    def test_tampered_bookkeeping_at_depth_six(self, seed, tamper, message):
        fam, target = gen_witness_rich(6, seed=seed)
        chain = build_quadratic_witness(fam, target, 6)
        assert verify_witness(fam, target, chain).ok
        mutated = tamper(chain)
        assert mutated != chain
        report = verify_witness(fam, target, mutated)
        assert not report.target_counts_ok
        assert not report.ok
        assert report.step_separation_ok and report.within_step_distinct_ok
        assert report.all_traces_distinct_ok and report.quadratic_bound_ok
        assert report.failures == (message,)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("tamper, message", [
        pytest.param(
            lambda chain: chain._replace(atom_history=(
                *chain.atom_history[:-1],
                (*chain.atom_history[-1][:-1], flip_first(chain.atom_history[-1][-1])),
            )),
            "recorded atom signatures at step 13 differ from recomputed atoms",
            id="signature-changed-at-step-13",
        ),
        pytest.param(
            lambda chain: chain._replace(target_atom_counts=(3, *chain.target_atom_counts[1:])),
            "recorded live-atom count 3 at step 1 differs from recomputed 2",
            id="count-changed-at-step-1",
        ),
    ])
    def test_tampered_bookkeeping_at_depth_thirteen(self, seed, tamper, message):
        fam, target = gen_witness_rich(13, seed=seed)
        chain = build_quadratic_witness(fam, target, 13)
        assert verify_witness(fam, target, chain).ok
        mutated = tamper(chain)
        assert mutated != chain
        report = verify_witness(fam, target, mutated)
        assert not report.target_counts_ok and not report.ok
        assert report.distinct_trace_count == report.required_trace_count == 91
        assert report.failures == (message,)

    def test_chain_replace_and_as_dict(self):
        fam, target = gen_witness_rich(3, seed=1)
        chain = build_quadratic_witness(fam, target, 3)
        shorter = chain._replace(steps=chain.steps[:2])
        assert (shorter.length, chain.length) == (2, 3)
        assert shorter.atom_history is chain.atom_history and shorter.steps == chain.steps[:2]
        assert chain._replace() == chain and WitnessChain(*chain) == chain
        assert list(chain._asdict()) == ["steps", "atom_history", "target_atom_counts"]
        with pytest.raises(ValueError):
            chain._replace(length=2)
        with pytest.raises(AttributeError):
            chain.steps = ()

    def test_empty_chain(self):
        fam, target = gen_witness_rich(3, seed=1)
        report = verify_witness(fam, target, WitnessChain())
        assert report.ok and report.length == 0
        assert (report.distinct_trace_count, report.required_trace_count) == (0, 0)
        assert report.failures == ()

    def test_structurally_invalid_chain_raises(self):
        fam, target = gen_witness_rich(2, seed=4)
        chain = build_quadratic_witness(fam, target, 2)
        wrong_count = chain._replace(steps=(chain.steps[0], chain.steps[1]._replace(probes=(0,))))
        with pytest.raises(ValueError, match="2 probes"):
            verify_witness(fam, target, wrong_count)

    def test_non_base_probe_raises(self):
        fam, target = gen_witness_rich(1, seed=4)
        chain = build_quadratic_witness(fam, target, 1)
        bad = chain._replace(steps=(chain.steps[0]._replace(probes=(target[0],)),))
        with pytest.raises(ValueError, match="base"):
            verify_witness(fam, target, bad)

    def test_conditions_imply_distinct_traces(self):
        # Over many built chains and random mutations of them, any chain that
        # passes separation and within-step distinctness also has pairwise
        # distinct full traces.
        rng = SplitMix64(2024)
        implications = 0
        for _ in range(160):
            fam, target = random_target_family(rng)
            outcome = build_quadratic_witness(fam, target, 3)
            chain = outcome if isinstance(outcome, WitnessChain) else outcome.chain
            if chain.length == 0:
                continue
            variants = [chain]
            base_points = fam.base_points()
            for _ in range(3):
                steps = [
                    ChainStep(
                        s.set_index,
                        tuple(
                            base_points[rng.below(len(base_points))]
                            if rng.below(4) == 0
                            else p
                            for p in s.probes
                        ),
                    )
                    for s in chain.steps
                ]
                variants.append(chain._replace(steps=tuple(steps)))
            for variant in variants:
                report = verify_witness(fam, target, variant)
                if report.step_separation_ok and report.within_step_distinct_ok:
                    assert report.all_traces_distinct_ok
                    implications += 1
        assert implications > 50


class TestChainSerialization:
    def test_round_trip(self):
        fam, target = gen_witness_rich(3, seed=2)
        chain = build_quadratic_witness(fam, target, 3)
        assert chain_from_dict(chain_to_dict(chain)) == chain


@st.composite
def target_families(draw):
    """A small random family over base points then extension points, and a
    nonempty target inside the extension."""
    n_base, n_ext = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    n = n_base + n_ext
    members = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    extension = range(n_base, n)
    fam = SetFamily(n, tuple(f"S{i}" for i in range(len(members))), tuple(members),
                    mask_from_points(extension, n))
    target = draw(st.lists(st.sampled_from(extension), min_size=1, unique=True))
    return fam, tuple(target)


class TestLiveAtoms:
    @given(target_families())
    @example(gen_witness_rich(4, seed=3))
    @example((gap_family(), (6, 7, 8, 9)))
    def test_builder_live_atoms_match_boolean_atoms(self, case):
        # At every node of greedy and exhaustive builds, and for candidate_sets
        # on their results, the live atoms refined one set at a time equal the
        # atoms of the whole prefix that meet the target.
        fam, target = case
        target_mask = mask_from_points(target, fam.universe_size)
        seen = []
        stages, extend = witness_module._candidate_stages, witness_module._extend

        def spy_stages(family, mask, chain, atoms):
            seen.append((chain.set_indices(), atoms))
            return stages(family, mask, chain, atoms)

        def spy_extend(*args):
            chain, atoms = extend(*args)
            seen.append((chain.set_indices(), atoms))
            return chain, atoms

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(witness_module, "_candidate_stages", spy_stages)
            patch.setattr(witness_module, "_extend", spy_extend)
            for exhaustive in (False, True):
                outcome = build_quadratic_witness(fam, target, fam.num_sets, exhaustive=exhaustive)
                candidate_sets(fam, target, outcome if isinstance(outcome, WitnessChain) else outcome.chain)
        assert seen
        for prefix, atoms in seen:
            prefix_atoms = boolean_atoms(fam, prefix).cells
            assert atoms == [(sig, mask) for sig, mask in prefix_atoms.items() if mask & target_mask]


@pytest.mark.parametrize("tamper, message", [
    (lambda c: c._replace(target_atom_counts=c.target_atom_counts[:1]),
     "^chain bookkeeping out of sync with its steps$"),
    (lambda c: c._replace(steps=(c.steps[0]._replace(set_index=99), *c.steps[1:])),
     "^set index 99 out of range for a family of 2 sets$"),
    (lambda c: c._replace(steps=(c.steps[0]._replace(probes=(-1,)), *c.steps[1:])),
     "^point -1 out of range for a universe of 7 points$"),
])
def test_malformed_chain_raises(tamper, message):
    fam, target = gen_witness_rich(2, seed=4)
    chain = build_quadratic_witness(fam, target, 2)
    with pytest.raises(ValueError, match=message):
        verify_witness(fam, target, tamper(chain))
