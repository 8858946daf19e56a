import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import brute_pi_star, fraction_below_mask, fraction_lines
from setfam import (
    GenerationError,
    WitnessChain,
    boolean_atoms,
    build_quadratic_witness,
    dual_shatter,
    gen_halfplane_grid,
    gen_intervals,
    gen_random,
    gen_witness_rich,
    max_disjoint,
    parse_family,
    serialize_family,
    transversal_exact,
    verify_witness,
)
from setfam import generators
from setfam.family import MAX_UNIVERSE
from setfam.generators import MAX_GRID_SIDE, MAX_INCIDENCES, MAX_WITNESS_DEPTH
from setfam.rng import SplitMix64


class TestIntervals:
    def test_pairs_stay_linear(self):
        fam = gen_intervals(4, 10, seed=0)
        assert fam.num_sets == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert len(boolean_atoms(fam, [i, j])) <= 5

    def test_single_proper_interval_has_two_atoms(self):
        fam = gen_intervals(1, 8, seed=0)
        assert dual_shatter(fam, 1).value == 2

    def test_members_are_contiguous_ranges(self):
        fam = gen_intervals(6, 20, seed=11)
        for i in range(fam.num_sets):
            pts = fam.set_points(i)
            assert pts == tuple(range(pts[0], pts[-1] + 1))

    def test_deterministic(self):
        assert gen_intervals(5, 12, seed=42) == gen_intervals(5, 12, seed=42)
        assert gen_intervals(5, 12, seed=42) != gen_intervals(5, 12, seed=43)

    def test_helly_packing_equals_piercing(self):
        for seed in range(12):
            fam = gen_intervals(6, 16, seed=seed)
            assert max_disjoint(fam)[0] == transversal_exact(fam).tau

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_intervals(0, 10, seed=0)
        with pytest.raises(ValueError):
            gen_intervals(4, 7, seed=0)


class TestHalfplaneGrid:
    def test_two_crossing_lines_make_four_atoms(self):
        fam = gen_halfplane_grid(2, 16, seed=0)
        assert dual_shatter(fam, 2).value == 4

    def test_formula_at_every_size(self):
        fam = gen_halfplane_grid(4, 32, seed=0)
        for n in range(1, 5):
            expected = 1 + n + math.comb(n, 2)
            assert dual_shatter(fam, n).value == expected
            assert brute_pi_star(fam, n) == expected

    def test_preconditions(self, monkeypatch):
        # Rejected before any line is sampled.
        monkeypatch.setattr(generators, "_sample_lines", None)
        with pytest.raises(ValueError, match="count"):
            gen_halfplane_grid(0, 16, seed=0)
        for side in (2, MAX_GRID_SIDE + 1, 5000):
            with pytest.raises(ValueError, match="grid_side must be between 3 and 1448"):
                gen_halfplane_grid(3, side, seed=0)
        # n lines make 1 + n + C(n,2) cells, each needing its own grid point.
        for count, side, smallest in ((60, 10, 43), (2000, 30, 1415), (4, 3, 4), (3, 3, 3)):
            if side < smallest:
                with pytest.raises(ValueError, match=f"^count {count} makes .* at least {smallest}, got {side}$"):
                    gen_halfplane_grid(count, side, seed=0)
            assert smallest * smallest >= 1 + count + math.comb(count, 2) > (smallest - 1) ** 2

    def test_resampling_budget_error(self):
        # One attempt on a coarse grid with many lines cannot succeed.
        with pytest.raises(GenerationError, match="budget"):
            gen_halfplane_grid(8, 12, seed=0, attempts=1)

    def test_deterministic(self):
        assert gen_halfplane_grid(3, 24, seed=5) == gen_halfplane_grid(3, 24, seed=5)

    def test_draws_keep_their_bytes(self):
        # Which draws are accepted decides the bytes. The (12, 64) digests
        # were recorded when acceptance counted distinct per-point signatures
        # rather than atoms, so they pin that the two counts agree. The
        # others, recorded while the generator still checked every sample for
        # crossings outside the grid and triple points, pin the grid-hit
        # rejection: (8, 33, 7) rejects its 3rd draw for a grid hit and
        # accepts its 20th, and (5, 7, 0) rejects draws for grid hits and then
        # runs out.
        cases = [
            ((12, 64, 0), "cc55f3c6582ddc04c3d4b7659c1a9e8ff7766882013dfa53a711cf2c9ee73ef3"),
            ((12, 64, 1), "cc63e8be8b16ee64fb2e2421ae4e6efff92d32a0d92d343985cb637382e53a22"),
            ((12, 64, 2), "b075e90a320f6b9ffc4745cebaf2dbd1d0bdc37024922523b099dce6c766776b"),
            ((12, 64, 3), "4e92f24ee17c225a34de2bf02438595371b6cdc256fc64299395c3453e58394e"),
            ((8, 33, 7), "59d1c759af558d851a83d28f7ea39c3783c5582ee5cc08b07d2cc8144b76f945"),
        ]
        for (count, side, seed), digest in cases:
            fam = gen_halfplane_grid(count, side, seed)
            assert hashlib.sha256(serialize_family(fam).encode()).hexdigest() == digest
            assert len(boolean_atoms(fam, range(count))) == 1 + count + math.comb(count, 2)
        with pytest.raises(GenerationError, match="after 60 attempts"):
            gen_halfplane_grid(5, 7, 0, attempts=60)


# Seed 140 draws jitter 0.5 first, so a single line is the level tangent at
# the apex, y = span/2: through a grid point on an odd side, none on an even.
LEVEL_SEED = 140


def test_level_seed_draws_a_level_line():
    assert SplitMix64(LEVEL_SEED).below(601) == 300
    assert generators._sample_lines(SplitMix64(LEVEL_SEED), 1, 4)[0][0] == 0


@given(st.integers(1, 14), st.integers(3, 40), st.integers(0, 2**64 - 1), st.integers(0, 3))
@example(8, 33, 7, 2)  # its first line passes through a grid point
@example(1, 5, LEVEL_SEED, 0)
@example(1, 4, LEVEL_SEED, 0)
def test_integer_lines_match_the_fraction_oracle(count, side, seed, draw):
    # Draw ``draw`` of the sampler, in integers and in exact rationals.
    ours, oracle = SplitMix64(seed), SplitMix64(seed)
    for _ in range(draw + 1):
        lines = generators._sample_lines(ours, count, side)
        exact = fraction_lines(oracle, count, side)
    for (a, b, q), (slope, intercept) in zip(lines, exact, strict=True):
        assert (Fraction(a, q), Fraction(b, q)) == (slope, intercept)
        assert generators._below_mask(a, b, q, side) == fraction_below_mask(slope, intercept, side)
    assert ours.next_u64() == oracle.next_u64()


class TestWitnessRich:
    def test_depth_one(self):
        fam, target = gen_witness_rich(1, seed=0)
        chain = build_quadratic_witness(fam, target, 1)
        assert isinstance(chain, WitnessChain)
        assert chain.target_atom_counts == (2,)

    def test_depth_three_trace_floor(self):
        fam, target = gen_witness_rich(3, seed=0)
        chain = build_quadratic_witness(fam, target, 3)
        report = verify_witness(fam, target, chain)
        assert report.ok
        assert report.distinct_trace_count >= 6

    def test_depth_five_trace_floor(self):
        fam, target = gen_witness_rich(5, seed=0)
        chain = build_quadratic_witness(fam, target, 5)
        report = verify_witness(fam, target, chain)
        assert report.ok
        assert report.distinct_trace_count >= 15

    def test_seed_permutes_labels_but_chain_survives(self):
        for seed in (0, 1, 12345):
            fam, target = gen_witness_rich(3, seed=seed)
            chain = build_quadratic_witness(fam, target, 3)
            assert isinstance(chain, WitnessChain)
            assert verify_witness(fam, target, chain).ok
        assert gen_witness_rich(3, seed=0) != gen_witness_rich(3, seed=1)

    def test_target_embedded_in_family(self):
        fam, target = gen_witness_rich(2, seed=0)
        assert fam.external_target == fam.extension_mask
        assert sum(1 << p for p in target) == fam.extension_mask

    def test_depth_validation(self):
        # Rejected before any label is allocated: 2**101 points would not fit.
        for depth in (0, -3, MAX_WITNESS_DEPTH + 1, 100):
            with pytest.raises(ValueError, match="depth must be between 1 and 20"):
                gen_witness_rich(depth, seed=0)


def test_universe_above_maximum_refused():
    # Refused before any point is drawn or any mask built.
    message = f"^universe_size must be at most {MAX_UNIVERSE}, got {MAX_UNIVERSE + 1}$"
    with pytest.raises(ValueError, match=message):
        gen_intervals(3, MAX_UNIVERSE + 1, seed=0)
    with pytest.raises(ValueError, match=message):
        gen_random(3, MAX_UNIVERSE + 1, 0.5, seed=0)


def test_incidences_above_maximum_refused(monkeypatch):
    # The cap is the largest family generated, gen_witness_rich at its
    # largest depth. Sizes far past any memory are refused before the stream
    # is seeded, so nothing is drawn or built.
    assert MAX_INCIDENCES == MAX_WITNESS_DEPTH * (2 ** (MAX_WITNESS_DEPTH + 1) - 1)
    generators._check_size(MAX_WITNESS_DEPTH, MAX_UNIVERSE)
    monkeypatch.setattr(generators, "SplitMix64", None)
    message = f"incidences; a generated family holds at most {MAX_INCIDENCES}$"
    with pytest.raises(ValueError, match=f"^count 1000000 times 2000000 points makes 2000000000000 {message}"):
        gen_intervals(10**6, 2 * 10**6, seed=0)
    with pytest.raises(ValueError, match=f"^count 21 times {MAX_UNIVERSE} points makes .* {message}"):
        gen_random(MAX_WITNESS_DEPTH + 1, MAX_UNIVERSE, 0.5, seed=0)
    # 2,000 lines make 2,001,001 cells, which fit on the largest grid.
    with pytest.raises(ValueError, match=f"^count 2000 times {MAX_GRID_SIDE**2} points makes .* {message}"):
        gen_halfplane_grid(2000, MAX_GRID_SIDE, seed=0)


class TestRandom:
    def test_full_density_gives_full_sets(self):
        fam = gen_random(3, 6, 1.0, seed=0)
        assert all(mem == fam.universe_mask for mem in fam.members)
        assert transversal_exact(fam).tau == 1

    def test_allow_empty_sets(self):
        fam = gen_random(40, 3, 0.01, seed=0, ensure_nonempty=False)
        assert any(mem == 0 for mem in fam.members)

    def test_nonempty_guarantee(self):
        fam = gen_random(40, 3, 0.05, seed=0)
        assert all(mem != 0 for mem in fam.members)

    def test_deterministic(self):
        assert gen_random(4, 9, 0.4, seed=7) == gen_random(4, 9, 0.4, seed=7)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            gen_random(2, 4, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_random(2, 4, 1.5, seed=0)


def _digest(family) -> str:
    return hashlib.sha256(serialize_family(family).encode()).hexdigest()


# Every size the benchmark and the answer tests draw, with several seeds.
# (40,60,0.04) and (90,135,0.03) redraw some empty sets, and (40,3,0.05)
# redraws 287 rows; 4095, 4096 and 4097 points sit around the 4096-draw
# block of the batched coin rows, and 12,293 points take three full blocks
# and a short one.
RANDOM_DIGESTS = [
    ((60, 4000, 0.3, 0), {}, "69f24ccecbff43e23f8bd0ecc9e33571abdec9d1d7f80adebce76dea66361fda"),
    ((60, 4000, 0.3, 1), {}, "a1faa05ed7699e8a815049155b6c7e8518a9ab2e5fd867c6b341d403aed66b93"),
    ((60, 4000, 0.3, 2), {}, "c0225f301869e5bae85d378462c6e1f8b4870bf181626601998f8c53304b2e4a"),
    ((40, 80, 0.1, 0), {}, "f2e12c8e5ad50f8b6d7b7dddc0466f8e7931ac52ec8fee19007e28f7ff136cd4"),
    ((40, 80, 0.1, 1), {}, "31b0b33edd13d899710da5b9fc7ed312c1e563315a2b0c4cde322038811d63c5"),
    ((40, 80, 0.1, 12), {}, "e4151fd0e1eed4e05df440a0d3b11347a30f4f2e34ba95fbad6a20d983a91a23"),
    ((40, 80, 0.1, 1000001), {}, "0d20c4b5fda4801cb52c3bb7232d87a17f18b236e4c25ee33fc05d3f3ee2d963"),
    ((25, 50, 0.1, 0), {}, "686bd27725c69182b814480efe8da707d1948a72eced8ebee853027e519ef1e4"),
    ((25, 50, 0.1, 5), {}, "90bc34fa0eafb9008f524bf3f2d171c2a882e32f55a80db6681f6b78b8a14205"),
    ((25, 50, 0.1, 1000001), {}, "4c17071dcbd06109d9763978fc8ffd728307f3ae45facf7e0f10cd557e6ed18d"),
    ((40, 60, 0.04, 0), {}, "7c382924843d5fe5b2fa2a94b3028e53cd11e88c3e15b457c675061586ca7d3e"),
    ((40, 60, 0.04, 1), {}, "99aa8b276153a1ede25957683856b94e1c91b35b0b6eaeda690ccb77561e98b5"),
    ((40, 60, 0.04, 1000001), {}, "0c4647ad8a094fb3a14a5529b325ab2c960a82d1753034e2b8c8dca077872e73"),
    ((90, 135, 0.03, 0), {}, "dab4761ee5c4a82ea0885d741209a03baefc8623200e52c902176d8eb116a036"),
    ((90, 135, 0.03, 5), {}, "41f61705c70df3d0ed736d028912e0ea6ae65538fd6e4903b8d5a7e4cbe01735"),
    ((90, 135, 0.03, 12), {}, "af6b09012f8804638d227d1b5d6bfb40f8dd290694df572bd33a464f7cd3e6ef"),
    ((20, 40, 0.15, 0), {}, "af788e7b79bfe2b0cad6e2ef6d3f09e432dcf81e1bfcfe1ac537f0376bb3976e"),
    ((20, 40, 0.15, 1), {}, "9c4a35d82bc477b892e876a09a0ae9f58627912804c07251f3bb7dcbfee2ab09"),
    ((20, 40, 0.15, 1000001), {}, "eb21e5930a103c527edc5ae1caba4bb0751ebc2ffe7b32195b90acb6b015ce8e"),
    ((24, 40, 0.2, 0), {}, "c5d26bcf65144f75a5763ff3170eda8057e98ae455d6e0a1b26f2959e8f06392"),
    ((24, 40, 0.2, 12), {}, "10844c2b9c2429a1095c21e2e7a9b7a56d8ab7579540058cfe1d8e6f5a5f96dc"),
    ((40, 3, 0.05, 0), {}, "5038735a2ed8475da3ac04c230361af0ca0562179a8b3b0527c5e8b787fefaaf"),
    ((40, 3, 0.01, 0), {"ensure_nonempty": False}, "f1290c6e650ab4435a13fb47575d2b0517a66730da255bf3be3ae3b526491e22"),
    ((5, 300, 1.0, 3), {}, "d51279a326c24c9208520a63316f0c9a4f7ffec68b2fef2ae18b22511fdfdcf8"),
    ((3, 4095, 0.5, 8), {}, "f71b5c61b75ea3b86287da7ebd4d201f16f16d7160f45fe3f7f08cee80f773f4"),
    ((3, 4096, 0.5, 8), {}, "47d2ca7b952c9b512cc2ea0dc7946ba4ad3fb43bf181e76d84f45bb65f170797"),
    ((3, 4097, 0.5, 8), {}, "8e743494f0b4963d805cbfc7f5aa50acb33de81e877686bd488c6daacaef23ad"),
    ((2, 12293, 0.001, 4), {}, "4cf881971161c4c676b87ab92c3f1f14f40dfc4bafbeb28928b6632de1310c00"),
]

WITNESS_RICH_DIGESTS = [
    ((1, 0), "b0392c79e1e9b5de9aea2334a83679d53af05b32ab148d250a1d81fd4581549e"),
    ((1, 7), "afb9bfcad6d58afe18c694d38b646462b59e0983209b3efa46051fea11d07155"),
    ((6, 1), "257fa93db6da62543a24b48d222a35bea8614c6cd1172909d6f2178632855fe0"),
    ((6, 2), "7a100588afa25ed3ad7aafbd1cc9767c6b12832b2579f5029c78c82b59a62521"),
    ((11, 3), "7d117eb3a4f745804438ca69c5470bcf17ea5a8f45cbd1eddd87564f7c6657f9"),
    ((13, 1), "474d45a607b27d1148c262a4f912eb9e261d6e48ead341f12f1ba49a9ea6596b"),
    ((13, 14), "d9cb6f31824332bdd82576be44ab9d68d4ff71d377479201216d8ae6069467d7"),
    # The four families of the atoms benchmark.
    ((11, 1011), "354ed4f26798d88665f34ee15269d0e9cbbf5b61f2f9a27f056068395156b106"),
    ((13, 1013), "4eca7684dd07ba40a78525d6949ff6fe154b829f69ba30eb43f93351df1518de"),
    ((11, 2011), "cca237a38ce3b9662ad5c5152e14431c64e8b8e88c9ba4fe7b9c83b951376f77"),
    ((13, 2013), "8a25dc8c149d2aadf9884b566779bff091d0f3f14a8680386496d0d81632226e"),
]

# The benchmarked grids, (12, 96, 1) and (12, 96, 16) for atoms and
# (6, 32, 15) for cli, and draws that an empty arrangement cell rejects:
# (12, 96, 16) and (6, 32, 15) reject two each, (5, 17, 1) two, (12, 96, 25)
# three, and (8, 33, 13) rejects 13 draws for an empty cell and two for a
# line through a grid point before it accepts its 16th.
HALFPLANE_DIGESTS = [
    ((12, 96, 1), "e302549e4d5cdcad22e0b599f8118f9c74fb525588206f385ea709934d8050ec"),
    ((12, 96, 16), "dd4154506ef212d1e8eedba59fb32ec75675397f81192cabb22747ab8ca01b22"),
    ((6, 32, 15), "087acc68f6c756a7c626607d096fa865e298f9d33ef8f2dfadf8e51763ad7343"),
    ((5, 17, 1), "1a701f4d60ee62fc1c31f1ac41333e102e8d4654e849cb2c5a0718625c8ac7ba"),
    ((12, 96, 25), "26db68a013a1673fd5ecc7f50ccbae8d601cd105253ae8cd9ca5b057b10cc4a6"),
    ((8, 33, 13), "a9647d9726a95cfc53cc1d3f996c7f51258e16ae895f6308b9d30db609e170f0"),
]


class TestGeneratedBytes:
    @pytest.mark.parametrize("args, options, digest", RANDOM_DIGESTS)
    def test_random_keeps_its_bytes(self, args, options, digest):
        assert _digest(gen_random(*args, **options)) == digest

    @pytest.mark.parametrize("args, digest", WITNESS_RICH_DIGESTS)
    def test_witness_rich_keeps_its_bytes(self, args, digest):
        fam, target = gen_witness_rich(*args)
        assert _digest(fam) == digest
        assert target == fam.extension_points()

    @pytest.mark.parametrize("args, digest", HALFPLANE_DIGESTS)
    def test_halfplane_grid_keeps_its_bytes(self, args, digest):
        assert _digest(gen_halfplane_grid(*args)) == digest


class TestProvenance:
    def test_generator_record_round_trips(self):
        fam = gen_intervals(3, 8, seed=21)
        text = serialize_family(fam)
        again = parse_family(text)
        assert again == fam
        record = json.loads(again.provenance)
        assert record["kind"] == "intervals"
        assert record["seed"] == 21
        assert record["parameters"]["count"] == 3
