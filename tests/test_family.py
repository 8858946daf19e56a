import copy
import json
import pickle
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import candidate_points_oracle, cells_oracle, columns_oracle, families
from setfam import (
    AtomDecomposition,
    FamilyFormatError,
    SetFamily,
    boolean_atoms,
    gen_random,
    mask_from_points,
    parse_family,
    point_signature,
    points_from_mask,
    serialize_family,
)
from setfam import family as family_module
from setfam.family import (
    MAX_UNIVERSE, cells, check_atoms, columns, family_from_dict, family_to_dict, json_text, point_traces, split_cells,
    transpose,
)
from setfam.piercing import _candidate_points
from setfam.rng import SplitMix64


def two_sets():
    return SetFamily.from_points(4, [("A0", [0, 1]), ("A1", [1, 2])])


class TestParsing:
    def test_incidence_basic(self):
        fam = parse_family("2 3\n110\n011\n")
        assert fam.universe_size == 3
        assert fam.num_sets == 2
        assert fam.set_points(0) == (0, 1)
        assert fam.set_points(1) == (1, 2)
        assert fam.extension_mask == 0

    def test_incidence_slash_separated(self):
        assert parse_family("2 3 / 110 / 011") == parse_family("2 3\n110\n011")

    def test_structured_with_extension(self):
        text = json.dumps(
            {
                "universe": 10,
                "extension": [8, 9],
                "sets": [{"name": "S0", "points": [8, 0]}],
            }
        )
        fam = parse_family(text)
        assert fam.extension_points() == (8, 9)
        assert fam.base_points() == tuple(range(8))
        assert fam.set_points(0) == (0, 8)

    @pytest.mark.parametrize("bad", [99, -1])
    def test_point_out_of_range_in_a_long_list_names_its_position(self, bad):
        text = json.dumps({"universe": 90, "sets": [{"name": "BIG", "points": [*range(80), bad, 95]}]})
        with pytest.raises(FamilyFormatError) as info:
            parse_family(text)
        assert str(info.value) == f"sets[0] ('BIG').points[80]: point {bad} out of range for universe 90"

    def test_point_out_of_range_names_the_set(self):
        text = json.dumps(
            {"universe": 10, "sets": [{"name": "BIG", "points": [99]}]}
        )
        with pytest.raises(FamilyFormatError, match="99") as info:
            parse_family(text)
        assert "BIG" in str(info.value)

    def test_duplicate_set_name(self):
        text = json.dumps(
            {"universe": 3, "sets": [{"name": "X", "points": [0]}, {"name": "X", "points": [1]}]}
        )
        with pytest.raises(FamilyFormatError, match="duplicate"):
            parse_family(text)

    def test_base_extension_overlap(self):
        text = json.dumps(
            {"universe": 3, "base": [0, 1], "extension": [1, 2], "sets": []}
        )
        with pytest.raises(FamilyFormatError, match="overlap"):
            parse_family(text)

    def test_base_extension_must_partition(self):
        text = json.dumps({"universe": 3, "base": [0], "extension": [2], "sets": []})
        with pytest.raises(FamilyFormatError, match="partition"):
            parse_family(text)

    def test_incidence_bad_char_reports_position(self):
        with pytest.raises(FamilyFormatError) as info:
            parse_family("1 3\n1x0\n")
        assert info.value.line == 2
        assert info.value.column == 2

    def test_incidence_bad_header(self):
        with pytest.raises(FamilyFormatError):
            parse_family("two 3\n110\n")

    def test_incidence_row_count_mismatch(self):
        with pytest.raises(FamilyFormatError, match="expected 3"):
            parse_family("3 3\n110\n011\n")

    def test_incidence_row_length_mismatch(self):
        with pytest.raises(FamilyFormatError, match="3 characters"):
            parse_family("1 3\n11\n")

    def test_json_syntax_error_has_location(self):
        with pytest.raises(FamilyFormatError) as info:
            parse_family('{"universe": 3,,}')
        assert info.value.line is not None

    @pytest.mark.parametrize("obj, message", [
        ([], "top level must be an object"),
        ({"universe": "3", "sets": []}, "universe: 'universe' must be an integer point count"),
        ({"universe": -1, "sets": []}, "universe: 'universe' must be nonnegative"),
        ({"universe": 3, "extension": [0, "1"], "sets": []}, "extension: expected a list of point indices"),
        ({"universe": 3, "sets": {}}, "sets: 'sets' must be a list"),
        ({"universe": 3, "sets": [["A", [0]]]}, "sets[0]: set entry must be an object"),
        ({"universe": 3, "sets": [{"name": "A", "pts": [0]}]}, "sets[0]: unknown key 'pts'"),
        ({"universe": 3, "sets": [{"name": "", "points": [0]}]}, "sets[0]: set entry needs a nonempty 'name'"),
        ({"universe": 3, "sets": [], "generator": "intervals"}, "generator: 'generator' must be an object"),
    ])
    def test_malformed_structured_family_names_its_fault(self, obj, message):
        with pytest.raises(FamilyFormatError) as info:
            family_from_dict(obj)
        assert str(info.value) == message

    def test_unknown_key_rejected(self):
        with pytest.raises(FamilyFormatError, match="unknown key"):
            parse_family(json.dumps({"universe": 2, "sets": [], "extra": 1}))

    def test_external_target_must_be_extension(self):
        text = json.dumps(
            {"universe": 4, "extension": [3], "external_target": [0], "sets": []}
        )
        with pytest.raises(FamilyFormatError, match="extension"):
            parse_family(text)

    def test_empty_text(self):
        with pytest.raises(FamilyFormatError):
            parse_family("   \n ")


class TestSerialization:
    def test_round_trip_structured(self):
        fam = SetFamily.from_points(
            6,
            [("A", [0, 5]), ("B", [1])],
            extension=[4, 5],
            external_target=[5],
            provenance='{"kind":"manual","parameters":{},"seed":0}',
        )
        assert parse_family(serialize_family(fam)) == fam

    def test_round_trip_incidence(self):
        # Over no points every row is blank: "2 0\n\n\n".
        for fam in (parse_family("2 4\n1010\n0110\n"), SetFamily(0, ("S0", "S1"), (0, 0))):
            assert parse_family(serialize_family(fam, "incidence")) == fam

    def test_serialization_is_byte_stable(self):
        fam = two_sets()
        assert serialize_family(fam) == serialize_family(fam)

    def test_incidence_refuses_extension(self):
        fam = SetFamily.from_points(3, [("A", [0])], extension=[2])
        with pytest.raises(ValueError):
            serialize_family(fam, "incidence")

    @given(families())
    def test_round_trip_random(self, fam):
        assert parse_family(serialize_family(fam)) == fam

    @given(families(min_points=0), st.data())
    def test_structured_bytes_match_the_json_encoder(self, fam, data):
        # An empty universe, no sets, empty sets and empty point lists included.
        m = data.draw(st.sampled_from([0, fam.num_sets]))
        names = data.draw(st.lists(st.text(max_size=4).filter(bool), min_size=m, max_size=m, unique=True))
        ext = data.draw(st.integers(0, fam.universe_mask))
        target = data.draw(st.none() | st.integers(0, ext).map(lambda t: t & ext))
        value = st.recursive(
            st.integers() | st.text(max_size=3) | st.booleans() | st.none(),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        )
        generator = data.draw(st.none() | st.dictionaries(st.text(max_size=3), value, max_size=3))
        fam = SetFamily(fam.universe_size, tuple(names), fam.members[:m], ext, target,
                        None if generator is None else json.dumps(generator, sort_keys=True, separators=(",", ":")))
        assert serialize_family(fam) == json.dumps(family_to_dict(fam), indent=2, sort_keys=True) + "\n"


# JSON trees: dicts with string keys, lists and tuples, ints as large as
# 10**30, floats with NaN, the infinities and -0.0, and non-ASCII strings.
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.sampled_from([10**30, -0.0])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=4) | st.lists(st.text(max_size=3), max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


class TestJsonText:
    @given(JSON_TREES)
    @example({"é": [[], {}, (), ("☃", "\n"), (1, True)], "": [float("nan"), float("inf"), -float("inf"), -0.0]})
    def test_matches_the_indented_json_encoder(self, value):
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class TestInvariants:
    def test_duplicate_name_rejected_on_build(self):
        with pytest.raises(ValueError, match="duplicate"):
            SetFamily(2, ("A", "A"), (1, 2))

    def test_duplicate_names_found_in_one_pass(self):
        # 200,001 names, two of them listed twice: the message names the
        # smallest. Counting each name by a scan of all the names would take
        # minutes.
        names = (*(f"S{i}" for i in range(199_999)), "S7", "S10")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^duplicate set name 'S10'$"):
            SetFamily(1, names, (0,) * len(names))
        assert time.perf_counter() - start < 1

    def test_member_outside_universe_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SetFamily(2, ("A",), (0b100,))

    def test_target_outside_extension_rejected(self):
        with pytest.raises(ValueError):
            SetFamily(2, (), (), extension_mask=0b10, external_target=0b01)


class TestRecords:
    """SetFamily and AtomDecomposition keep what their dataclass forms gave:
    value equality, and for SetFamily immutability, hashing and pickling."""

    @staticmethod
    def marked():
        return SetFamily.from_points(
            4, [("A0", [0, 1]), ("A1", [1, 2])], extension=[3], external_target=[3], provenance='{"k":1}'
        )

    def test_set_family_rejects_assignment(self):
        fam = self.marked()
        for name in ("names", "members", "universe_size", "provenance", "not_a_field"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(fam, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(fam, name)
        assert fam == self.marked()

    def test_set_family_equal_and_hashable_by_value(self):
        fam = self.marked()
        twin = SetFamily(4, ("A0", "A1"), (0b0011, 0b0110), 0b1000, 0b1000, '{"k":1}')
        assert fam == twin and fam is not twin
        assert hash(fam) == hash(twin) and len({fam, twin}) == 1
        assert fam != SetFamily(4, ("A0", "A1"), (0b0011, 0b0110), 0b1000, None, '{"k":1}')
        assert fam != SetFamily(4, ("A0", "A1"), (0b0011, 0b0110), 0b1000, 0b1000)
        assert fam != (4, ("A0", "A1"), (0b0011, 0b0110), 0b1000, 0b1000, '{"k":1}')
        assert repr(SetFamily(1, ("A",), (1,))) == (
            "SetFamily(universe_size=1, names=('A',), members=(1,), extension_mask=0, "
            "external_target=None, provenance=None)"
        )

    def test_set_family_survives_copy_and_pickle(self):
        fam = self.marked()
        for clone in (copy.copy(fam), copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))):
            assert type(clone) is SetFamily and clone == fam
            assert (clone.extension_mask, clone.external_target, clone.provenance) == (0b1000, 0b1000, '{"k":1}')

    def test_set_family_checks_length_before_names(self):
        with pytest.raises(ValueError, match="equal length"):
            SetFamily(2, ("A", "A"), (1,))
        with pytest.raises(ValueError, match="nonnegative"):
            SetFamily(-1, ("A", "A"), (1,))

    def test_atom_decomposition_compares_by_value(self):
        fam = two_sets()
        atoms = boolean_atoms(fam, [0, 1])
        assert atoms == boolean_atoms(fam, [0, 1]) and atoms is not boolean_atoms(fam, [0, 1])
        assert atoms == AtomDecomposition((0, 1), {"00": 0b1000, "01": 0b0100, "10": 0b0001, "11": 0b0010})
        assert atoms != boolean_atoms(fam, [1, 0])
        assert atoms != boolean_atoms(fam, [0, 1], include_zero_cell=False)
        assert AtomDecomposition((0,)) == AtomDecomposition((0,), {}) and len(AtomDecomposition((0,))) == 0
        with pytest.raises(TypeError):
            hash(atoms)


def or_fold(points):
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


class TestMaskFromPoints:
    # Few points are OR-ed in one at a time, many written as digits.
    @pytest.mark.parametrize("min_size", [0, 65])
    @given(data=st.data())
    def test_matches_or_fold(self, min_size, data):
        universe = data.draw(st.integers(0 if min_size == 0 else 1, 300), label="universe")
        points = data.draw(st.lists(st.integers(0, universe - 1), min_size=min_size, max_size=200)
                           if universe else st.just([]))
        if points:
            points += data.draw(st.lists(st.sampled_from(points), max_size=80), label="repeats")
        assert mask_from_points(iter(points), universe) == or_fold(points)

    @pytest.mark.parametrize("min_size", [0, 65])
    @given(data=st.data())
    def test_names_the_first_point_out_of_range(self, min_size, data):
        universe = data.draw(st.integers(0 if min_size == 0 else 1, 300), label="universe")
        head = data.draw(st.lists(st.integers(0, universe - 1), min_size=min_size, max_size=100)) if universe else []
        first = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=universe)), label="first")
        points = [*head, first, *data.draw(st.lists(st.integers(-3, universe + 3), max_size=100))]
        with pytest.raises(ValueError, match=rf"^point {first} out of range for a universe of {universe} points$"):
            mask_from_points(points, universe)

    def test_empty_and_whole_universe(self):
        assert mask_from_points([], 0) == mask_from_points((), 5) == 0
        assert mask_from_points(range(100), 100) == (1 << 100) - 1
        with pytest.raises(ValueError, match="point 0 out of range for a universe of 0 points"):
            mask_from_points([0], 0)
        for bad in (100, -1):
            with pytest.raises(ValueError, match=f"^point {bad} out of range for a universe of 100 points$"):
                mask_from_points([*range(100), bad, 5], 100)


def bit_by_bit(mask):
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


class TestPointsFromMask:
    @given(st.integers(0, 1 << 600))
    @example(0)
    @example(1)
    @example((1 << 513) - 1)
    def test_matches_bit_by_bit(self, mask):
        assert points_from_mask(mask) == bit_by_bit(mask)

    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=120))))
    def test_round_trips_mask_from_points(self, case):
        universe, points = case
        mask = mask_from_points(points, universe)
        assert points_from_mask(mask) == tuple(sorted(set(points))) == bit_by_bit(mask)


class TestTranspose:
    @given(st.integers(0, 70).flatmap(
        lambda width: st.tuples(st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=8))))
    @example((0, [0, 0]))
    @example((5, []))
    def test_matches_bit_by_bit(self, case):
        width, rows = case
        # Column p's numeral: its bit i, counted from the right, is bit p of rows[i].
        expect = ["".join(str(row >> p & 1) for row in reversed(rows)) for p in range(width)] if rows else []
        assert list(transpose(rows, width)) == expect


class TestPointTraces:
    @given(families(min_points=0), st.data())
    def test_matches_point_signature(self, fam, data):
        sub = data.draw(st.permutations(range(fam.num_sets)))[: data.draw(st.integers(0, fam.num_sets))]
        assert point_traces(fam, sub) == [point_signature(fam, sub, p) for p in range(fam.universe_size)]

    def test_no_points_give_no_traces(self):
        assert point_traces(SetFamily(0, ("A", "B"), (0, 0)), [0, 1]) == []
        assert point_traces(SetFamily(0, (), ()), []) == []

    def test_empty_subfamily_gives_every_point_the_empty_trace(self):
        assert point_traces(two_sets(), []) == [""] * 4


class TestUniverseCap:
    # One point more than MAX_UNIVERSE: a 256 KB mask, refused before it is built.
    TOO_LARGE = MAX_UNIVERSE + 1

    def test_incidence_header(self):
        with pytest.raises(FamilyFormatError) as info:
            parse_family(f"\n0 {self.TOO_LARGE}\n")
        assert str(info.value) == f"line 2: universe of {self.TOO_LARGE} points exceeds the largest, {MAX_UNIVERSE}"

    def test_structured_universe(self):
        with pytest.raises(FamilyFormatError) as info:
            parse_family(json.dumps({"universe": self.TOO_LARGE, "sets": []}))
        assert str(info.value) == f"universe: universe of {self.TOO_LARGE} points exceeds the largest, {MAX_UNIVERSE}"

    def test_set_family(self):
        with pytest.raises(ValueError, match=f"^universe_size must be at most {MAX_UNIVERSE}, got {self.TOO_LARGE}$"):
            SetFamily(self.TOO_LARGE, (), ())

    def test_largest_universe_accepted(self):
        fam = parse_family(f"1 {MAX_UNIVERSE}\n" + "0" * (MAX_UNIVERSE - 1) + "1\n")
        assert fam.universe_size == MAX_UNIVERSE and fam.set_points(0) == (MAX_UNIVERSE - 1,)


class TestCheckAtoms:
    @given(families(), st.data())
    def test_listing_reverifies_and_a_flipped_signature_fails(self, fam, data):
        # The empty subfamily included: every point then has the trace "".
        order = data.draw(st.permutations(range(fam.num_sets)))
        sub = order[: data.draw(st.integers(0, fam.num_sets))]
        for zero in (True, False):
            listing = [(sig, points_from_mask(mask))
                       for sig, mask in boolean_atoms(fam, sub, include_zero_cell=zero).cells.items()]
            assert check_atoms(fam, sub, listing, zero, len(listing)).ok
            if listing and sub:
                sig, points = listing[-1]
                flipped = ("1" if sig[0] == "0" else "0") + sig[1:]
                check = check_atoms(fam, sub, [*listing[:-1], (flipped, points)], zero, len(listing))
                assert check.detail == f"point {points[0]} does not match signature {flipped}"


class TestPointSignature:
    def test_in_both(self):
        assert point_signature(two_sets(), [0, 1], 1) == "11"

    def test_in_neither(self):
        assert point_signature(two_sets(), [0, 1], 3) == "00"

    def test_in_first_only(self):
        assert point_signature(two_sets(), [0, 1], 0) == "10"

    def test_respects_subfamily_order(self):
        assert point_signature(two_sets(), [1, 0], 0) == "01"

    def test_invalid_point(self):
        with pytest.raises(ValueError):
            point_signature(two_sets(), [0], 9)

    def test_invalid_set_index(self):
        with pytest.raises(ValueError):
            point_signature(two_sets(), [5], 0)


class TestBooleanAtoms:
    def test_four_atoms_with_zero_cell(self):
        decomposition = boolean_atoms(two_sets(), [0, 1], include_zero_cell=True)
        assert len(decomposition) == 4
        assert decomposition.cell_points("10") == (0,)
        assert decomposition.cell_points("11") == (1,)
        assert decomposition.cell_points("01") == (2,)
        assert decomposition.cell_points("00") == (3,)

    def test_drop_zero_cell(self):
        decomposition = boolean_atoms(two_sets(), [0, 1], include_zero_cell=False)
        assert len(decomposition) == 3
        assert "00" not in decomposition.cells

    def test_empty_subfamily_whole_universe(self):
        fam = SetFamily.from_points(2, [("A", [0])])
        decomposition = boolean_atoms(fam, [])
        assert len(decomposition) == 1
        assert decomposition.cell_points("") == (0, 1)

    def test_duplicate_subfamily_index_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            boolean_atoms(two_sets(), [0, 0])

    @given(families(), st.data())
    def test_cells_partition_universe(self, fam, data):
        size = data.draw(st.integers(0, fam.num_sets))
        sub = data.draw(
            st.permutations(range(fam.num_sets)).map(lambda p: tuple(p[:size]))
        )
        decomposition = boolean_atoms(fam, sub)
        union = 0
        for sig, mask in decomposition.cells.items():
            assert mask != 0
            assert union & mask == 0
            union |= mask
            assert len(sig) == len(sub)
        assert union == fam.universe_mask
        assert len(decomposition) <= min(2 ** len(sub), fam.universe_size)

    @given(families(), st.data())
    def test_signatures_agree_with_point_signature(self, fam, data):
        size = data.draw(st.integers(0, fam.num_sets))
        sub = tuple(range(size))
        decomposition = boolean_atoms(fam, sub)
        for sig, mask in decomposition.cells.items():
            for p in points_from_mask(mask):
                assert point_signature(fam, sub, p) == sig


@pytest.fixture
def row_reads(monkeypatch):
    """The sets the atom kernel formats as rows, for ``cells`` or
    ``boolean_atoms``, which it does only once it stops splitting."""
    reads = []

    def spy(value, spec):
        reads.append(value)
        return format(value, spec)

    monkeypatch.setattr(family_module, "format", spy, raising=False)
    return reads


class TestColumns:
    """The atom kernel ``cells``: each point's membership column over the
    subfamily, as a signature, in both regimes; and ``columns``, the distinct
    columns over every set by lowest point."""

    @given(families(min_points=0))
    @example(SetFamily(3, ("A", "B"), (0b011, 0b011)))
    def test_columns_match_a_per_point_loop(self, fam):
        assert columns(fam) == columns_oracle(fam)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("count, reads_rows", [(60, True), (4, False)])
    def test_columns_in_both_regimes(self, row_reads, seed, count, reads_rows):
        # 60 sets on 400 points make the kernel read the rows; 4 sets make at
        # most 8 cells with one set left, so it keeps splitting.
        fam = gen_random(count, 400, 0.3, seed)
        assert columns(fam) == columns_oracle(fam)
        assert bool(row_reads) == reads_rows

    @pytest.mark.parametrize("fam, expect", [
        (SetFamily(0, ("A", "B"), (0, 0)), []),
        (SetFamily(0, (), ()), []),
        (SetFamily(5, (), ()), [(0, "")]),
        # Points 1 and 3 are in no set: one zero column, kept at point 1.
        (SetFamily.from_points(4, [("A", [0, 2]), ("B", [2])]), [(0, "10"), (1, "00"), (2, "11")]),
    ])
    def test_columns_of_empty_universes_and_families(self, fam, expect):
        assert columns(fam) == columns_oracle(fam) == expect

    @given(families(min_points=0), st.lists(st.integers(0, 5), unique=True, max_size=6))
    @example(SetFamily(0, ("A",), (0,)), [0])
    @example(two_sets(), [])
    @example(SetFamily(4, ("A", "B", "E"), (0b0011, 0b0011, 0)), [2, 0, 1])
    def test_cells_carry_each_points_column(self, fam, order):
        sub = [i for i in order if i < fam.num_sets]
        union = 0
        for sig, mask in cells(fam, sub).items():
            assert mask != 0
            assert union & mask == 0
            union |= mask
            for p in points_from_mask(mask):
                assert sig == "".join("1" if fam.members[i] >> p & 1 else "0" for i in sub)
        assert union == fam.universe_mask
        assert _candidate_points(fam) == candidate_points_oracle(fam)

    @given(families(min_points=0), st.lists(st.integers(0, 5), unique=True, max_size=6))
    @example(SetFamily(2, ("A", "B", "C"), (1, 1, 1)), [0, 1, 2])
    def test_both_regimes_give_ascending_order(self, fam, order):
        sub = [i for i in order if i < fam.num_sets]
        assert list(cells(fam, sub).items()) == cells_oracle(fam, sub)
        for zero in (True, False):
            assert list(boolean_atoms(fam, sub, include_zero_cell=zero).cells.items()) == [
                (sig, mask) for sig, mask in cells_oracle(fam, sub) if zero or "1" in sig
            ]

    @given(families(min_points=0), st.lists(st.integers(0, 5), unique=True, max_size=6), st.data())
    def test_split_step_keeps_ascending_order(self, fam, order, data):
        sub = [i for i in order if i < fam.num_sets]
        mem = data.draw(st.integers(0, fam.universe_mask))
        parts = cells_oracle(fam, sub)
        split = split_cells(parts, mem)
        assert [sig for sig, _ in split] == sorted(sig for sig, _ in split)
        assert split == cells_oracle(SetFamily(fam.universe_size, (*fam.names, "T"), (*fam.members, mem)),
                                     [*sub, fam.num_sets])

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("order", [list(range(60)), [*range(1, 60, 2), *range(0, 60, 2)]])
    def test_wide_subfamily_reads_set_rows(self, row_reads, seed, order):
        fam = gen_random(60, 400, 0.3, seed)
        assert list(cells(fam, order).items()) == cells_oracle(fam, order)
        assert sorted(row_reads) == sorted(fam.members)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_narrow_subfamily_keeps_splitting(self, row_reads, seed):
        fam = gen_random(60, 400, 0.3, seed)
        for j in range(0, 57, 4):
            sub = [j + 3, j + 1, j + 2, j]
            # Split cells come in ascending signature order.
            assert list(cells(fam, sub).items()) == cells_oracle(fam, sub)
        assert row_reads == []

    @pytest.mark.parametrize("sets, switches", [
        # 1 cell * 2 sets and then 2 cells * 1 set, both equal to 2 points.
        ([[0], [1]], False),
        # 1 cell * 3 sets exceeds 2 points at once; point 1 is in no set.
        ([[0], [0], [0]], True),
    ])
    def test_regime_boundary_on_two_points(self, row_reads, sets, switches):
        fam = SetFamily.from_points(2, [(f"S{i}", pts) for i, pts in enumerate(sets)])
        sub = list(range(len(sets)))
        assert list(cells(fam, sub).items()) == cells_oracle(fam, sub)
        assert bool(row_reads) == switches

    @pytest.mark.parametrize("second, switches", [
        # 2 cells * 3 sets and then 3 cells * 2 sets, both equal to 6 points.
        ([0], False),
        # 4 cells * 2 sets after the second set exceed 6 points.
        ([0, 3], True),
    ])
    def test_regime_boundary_midway(self, row_reads, second, switches):
        sets = [[0, 1, 2], second, [3], [5]]  # point 4 is in no set
        fam = SetFamily.from_points(6, [(f"S{i}", pts) for i, pts in enumerate(sets)])
        for sub in ([0, 1, 2, 3], [0, 1, 3, 2]):
            assert list(cells(fam, sub).items()) == cells_oracle(fam, sub)
        assert bool(row_reads) == switches

    def test_universe_zero_and_empty_subfamily(self, row_reads):
        assert cells(SetFamily(0, ("A", "B"), (0, 0)), [1, 0]) == {}
        assert cells(SetFamily(0, (), ()), []) == {}
        fam = gen_random(60, 400, 0.3, 0)
        assert cells(fam, []) == {"": fam.universe_mask}
        assert row_reads == []

    @pytest.mark.parametrize("density, has_zero_cell", [(0.02, True), (0.5, False)])
    def test_boolean_atoms_drop_the_zero_cell_off_the_rows(self, row_reads, density, has_zero_cell):
        # 30 sets on 300 points: the kernel reads the rows. At density 0.5 the
        # sets cover the universe, so there is no zero cell to drop.
        fam = gen_random(30, 300, density, 3)
        sub = list(range(30))
        expect: dict[str, int] = {}
        for p in range(fam.universe_size):
            sig = point_signature(fam, sub, p)
            expect[sig] = expect.get(sig, 0) | 1 << p
        assert ("0" * 30 in expect) == has_zero_cell
        for zero in (True, False):
            atoms = boolean_atoms(fam, sub, include_zero_cell=zero).cells
            assert list(atoms.items()) == sorted(
                (sig, mask) for sig, mask in expect.items() if zero or "1" in sig
            )
        assert sorted(row_reads) == sorted(2 * fam.members)

    def test_boolean_atoms_on_a_permuted_full_order(self, row_reads):
        fam = gen_random(60, 400, 0.3, 2)
        order = list(range(60))
        SplitMix64(5).shuffle(order)
        expect: dict[str, int] = {}
        for p in range(fam.universe_size):
            sig = point_signature(fam, order, p)
            expect[sig] = expect.get(sig, 0) | 1 << p
        for zero in (True, False):
            atoms = boolean_atoms(fam, order, include_zero_cell=zero).cells
            assert list(atoms.items()) == sorted(
                (sig, mask) for sig, mask in expect.items() if zero or "1" in sig
            )
        # Both calls read the signatures off the rows.
        assert sorted(row_reads) == sorted(2 * fam.members)


def test_extension_outside_the_universe_is_refused():
    with pytest.raises(ValueError, match="^extension points lie outside the universe$"):
        SetFamily(3, ("A",), (0b1,), extension_mask=0b1000)


def test_unknown_serialization_format_is_refused():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        serialize_family(SetFamily.from_points(2, [("A", [0])]), "xml")


def test_len_counts_the_sets():
    assert len(SetFamily.from_points(3, [("A", [0]), ("B", []), ("C", [1, 2])])) == 3
