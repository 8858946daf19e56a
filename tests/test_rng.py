import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from setfam.rng import _GAMMA, _MIX1, _MIX2, ROW_BLOCK, SHUFFLE_BLOCK, SplitMix64, row_lanes

EDGE_COUNTS = (0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK, 3 * ROW_BLOCK + 1)
EDGE_THRESHOLDS = (0, 1, 2**63, 2**64 - 1, 2**64)

counts = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 3 * ROW_BLOCK + 1))
thresholds = st.one_of(
    st.sampled_from(EDGE_THRESHOLDS), st.integers(0, 2**64), st.sampled_from((-1, -(2**70), 2**64 + 5, 2**70))
)


def test_published_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_below_takes_bounds_up_to_two_to_the_64():
    assert SplitMix64(5).below(2**64) == SplitMix64(5).next_u64()
    for bound in (2**64 + 1, 2**70):
        with pytest.raises(ValueError, match=f"at most 2\\*\\*64, got {bound}$"):
            SplitMix64(5).below(bound)


def _chances(rng: SplitMix64, count: int, threshold: int) -> int:
    return sum(1 << i for i in range(count) if rng.chance(threshold))


@given(st.integers(0, 2**64 - 1), counts, counts, thresholds, st.booleans())
@example(0, ROW_BLOCK - 1, ROW_BLOCK + 1, 2**64 - 1, True)
@example(7, ROW_BLOCK, 0, 2**64, False)
@example(2**64 - 1, 3 * ROW_BLOCK + 1, 1, 1, True)
@example(0, 2, 0, 0x6E789E6AA1B965F5, False)  # output 1 is threshold - 1
def test_rows_match_single_draws(seed, first, second, threshold, shared):
    # Two rows in a row, with lanes computed per row or once for both.
    lanes = row_lanes(max(first, second)) if shared else None
    batched, single = SplitMix64(seed), SplitMix64(seed)
    for count in (first, second):
        assert batched.chance_row(count, threshold, lanes) == _chances(single, count, threshold)
    assert batched.next_u64() == single.next_u64()


@pytest.mark.parametrize("longest", (0, 1, 2, 3, 5, 511, 512, 513, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1))
def test_row_lanes_hold_their_constants_lane_by_lane(longest):
    width, ones, low, steps = row_lanes(longest)
    assert width == min(max(longest, 1), ROW_BLOCK)
    lane = 2**128 - 1
    lanes = [(ones >> 128 * i & lane, low >> 128 * i & lane, steps >> 128 * i & lane) for i in range(width)]
    assert lanes == [(1, 2**64 - 1, (i + 1) * _GAMMA % 2**64) for i in range(width)]
    assert max(ones, low, steps) < 1 << 128 * width


def _seed_before(output: int, draw: int = 0) -> int:
    """The seed whose output ``draw`` (from 0) is ``output``: each step of the
    mix is a bijection on 64-bit words, undone here in reverse, and the
    state before draw k is the seed plus k gammas."""
    z = output ^ output >> 31 ^ output >> 62
    z = z * pow(_MIX2, -1, 2**64) % 2**64
    z ^= z >> 27 ^ z >> 54
    z = z * pow(_MIX1, -1, 2**64) % 2**64
    z ^= z >> 30 ^ z >> 60
    return (z - (draw + 1) * _GAMMA) % 2**64


def test_seed_before_gives_the_largest_output():
    for draw in (0, 1, SHUFFLE_BLOCK, 3 * SHUFFLE_BLOCK + 7):
        rng = SplitMix64(_seed_before(2**64 - 1, draw))
        assert [rng.next_u64() for _ in range(draw + 1)][draw] == 2**64 - 1


def _fisher_yates(rng: SplitMix64, items: list) -> None:
    """One draw at a time, as ``below`` draws: item i swaps with item
    u % (i + 1), u the first output below 2**64 - 2**64 % (i + 1)."""
    for i in range(len(items) - 1, 0, -1):
        u = rng.next_u64()
        while u >= 2**64 - 2**64 % (i + 1):
            u = rng.next_u64()
        j = u % (i + 1)
        items[i], items[j] = items[j], items[i]


def _check_shuffle(seed: int, length: int) -> None:
    shuffled, reference = list(range(length)), list(range(length))
    blocked, single = SplitMix64(seed), SplitMix64(seed)
    blocked.shuffle(shuffled)
    _fisher_yates(single, reference)
    assert shuffled == reference
    assert blocked.next_u64() == single.next_u64()


lengths = st.one_of(st.integers(0, 40), st.integers(0, 3 * SHUFFLE_BLOCK + 2))


@given(st.integers(0, 2**64 - 1), lengths)
def test_shuffle_matches_one_below_per_item(seed, length):
    _check_shuffle(seed, length)


@given(lengths, st.integers(0, 3 * SHUFFLE_BLOCK))
@example(3, 0)  # draw 0 is for bound 3, which rejects 2**64 - 1
@example(2, 0)  # bound 2 divides 2**64, so it takes 2**64 - 1
@example(SHUFFLE_BLOCK + 2, SHUFFLE_BLOCK - 1)  # the last output of the first block, bound 3
@example(SHUFFLE_BLOCK + 5, SHUFFLE_BLOCK)  # the first output of the second block, bound 5
@example(3 * SHUFFLE_BLOCK + 2, 700)
def test_shuffle_draws_again_after_the_largest_output(length, draw):
    # Output ``draw`` (taken below the number of draws) is 2**64 - 1, drawn
    # for bound length - draw, which rejects it unless that is a power of two.
    _check_shuffle(_seed_before(2**64 - 1, draw % max(length - 1, 1)), length)


def test_below_needs_a_positive_bound():
    with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
        SplitMix64(0).below(0)
