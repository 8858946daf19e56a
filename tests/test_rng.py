import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from setfam.rng import ROW_BLOCK, SplitMix64, row_lanes

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

