"""Portable 64-bit pseudorandom generator.

All generators in this package draw from the standard splitmix64 sequence:
the state advances by the 64-bit golden-gamma constant and each output is
mixed with two xor-multiply rounds. Everything is integer arithmetic, so a
given seed produces the identical stream on every platform and language,
which is what keeps generated instances byte-stable across runs.

A row of coin flips can also be drawn at once (``chance_row``). Draw i of a
row mixes the state plus (i+1) gammas, so a block of draws is mixed together
in one integer with a 128-bit lane per draw: each 64x64-bit product fits in
its lane, and the bits a right shift pulls in from the next lane are masked
off. The row is bit for bit what the same number of ``chance`` calls return.
``shuffle`` mixes its draws in the same blocks and reads them as 64-bit
words, so the per-item work left is the modulus and the swap.
"""

from __future__ import annotations

import sys
from operator import mod

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# A row is mixed this many draws at a time, so each integer in flight holds
# at most 4,096 lanes of 16 bytes (64 KiB) however long the row is.
ROW_BLOCK = 4096

# A shuffle mixes at most this many outputs at a time. Each call computes
# its own lanes, in time that grows with the width, so narrower blocks pay
# off: the label shuffles of gen_witness_rich at depth 13 took 6.2 ms in
# blocks of 4,096 and 4.4 ms in blocks of 512 (Python 3.11.7, x86-64).
SHUFFLE_BLOCK = 512

# The byte of lane i that holds its coin is 0 or 1; as a binary digit.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# A block's lanes written in native byte order, read as 64-bit words: the
# output of each lane, in lane order, is every other word from the first
# (little-endian) or, backwards, from the last (big-endian).
_ORDER = sys.byteorder
_LOW_WORDS = slice(None, None, 2) if _ORDER == "little" else slice(None, None, -2)


def row_lanes(longest: int) -> tuple[int, int, int, int]:
    """The lane constants for rows of up to ``longest`` draws, to compute once
    and pass to every ``chance_row`` call of a family: the block width (at
    most ROW_BLOCK), and integers holding in lane i a one, 2**64 - 1, and
    (i+1) gammas modulo 2**64."""
    width = min(max(longest, 1), ROW_BLOCK)
    # Both are built by doubling: n lanes are copied n lanes up, and the ramp
    # copy holds n more in each lane, until there are at least width lanes.
    ones = ramp = n = 1
    while n < width:
        ramp |= (ramp + n * ones) << 128 * n
        ones |= ones << 128 * n
        n *= 2
    ones &= (1 << 128 * width) - 1
    low = ones * _MASK64
    return width, ones, low, ramp * _GAMMA & low


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection so the draw is unbiased."""
        if bound <= 0:
            raise ValueError("below() needs a positive bound")
        if bound > 1 << 64:
            raise ValueError(f"below() draws 64 bits, so the bound must be at most 2**64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def chance(self, threshold: int) -> bool:
        """One coin flip: true with probability threshold / 2**64."""
        return self.next_u64() < threshold

    def _block(self, size: int, lanes: tuple[int, int, int, int]) -> tuple[int, int]:
        """The next ``size`` outputs, at most the lanes' width, mixed at once:
        the lane ones cut to ``size`` lanes, and an integer whose lane i
        holds output i. The stream advances past them."""
        width, ones, low, steps = lanes
        if size < width:
            cut = (1 << 128 * size) - 1
            ones, low, steps = ones & cut, low & cut, steps & cut
        z = (self._state * ones + steps) & low
        z = ((z ^ z >> 30) & low) * _MIX1 & low
        z = ((z ^ z >> 27) & low) * _MIX2 & low
        self._state = (self._state + size * _GAMMA) & _MASK64
        return ones, (z ^ z >> 31) & low

    def chance_row(
        self, count: int, threshold: int, lanes: tuple[int, int, int, int] | None = None
    ) -> int:
        """``count`` coin flips as a mask whose bit i is the i-th of ``count``
        ``chance(threshold)`` calls; the stream ends where those calls leave
        it. ``lanes`` come from ``row_lanes`` for at least ``count`` draws or
        ROW_BLOCK; by default they are computed for this row alone.

        Lane i of ``(threshold - 1 + 2**64) - z`` lies in [0, 2**65), so it
        borrows nothing from its neighbours, and its bit 64 is set exactly
        when output z < threshold."""
        lanes = lanes or row_lanes(count)
        bar = min(max(threshold, 0), 1 << 64) + _MASK64
        coins = []
        for start in range(0, count, lanes[0]):
            size = min(lanes[0], count - start)
            ones, z = self._block(size, lanes)
            z = bar * ones - z
            coins.append(z.to_bytes(16 * size, "little")[8::16].translate(_DIGITS)[::-1])
        return int(b"".join(reversed(coins)) or b"0", 2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream: item i swaps
        with item ``below(i + 1)``, for i from the last down to 1.

        The outputs are mixed in blocks as ``chance_row`` mixes them, one per
        item still to place, at most SHUFFLE_BLOCK, and each is read as the
        next draw of ``below``, with its rejection rule. A rejected output
        ends its block: the stream is set back to just after it, and the
        next block draws again for the same bound. So the stream ends where
        the ``below`` calls leave it."""
        top = 1 << 64
        i = len(items) - 1
        lanes = row_lanes(min(i, SHUFFLE_BLOCK))
        while i > 0:
            size, start = min(i, lanes[0]), self._state
            z = self._block(size, lanes)[1]
            draws = memoryview(z.to_bytes(16 * size, _ORDER)).cast("Q")[_LOW_WORDS].tolist()
            take = size
            # Output t draws for bound i + 1 - t; only one above 2**64 - i can
            # lie in below's rejected tail [2**64 - 2**64 % bound, 2**64).
            if max(draws) >= top - i:
                take = next((t for t, u in enumerate(draws) if u >= top - top % (i + 1 - t)), size)
                if take < size:  # output take is rejected; the next block draws again after it
                    self._state = (start + (take + 1) * _GAMMA) & _MASK64
            for k, j in zip(range(i, i - take, -1), map(mod, draws, range(i + 1, i + 1 - take, -1))):
                items[k], items[j] = items[j], items[k]
            i -= take
