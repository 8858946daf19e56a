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
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# A row is mixed this many draws at a time, so each integer in flight holds
# at most 4,096 lanes of 16 bytes (64 KiB) however long the row is.
ROW_BLOCK = 4096

# The byte of lane i that holds its coin is 0 or 1; as a binary digit.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def row_lanes(longest: int) -> tuple[int, int, int, int]:
    """The lane constants for rows of up to ``longest`` draws, to compute once
    and pass to every ``chance_row`` call of a family: the block width (at
    most ROW_BLOCK), and integers holding in lane i a one, 2**64 - 1, and
    (i+1) gammas modulo 2**64."""
    width = min(max(longest, 1), ROW_BLOCK)
    ones = int.from_bytes((b"\x01" + bytes(15)) * width, "little")
    low = ones * _MASK64
    ramp = int.from_bytes(b"".join([i.to_bytes(16, "little") for i in range(1, width + 1)]), "little")
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
        width, ones, low, steps = lanes or row_lanes(count)
        bar = min(max(threshold, 0), 1 << 64) + _MASK64
        state = self._state
        coins = []
        for start in range(0, count, width):
            size = min(width, count - start)
            if size < width:
                cut = (1 << 128 * size) - 1
                ones, low, steps = ones & cut, low & cut, steps & cut
            z = (state * ones + steps) & low
            z = ((z ^ z >> 30) & low) * _MIX1 & low
            z = ((z ^ z >> 27) & low) * _MIX2 & low
            z = bar * ones - ((z ^ z >> 31) & low)
            coins.append(z.to_bytes(16 * size, "little")[8::16].translate(_DIGITS)[::-1])
            state = (state + size * _GAMMA) & _MASK64
        self._state = state
        return int(b"".join(reversed(coins)) or b"0", 2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream: item i swaps
        with item ``below(i + 1)``, for i from the last down to 1. The state
        step, the mix, the rejection test and the modulus of ``below`` are
        inlined, so the draws are the same."""
        state = self._state
        mask, gamma, mix1, mix2, top = _MASK64, _GAMMA, _MIX1, _MIX2, 1 << 64
        for i in range(len(items) - 1, 0, -1):
            bound = i + 1
            limit = top - top % bound
            while True:
                state = (state + gamma) & mask
                z = ((state ^ state >> 30) * mix1) & mask
                z = ((z ^ z >> 27) * mix2) & mask
                z ^= z >> 31
                if z < limit:
                    break
            j = z % bound
            items[i], items[j] = items[j], items[i]
        self._state = state
