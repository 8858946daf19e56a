"""Host speed, sampled by a fixed reference task between operations.

The speed of the shared host this benchmark was written on drifts by up to
2x within a minute, and by more over an hour, and it moves every timing in
a run together. So the run times a fixed reference task (the benchmark's
own code on its own input, never the program's) every EVERY_S seconds
between operations, and states each time at the reference speed:

    seconds at reference speed = measured seconds * REFERENCE_S / local reference time

where the local reference time is the mean of the reference samples taken
within WINDOW_S seconds of the timed interval: the host's average speed
around it. A set-up is instead scaled by the two samples taken right before
and right after it, so that the speed of the passes around it does not
count. A program that gets twice as fast reads half the time; a host that
gets twice as slow leaves it as it is. README.md gives the measurements
behind this.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# Time of one reference task at the reference speed: about its median on a
# 2-core host when the benchmark was written. It only sets the scale.
REFERENCE_S = 0.006

# Least time between two reference samples, and how far from a timed
# interval a sample may lie to count towards its local reference time.
EVERY_S = 0.1
WINDOW_S = 2.0

_UNIVERSE, _SETS = 1500, 24


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Pace:
    def __init__(self) -> None:
        rng = random.Random(20240517)
        self._masks = [rng.getrandbits(_UNIVERSE) & rng.getrandbits(_UNIVERSE) for _ in range(_SETS)]
        self._times: list[float] = []  # midpoints, ascending
        self._took: list[float] = []

    def _task(self) -> int:
        # Big-integer bit work, list and dict building and short strings, as
        # in the program's own kernels: group points by membership trace.
        cols = [0] * _UNIVERSE
        for i, mask in enumerate(self._masks):
            for p in _bits(mask):
                cols[p] |= 1 << i
        groups: dict[int, int] = {}
        for p, col in enumerate(cols):
            groups[col] = groups.get(col, 0) | 1 << p
        cells = {"".join("1" if key >> i & 1 else "0" for i in range(_SETS)): cell for key, cell in groups.items()}
        return len(cells)

    def sample(self) -> None:
        # With the collector off, the program's collector settings cannot
        # change the reference time.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._task()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self._times.append((t0 + t1) / 2)
        self._took.append(t1 - t0)

    def tick(self) -> None:
        """Sample unless the last sample is more recent than EVERY_S."""
        if not self._times or time.perf_counter() - self._times[-1] >= EVERY_S:
            self.sample()

    def local(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """Mean reference time within window seconds of [start, end]; at
        least the nearest sample on each side of it counts."""
        lo = bisect.bisect_left(self._times, start - window)
        hi = bisect.bisect_right(self._times, end + window)
        lo = min(lo, max(bisect.bisect_left(self._times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self._times, end) + 1, len(self._times)))
        return statistics.fmean(self._took[lo:hi])

    def scale(self, seconds: float, start: float, end: float, window: float = WINDOW_S) -> float:
        """Seconds measured over [start, end], stated at the reference speed."""
        return seconds * REFERENCE_S / self.local(start, end, window)

    def median(self) -> float:
        return statistics.median(self._took)
