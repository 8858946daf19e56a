"""Shared brute-force oracles and instance builders for the test suite.

Every oracle here recomputes its answer by straight enumeration, independent
of the package's search/pruning code paths, so tests compare two genuinely
different routes to the same number.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from setfam import SetFamily
from setfam.rng import SplitMix64


def brute_pi_star(family: SetFamily, n: int) -> int:
    """Max number of distinct point signatures over all n-subfamilies."""
    best = 0
    for combo in itertools.combinations(range(family.num_sets), n):
        sigs = {
            tuple(family.members[i] >> p & 1 for i in combo)
            for p in range(family.universe_size)
        }
        best = max(best, len(sigs))
    return best


def brute_max_disjoint(family: SetFamily) -> int:
    """Max pairwise-disjoint subfamily size by exhaustive subset search."""
    m = family.num_sets
    best = 0
    for size in range(m, 0, -1):
        for combo in itertools.combinations(range(m), size):
            if all(
                family.members[i] & family.members[j] == 0
                for i, j in itertools.combinations(combo, 2)
            ):
                return size
    return best


def brute_min_piercing(family: SetFamily) -> int:
    """Smallest number of points meeting every set, by point-subset search."""
    pts = range(family.universe_size)
    for size in range(0, family.universe_size + 1):
        for combo in itertools.combinations(pts, size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if all(mem & mask for mem in family.members):
                return size
    raise AssertionError("family contains an empty set")


def brute_min_consistent_partition(family: SetFamily) -> int:
    """Minimum class count over all set partitions with consistent classes.

    Walks restricted-growth partitions directly, extending a class only while
    its running intersection stays nonempty.
    """
    m = family.num_sets
    members = family.members
    best = m  # one class per set is always consistent for nonempty sets

    def grow(i: int, classes: list[int]) -> None:
        nonlocal best
        if len(classes) >= best:
            return
        if i == m:
            best = len(classes)
            return
        mem = members[i]
        for k in range(len(classes)):
            joined = classes[k] & mem
            if joined:
                saved = classes[k]
                classes[k] = joined
                grow(i + 1, classes)
                classes[k] = saved
        classes.append(mem)
        grow(i + 1, classes)
        classes.pop()

    grow(0, [])
    return best


def random_family(
    rng: SplitMix64,
    max_sets: int = 8,
    max_points: int = 12,
    nonempty: bool = False,
) -> SetFamily:
    """Small uniform-random family driven by the portable stream."""
    n = 1 + rng.below(max_points)
    m = 1 + rng.below(max_sets)
    members = []
    for _ in range(m):
        mask = rng.below(1 << n)
        if nonempty and mask == 0:
            mask = 1 << rng.below(n)
        members.append(mask)
    return SetFamily(n, tuple(f"S{i}" for i in range(m)), tuple(members))


def candidate_points_oracle(family: SetFamily) -> list[tuple[int, int]]:
    """(point, column) for the lowest point of each distinct nonzero
    membership column, by a per-point loop over every set."""
    first: dict[int, int] = {}
    for pt in range(family.universe_size):
        col = 0
        for i, mem in enumerate(family.members):
            if mem >> pt & 1:
                col |= 1 << i
        if col and col not in first:
            first[col] = pt
    return sorted((pt, col) for col, pt in first.items())


@st.composite
def families(
    draw, max_sets: int = 6, max_points: int = 10, nonempty: bool = False, min_points: int = 1
):
    n = draw(st.integers(min_points, max_points))
    m = draw(st.integers(1, max_sets))
    low = 1 if nonempty else 0
    members = tuple(draw(st.integers(low, (1 << n) - 1)) for _ in range(m))
    return SetFamily(n, tuple(f"S{i}" for i in range(m)), members)
