"""Shared brute-force oracles and instance builders for the test suite.

Every oracle here recomputes its answer by straight enumeration, independent
of the package's search/pruning code paths, so tests compare two genuinely
different routes to the same number. ``plain_transversal_exact`` is the one
reference search: the piercing branch and bound without its skip rules, to
show that they change no cover.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from hypothesis import strategies as st

from setfam import SetFamily
from setfam.errors import DEFAULT_BUDGET, BudgetExceededError, pops
from setfam.piercing import PiercingSolution, _candidate_points, _canonical, _greedy
from setfam.pq import greedy_packing, max_disjoint
from setfam.rng import SplitMix64


def brute_first_shatter(family: SetFamily, n: int) -> tuple[int, tuple[int, ...]]:
    """Max number of distinct point signatures over all n-subfamilies, and the
    first n-subfamily in ``combinations`` order that reaches it (a later one
    replaces it only by a strictly larger count)."""
    best, witness = -1, ()
    for combo in itertools.combinations(range(family.num_sets), n):
        sigs = {
            tuple(family.members[i] >> p & 1 for i in combo)
            for p in range(family.universe_size)
        }
        if len(sigs) > best:
            best, witness = len(sigs), combo
    return best, witness


def brute_pi_star(family: SetFamily, n: int) -> int:
    """Max number of distinct point signatures over all n-subfamilies."""
    return brute_first_shatter(family, n)[0]


def brute_first_packing(family: SetFamily, size: int) -> tuple[int, ...] | None:
    """The lexicographically smallest sorted tuple of ``size`` pairwise-disjoint
    sets, or None; combinations come in lexicographic order, so it is the
    first found."""
    for combo in itertools.combinations(range(family.num_sets), size):
        if all(
            family.members[i] & family.members[j] == 0
            for i, j in itertools.combinations(combo, 2)
        ):
            return combo
    return None


def brute_max_disjoint(family: SetFamily) -> int:
    """Max pairwise-disjoint subfamily size by exhaustive subset search."""
    sizes = range(family.num_sets, 0, -1)
    return next((size for size in sizes if brute_first_packing(family, size)), 0)


def brute_pq(family: SetFamily, p: int, q: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the (p,q)-property holds, and if not the first p sets in
    ``combinations`` order of which no q share a point."""
    for combo in itertools.combinations(range(family.num_sets), p):
        if not any(
            functools.reduce(operator.and_, (family.members[i] for i in sub))
            for sub in itertools.combinations(combo, q)
        ):
            return False, combo
    return True, None


def interval_packing(family: SetFamily) -> int:
    """Packing number of a family of intervals (contiguous point ranges):
    scan by right end, keeping each interval that starts after the last kept
    one ends."""
    spans = sorted(
        (mem.bit_length() - 1, (mem & -mem).bit_length() - 1) for mem in family.members
    )
    count, last_end = 0, -1
    for end, start in spans:
        if start > last_end:
            count, last_end = count + 1, end
    return count


def conflicts_oracle(members: list[int]) -> list[int]:
    """The intersection graph by testing every pair: bit j of entry i is set
    when sets i and j (i != j) share a point."""
    m = len(members)
    conf = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if members[i] & members[j]:
                conf[i] |= 1 << j
                conf[j] |= 1 << i
    return conf


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


def plain_transversal_exact(family: SetFamily, budget: int = DEFAULT_BUDGET) -> PiercingSolution:
    """``transversal_exact``'s branch and bound on the sets' own indices, with
    no table of covered masks: every node not pruned by the greedy packing of
    its uncovered sets, in index order, is expanded. Relabelling changes only
    the bound and the table skips only nodes that cannot improve the cover, so
    a completed search must return this cover."""
    m = family.num_sets
    nu, _ = max_disjoint(family, budget=budget)
    candidates = _candidate_points(family)
    greedy = _greedy(m, candidates)
    if greedy.tau == nu:
        return _canonical(family, greedy.piercing_points, nu)
    options: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for pt, col in candidates:
        for i in range(m):
            if col >> i & 1:
                options[i].append((pt, col))
    branch_order = sorted(range(m), key=lambda i: len(options[i]))
    all_mask = (1 << m) - 1
    best_points, best_size = greedy.piercing_points, greedy.tau
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    try:
        for covered, chosen in pops(stack, budget, "piercing search"):
            if covered == all_mask:
                if len(chosen) < best_size:
                    best_size, best_points = len(chosen), chosen
                    if best_size == nu:
                        break
                continue
            uncovered = all_mask & ~covered
            if len(chosen) + len(greedy_packing(family.members, uncovered)) >= best_size:
                continue
            pick = next(i for i in branch_order if uncovered >> i & 1)
            gains: list[int] = []
            children = []
            for pt, col in options[pick]:
                gain = col & uncovered
                if all(gain & ~g for g in gains):
                    gains.append(gain)
                    children.append((covered | col, chosen + (pt,)))
            stack += reversed(children)
    except BudgetExceededError:
        return _canonical(family, best_points, nu)
    return _canonical(family, best_points, best_size)


def fraction_lines(rng: SplitMix64, count: int, side: int) -> list[tuple[Fraction, Fraction]]:
    """(slope, intercept) of the halfplane generator's ``count`` tangent
    lines, drawn from ``rng`` as the generator draws them and worked out in
    exact rationals: tangents to the parabola with apex (mid, mid) and width
    2*span/5, at x0 = span*(1/10 + 4/5*(i + jitter)/count), jitter in
    [0.2, 0.8] in steps of 1/1000."""
    span = side - 1
    mid = Fraction(span, 2)
    width = Fraction(2 * span, 5)
    lines = []
    for i in range(count):
        jitter = Fraction(200 + rng.below(601), 1000)
        x0 = span * (Fraction(1, 10) + Fraction(4, 5) * (i + jitter) / count)
        slope = -2 * (x0 - mid) / width
        y0 = mid - (x0 - mid) ** 2 / width
        lines.append((slope, y0 - slope * x0))
    return lines


def fraction_below_mask(slope: Fraction, intercept: Fraction, side: int) -> int | None:
    """The grid points (row * side + column) strictly below the line, one at
    a time, or None when the line passes through a grid point."""
    mask = 0
    for x in range(side):
        y = slope * x + intercept
        if y.denominator == 1 and 0 <= y.numerator < side:
            return None
        for row in range(side):
            if row < y:
                mask |= 1 << (row * side + x)
    return mask


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


def cells_oracle(family: SetFamily, subfamily: list[int]) -> list[tuple[str, int]]:
    """(signature, points_mask) of each distinct membership signature over
    the subfamily (character k: membership in ``subfamily[k]``), by a
    per-point loop, sorted by signature."""
    cells: dict[str, int] = {}
    for pt in range(family.universe_size):
        sig = "".join("1" if family.members[i] >> pt & 1 else "0" for i in subfamily)
        cells[sig] = cells.get(sig, 0) | 1 << pt
    return sorted(cells.items())


def columns_oracle(family: SetFamily) -> list[tuple[int, str]]:
    """(lowest point, signature over every set) of each distinct membership
    column, the zero column included, by a per-point loop; a column is met
    first at its lowest point, so the list comes in ascending point order."""
    first: dict[str, int] = {}
    for pt in range(family.universe_size):
        first.setdefault("".join("1" if mem >> pt & 1 else "0" for mem in family.members), pt)
    return [(pt, sig) for sig, pt in first.items()]


def random_target_family(rng, max_sets=6, base_points=8, ext_points=4):
    """Random family over a base block plus an extension block used as target."""
    n = base_points + ext_points
    ext = range(base_points, n)
    m = 1 + rng.below(max_sets)
    sets = []
    for i in range(m):
        members = [p for p in range(n) if rng.below(100) < 45]
        sets.append((f"S{i}", members))
    fam = SetFamily.from_points(n, sets, extension=ext)
    return fam, tuple(ext)


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


@st.composite
def run_families(draw, max_sets: int = 6, max_points: int = 12):
    """Families whose every set is one run of consecutive points: ``length``
    points from ``start`` on, wrapping past the last point to point 0."""
    n = draw(st.integers(0, max_points))
    m = draw(st.integers(1, max_sets))
    members = []
    for _ in range(m):
        start = draw(st.integers(0, max(n - 1, 0)))
        length = draw(st.integers(0, n))
        members.append(sum(1 << (start + i) % n for i in range(length)))
    return SetFamily(n, tuple(f"S{i}" for i in range(m)), tuple(members))


@st.composite
def interval_families(draw, max_sets: int = 10, max_points: int = 12):
    """Families of nonempty runs of consecutive points, without wrapping. On
    few points they often share endpoints, nest, repeat and are single
    points; about one set in four repeats an earlier one outright."""
    n = draw(st.integers(1, max_points))
    m = draw(st.integers(1, max_sets))
    members: list[int] = []
    for _ in range(m):
        if members and draw(st.integers(0, 3)) == 0:
            members.append(draw(st.sampled_from(members)))
            continue
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n - 1))
        members.append((1 << hi + 1) - (1 << lo))
    return SetFamily(n, tuple(f"S{i}" for i in range(m)), tuple(members))
