"""Dual shatter function: exact maximization, greedy lower bounds, growth fit.

``dual_shatter(family, n)`` maximizes the boolean-atom count over all
subfamilies of ``n`` sets. Exact mode enumerates n-subsets depth-first in
lexicographic order and replaces its incumbent only by a strictly larger
count, so the reported witness is always the lexicographically first
maximizer. It works on the family's distinct point columns (points with equal
columns are never separated, so no count changes), ordered by their lowest
point and closed into a cycle, on which each set has a boundary: the edges
between neighbouring columns that differ on it. It skips a node whose chosen
sets cut the cycle into too few arcs to beat the incumbent even if each set
left cut as many new edges as the longest boundary among them (the cells of
the chosen sets never outnumber those arcs), skips a node with r sets left once
``sum(min(2**r, |c|))`` over its cells, |c| the distinct columns of cell c,
cannot beat the incumbent (a cell of k columns never yields more than k
atoms), and at the last set counts each candidate's splits instead of
building its cells, stopping a count once the candidate cannot beat the
incumbent. All four keep every count that can win and the visiting order,
so the witness cannot change.

The search also ends once its incumbent reaches ``_upper``, a bound on every
count: the least of 2**n, the distinct columns, max(1, the sum of the n
longest boundaries), and the Sauer-Shelah bound, the sum of C(n, j) over
j <= d, once the dual VC dimension d is proved. Since the incumbent changes
only on a strict gain, the first leaf to reach such a bound is the
lexicographically first maximizer. A lone call proves d by asking, for
k = 1, 2, ..., whether some k sets are shattered (the same search, seeded at
2**k - 1 and ended by the first k sets with 2**k atoms); the first k that is
not proves d = k - 1. It asks only while ``_upper`` with d = k - 1 is below
``_upper`` without d, and only for k < n; these searches draw from the
call's node budget with the main one. A profile reads d off its own values.
The greedy lower bound counts its candidates like the last level and builds
only the winner's cells; its first k steps are its answer for k sets, so a
greedy profile takes one pass.

``check_values`` re-checks a reported value as the number of distinct point
traces of its witness (``family.point_traces``), not with the search's
columns, and ``check_profile`` also requires a profile's n to run 1, 2, ..., k.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, Budget, pops
from .family import Check, SetFamily, _check_subfamily, columns, point_traces

MODE_EXACT = "exact"
MODE_GREEDY = "greedy-lower-bound"


class ShatterResult(NamedTuple):
    n: int
    value: int
    witness: tuple[int, ...]
    mode: str


class GrowthProfile(NamedTuple):
    """Shatter values for n = 1..n_max plus a diagnostic log-log slope.

    The exponent is a least-squares fit over the top half of the range and is
    advisory only; no other operation consumes it.
    """

    results: tuple[ShatterResult, ...]
    exponent: float


def _split(cells: list[int], mem: int) -> list[int]:
    out = []
    for c in cells:
        hi = c & mem
        if hi:
            out.append(hi)
            lo = c ^ hi
            if lo:
                out.append(lo)
        else:
            out.append(c)
    return out


def _compress(family: SetFamily) -> tuple[list[int], list[int], int]:
    """Each set as a mask over the family's distinct point columns, each set's
    boundary on the cycle of those columns, and the number of columns.

    The columns are ordered by their lowest point: bit j of a set's mask means
    column j holds the set. Points with equal columns are never separated, so
    the exact search runs on these. Bit j of a set's boundary means columns j
    and j + 1 (mod the width) differ on the set. A set whose points are one
    run of consecutive points, wrapping past the last point or not, holds a
    run of columns in this order, so its boundary has at most two bits."""
    m = family.num_sets
    sigs = [sig for _, sig in columns(family)]
    width = len(sigs)
    if not width:
        return [0] * m, [0] * m, 0
    # Character t of every distinct signature, last column first, read as one
    # numeral; the boundary compares each column with the next, the last
    # with the first.
    members = [int("".join(row), 2) for row in zip(*reversed(sigs))]
    top = width - 1
    return members, [mem ^ (mem >> 1 | (mem & 1) << top) for mem in members], width


def _exact(
    compressed: tuple[list[int], list[int], int], n: int, budget: Budget, stop: int, floor: int = -1
) -> ShatterResult:
    """The first n sets with the most atoms above ``floor``; the search ends
    once its incumbent reaches ``stop``, which must bound every count."""
    members, boundaries, width = compressed
    m = len(members)
    # reach[t]: the most boundary edges any one set after set t cuts.
    reach = [0] * m
    for t in reversed(range(m - 1)):
        reach[t] = max(reach[t + 1], boundaries[t + 1].bit_count())
    best_value = floor
    best_witness: tuple[int, ...] = ()
    chosen: list[int] = []
    # Each node is its depth, its last chosen set (-1 at the root), and its
    # parent's cells and cut edges, which it extends only when popped;
    # children are pushed in reverse, so each subtree is finished before its
    # next sibling starts.
    stack = [(0, -1, [(1 << width) - 1] if width else [], 0)]
    for depth, last, cells, cut in pops(stack, budget, "exact shatter search"):
        remaining = n - depth
        if last >= 0:
            # Cells never outnumber the arcs that the cut edges leave on the
            # cycle, and each set left cuts at most reach[last] more edges.
            # k >= 1 cut edges leave k arcs; none leave one arc, or none on
            # no columns, which any counted leaf already reaches.
            cut |= boundaries[last]
            if cut.bit_count() + remaining * reach[last] <= best_value:
                continue
            del chosen[depth - 1 :]
            chosen.append(last)
            cells = _split(cells, members[last])
        if remaining > 1:
            # A cell of k columns yields at most min(2^remaining, k) atoms.
            limit = 1 << remaining
            if sum(min(limit, c.bit_count()) for c in cells) > best_value:
                stack += [(depth + 1, t, cells, cut) for t in reversed(range(last + 1, m - remaining + 1))]
            continue
        # With one set left, each candidate's splits are counted, not built;
        # only cells of two or more columns can split.
        live = [c for c in cells if c & (c - 1)]
        if len(cells) + len(live) > best_value:
            value, t = _best_split(len(cells), live, members, range(last + 1, m), best_value)
            if t is not None:
                best_value, best_witness = value, (*chosen, t)
                if best_value >= stop:
                    break

    return ShatterResult(n, best_value, best_witness, MODE_EXACT)


def _shattered(compressed: tuple[list[int], list[int], int], k: int, budget: Budget) -> bool:
    """Whether some k sets make 2**k atoms: the exact search with its
    incumbent seeded at 2**k - 1, ended by the first such k sets."""
    return bool(_exact(compressed, k, budget, 1 << k, (1 << k) - 1).witness)


def _upper(compressed: tuple[list[int], list[int], int], n: int, d: int | None) -> int:
    """The least bound on the atoms of n sets: 2**n, the distinct columns,
    max(1, the sum of the n longest boundaries), and with a proved dual VC
    dimension ``d`` the Sauer-Shelah bound, the sum of C(n, j) for j <= d.

    n sets cut no more edges of the column cycle than their boundaries sum
    to; k >= 1 cut edges leave k arcs, none leave one, and every cell is a
    union of arcs."""
    _, boundaries, width = compressed
    cuts = sum(sorted((b.bit_count() for b in boundaries), reverse=True)[:n])
    bound = min(1 << n, width, max(1, cuts))
    return bound if d is None else min(bound, sum(math.comb(n, j) for j in range(d + 1)))


def _proved_dimension(compressed: tuple[list[int], list[int], int], n: int, budget: Budget) -> int | None:
    """The dual VC dimension k - 1, proved by the first k < n for which no k
    sets are shattered; None if no such k is found. A k is searched only
    while the bound it would prove for n sets is below the bound without it.
    That every k < n is shattered proves nothing: the n sets may be too."""
    roof = _upper(compressed, n, None)
    for k in range(1, n):
        if _upper(compressed, n, k - 1) >= roof:
            return None
        if not _shattered(compressed, k, budget):
            return k - 1
    return None


def dual_vc_dimension(family: SetFamily, budget: int = DEFAULT_BUDGET) -> int:
    """The largest k such that some k sets of the family are shattered, that
    is, make 2**k atoms; 0 if no set splits the points.

    By the Sauer-Shelah lemma any n sets then make at most the sum of C(n, j)
    over j <= d atoms. Each k is its own exact search, and BudgetExceededError
    is raised if they would pop more than ``budget`` nodes in all."""
    compressed, shared = _compress(family), Budget(budget)
    k = 1
    while k <= family.num_sets and _shattered(compressed, k, shared):
        k += 1
    return k - 1


def _best_split(
    size: int, live: list[int], members: Sequence[int], candidates: Iterable[int], best_value: int
) -> tuple[int, int | None]:
    """The most cells one candidate set splits ``size`` cells into, and the
    first candidate that does, if that beats ``best_value``; else
    ``(best_value, None)``. ``live`` are the cells that can split, those of
    two or more points (or columns). Splits are counted, not built.

    The cells plus the live ones bound every count. A candidate replaces the
    best only with a strictly larger count, and its count stops once it has
    missed as many live cells as would keep it from beating the best; the
    candidates stop once the best reaches the bound."""
    bound = size + len(live)
    best = None
    for t in candidates:
        if best_value >= bound:
            break
        mem = members[t]
        slack = bound - best_value  # misses that still leave t winning, plus one
        for c in live:
            if not 0 != c & mem != c:
                slack -= 1
                if not slack:
                    break
        else:
            best_value, best = best_value + slack, t
    return best_value, best


def _greedy(family: SetFamily, n: int) -> list[ShatterResult]:
    """The greedy results for 1..n sets: the k-set subfamily is the first k
    sets the n-set one picks."""
    chosen: list[int] = []
    candidates = list(range(family.num_sets))
    cells = [family.universe_mask] if family.universe_mask else []
    results = []
    for _ in range(n):
        # The set whose split gives the most cells, ties to the lowest index;
        # only its cells are built.
        live = [c for c in cells if c & (c - 1)]
        _, best = _best_split(len(cells), live, family.members, candidates, -1)
        candidates.remove(best)
        chosen.append(best)
        cells = _split(cells, family.members[best])
        results.append(ShatterResult(len(chosen), len(cells), tuple(chosen), MODE_GREEDY))
    return results


def dual_shatter(
    family: SetFamily, n: int, mode: str = MODE_EXACT, budget: int = DEFAULT_BUDGET
) -> ShatterResult:
    """Maximum number of boolean atoms over subfamilies of size ``n``.

    ``mode="exact"`` returns the true maximum, raising BudgetExceededError
    if its searches, those that prove the dual VC dimension and the main
    one, would pop more than ``budget`` nodes in all;
    ``mode="greedy-lower-bound"`` grows one subfamily by repeatedly adding
    the set that splits the most current atoms, ties to the lowest index,
    and returns a valid lower bound.
    """
    if not 1 <= n <= family.num_sets:
        raise ValueError(f"n must be between 1 and {family.num_sets}, got {n}")
    if mode == MODE_EXACT:
        compressed, shared = _compress(family), Budget(budget)
        return _exact(compressed, n, shared, _upper(compressed, n, _proved_dimension(compressed, n, shared)))
    if mode in (MODE_GREEDY, "greedy"):
        return _greedy(family, n)[-1]
    raise ValueError(f"unknown mode {mode!r}")


def growth_profile(
    family: SetFamily, n_max: int, mode: str = MODE_EXACT, budget: int = DEFAULT_BUDGET
) -> GrowthProfile:
    """Shatter values for n = 1..min(n_max, #sets) with a fitted exponent.

    In exact mode the family is compressed to its distinct columns once for
    the whole profile, and BudgetExceededError is raised if the searches for
    every n would pop more than ``budget`` nodes in all; in greedy mode one
    greedy pass of ``n_max`` steps gives every value."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    top = min(n_max, family.num_sets)
    if mode == MODE_EXACT:
        compressed, shared = _compress(family), Budget(budget)
        found: list[ShatterResult] = []
        d = None
        for k in range(1, top + 1):
            found.append(_exact(compressed, k, shared, _upper(compressed, k, d)))
            if d is None and found[-1].value < 1 << k:
                d = k - 1
        results = tuple(found)
    elif mode in (MODE_GREEDY, "greedy"):
        results = tuple(_greedy(family, top))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tail = results[len(results) // 2 :]
    if len(tail) < 2:
        tail = results
    if len(tail) < 2 or any(r.value < 1 for r in tail):
        exponent = 0.0
    else:
        exponent = _slope([math.log(r.n) for r in tail], [math.log(r.value) for r in tail])
    return GrowthProfile(results, exponent)


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The least-squares slope of ys on xs, summed as Python 3.10 and 3.11's
    ``statistics.linear_regression`` sums it: ``math.fsum`` rounds exactly
    on every version, and the statistics module would load fractions,
    decimal and random for one division."""
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return sxy / math.fsum((x - x_bar) * (x - x_bar) for x in xs)


# The kind of every check of reported shatter values.
_VALUES = "shatter.witness-reverifies"


def check_values(family: SetFamily, entries: Iterable[tuple[int, int, Sequence[int]]]) -> Check:
    """Re-check reported ``(n, value, witness)`` entries: each witness has n
    sets and as many distinct point traces (``family.point_traces``) as the
    value reports atoms. A set listed twice or out of range raises ValueError."""
    for n, value, witness in entries:
        idxs = _check_subfamily(family, witness)
        if len(idxs) != n:
            return Check(_VALUES, False, f"witness for n={n} has {len(idxs)} sets")
        count = len(set(point_traces(family, idxs)))
        if count != value:
            return Check(_VALUES, False, f"witness for n={n} yields {count} atoms, reported {value}")
    return Check(_VALUES, True, "witness atom counts match reported values")


def check_profile(family: SetFamily, entries: Sequence[tuple[int, int, Sequence[int]]]) -> Check:
    """Re-check a growth profile: ``check_values`` passes its entries, and
    they are n = 1, 2, ..., k in order, with k at least min(2, the number of
    sets), since ``growth_profile`` takes n_max >= 2."""
    check, ns = check_values(family, entries), [n for n, _, _ in entries]
    least = min(2, family.num_sets)
    if check.ok and ns != list(range(1, max(len(ns), least) + 1)):
        return Check(_VALUES, False, f"profile lists n = {ns}, not 1, 2, ..., k for some k >= {least}")
    return check
