"""(p,q)-property decisions and pairwise-disjoint extraction.

The q = 2 case is decided through the packing number: a family fails the
(p,2)-property exactly when it contains p pairwise-disjoint sets, so
``has_pq`` calls the exact maximum-independent-set solver on the
intersection graph (capped at p). General q is an explicit exhaustive check
over every p-subset and its q-subsets, refused up front when C(m,p) * C(p,q)
exceeds the budget.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .family import Check, SetFamily, mask_from_points


class PropertyReport(NamedTuple):
    """Verdict for one (p,q) query, with re-checkable witnesses.

    When ``holds`` is false and q = 2, ``violation`` lists p pairwise-disjoint
    sets; for q > 2 it lists a p-subset of which no q share a point.
    ``disjoint_witness`` carries the packing witness found on the q = 2 path.
    """

    p: int
    q: int
    holds: bool
    violation: tuple[int, ...] | None = None
    disjoint_witness: tuple[int, ...] | None = None


def _conflicts(family: SetFamily) -> list[int]:
    members = family.members
    m = len(members)
    conf = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if members[i] & members[j]:
                conf[i] |= 1 << j
                conf[j] |= 1 << i
    return conf


def _clique_cover_bound(cand: int, conf: list[int]) -> int:
    # Greedy clique cover of the candidate vertices; every clique contributes
    # at most one vertex to an independent set, so the count is admissible.
    bound = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= ~(1 << v)
        common = conf[v] & rest
        while common:
            u = (common & -common).bit_length() - 1
            rest &= ~(1 << u)
            common &= conf[u] & rest
        bound += 1
    return bound


def _is_clique(vertices: int, conf: list[int]) -> bool:
    while vertices:
        u = (vertices & -vertices).bit_length() - 1
        vertices &= vertices - 1
        if vertices & ~conf[u]:
            return False
    return True


def max_disjoint(family: SetFamily, cap: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact maximum pairwise-disjoint subfamily (packing number and witness).

    Branch and bound on the intersection graph, include-branch first in index
    order, so the witness is the lexicographically first optimum. With
    ``cap`` set the search stops as soon as ``cap`` disjoint sets are found
    and returns ``min(packing number, cap)`` with a witness of that size; a
    negative ``cap`` raises ValueError.

    The exclude branch of the lowest candidate is skipped when its candidate
    neighbours pairwise conflict: some maximum packing of the candidates then
    contains it, so the include branch has already reached the best size and
    the exclude branch could not strictly beat it.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    m = family.num_sets
    if m == 0 or cap == 0:
        return 0, ()
    conf = _conflicts(family)
    best_size = 0
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    # Each node is its candidate sets and the number of sets chosen above it;
    # the include child is pushed last, so it and its subtree come first.
    stack = [((1 << m) - 1, 0)]
    while stack:
        cand, depth = stack.pop()
        del chosen[depth:]
        if not cand:
            if depth > best_size:
                best_size, best = depth, tuple(chosen)
            continue
        room = min(cand.bit_count(), _clique_cover_bound(cand, conf))
        if depth + room <= best_size:
            continue
        v = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << v)
        if not _is_clique(conf[v] & rest, conf):
            stack.append((rest, depth))
        chosen.append(v)
        if cap is not None and depth + 1 >= cap:
            return depth + 1, tuple(chosen)
        stack.append((rest & ~conf[v], depth + 1))
    return best_size, best


def has_pq(family: SetFamily, p: int, q: int, budget: int = DEFAULT_BUDGET) -> PropertyReport:
    """Decide whether among any p sets of the family some q share a point."""
    if q < 2 or p < q:
        raise ValueError(f"need p >= q >= 2, got p={p}, q={q}")
    m = family.num_sets
    if q == 2:
        size, witness = max_disjoint(family, cap=p)
        holds = size < p
        return PropertyReport(p, q, holds, None if holds else witness, witness)
    if math.comb(m, p) * math.comb(p, q) > budget:
        raise BudgetExceededError(
            f"(p,q) check over C({m},{p})*C({p},{q}) intersections exceeds the budget of {budget}"
        )
    for combo in itertools.combinations(range(m), p):
        if not any(share_point(family, sub) for sub in itertools.combinations(combo, q)):
            return PropertyReport(p, q, False, combo, None)
    return PropertyReport(p, q, True, None, None)


def share_point(family: SetFamily, indices: Iterable[int]) -> bool:
    """Whether the listed sets have a point in common."""
    inter = family.universe_mask
    for i in indices:
        inter &= family.members[i]
        if not inter:
            return False
    return bool(inter)


def pairwise_disjoint(family: SetFamily, indices: Iterable[int], avoid: Iterable[int] = ()) -> bool:
    """Whether the listed sets are pairwise disjoint and miss every point of ``avoid``."""
    seen = mask_from_points(avoid, family.universe_size)
    for i in indices:
        if family.members[i] & seen:
            return False
        seen |= family.members[i]
    return True


def check_verdict(
    family: SetFamily, p: int, q: int, violation: Sequence[int] | None, disjoint_witness: Sequence[int] | None
) -> list[Check]:
    """Re-check a (p,q) verdict's witnesses: a violation lists p sets of which no q
    share a point (q = 2: p pairwise-disjoint sets); a packing witness is pairwise disjoint."""
    checks = []
    if violation is not None:
        if q == 2:
            ok = len(violation) == p and pairwise_disjoint(family, violation)
            detail = "violation re-verifies as pairwise disjoint" if ok else "violation is not pairwise disjoint"
        else:
            ok = len(violation) == p and not any(
                share_point(family, sub) for sub in itertools.combinations(violation, q)
            )
            detail = "violation re-verifies: no q share a point" if ok else "violation has q sets sharing a point"
        checks.append(Check("pq.violation-reverifies", ok, detail))
    if disjoint_witness is not None:
        ok = pairwise_disjoint(family, disjoint_witness)
        checks.append(Check("pq.disjoint-witness-reverifies", ok,
                            "witness is pairwise disjoint" if ok else "witness sets intersect"))
    return checks or [Check("pq.no-witness-to-check", True, "verdict carries no witness")]


def disjoint_sequence_greedy(family: SetFamily, avoid: Iterable[int] = ()) -> tuple[int, ...]:
    """Greedy maximal list of sets disjoint from ``avoid`` and from each other.

    Scans sets in declaration order, keeping each set that avoids the blocked
    points accumulated so far; every set left out meets ``avoid`` or a chosen
    set, so the result cannot be extended.
    """
    blocked = mask_from_points(avoid, family.universe_size)
    out: list[int] = []
    for t in range(family.num_sets):
        if family.members[t] & blocked == 0:
            out.append(t)
            blocked |= family.members[t]
    return tuple(out)


def check_disjoint(family: SetFamily, chosen: Sequence[int], avoid: Iterable[int] = ()) -> Check:
    """Re-check a packing witness or a greedy sequence: pairwise disjoint, missing ``avoid``."""
    ok = pairwise_disjoint(family, chosen, avoid)
    return Check("disjoint.witness-reverifies", ok,
                 "chosen sets pairwise disjoint" if ok else "chosen sets intersect")
