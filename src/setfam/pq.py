"""(p,q)-property decisions and pairwise-disjoint extraction.

The q = 2 case is decided through the packing number: a family fails the
(p,2)-property exactly when it contains p pairwise-disjoint sets, so
``has_pq`` calls the exact maximum-independent-set solver on the
intersection graph (capped at p). For q > 2 a violation is p sets in which no
point lies in q of them, found by an include-first search in index order
that keeps each chosen point's depth below q. Both searches pop at most
``budget`` nodes (``errors.pops``). ``greedy_packing`` is the one greedy
packing: ``disjoint_sequence_greedy`` returns it over all sets, and the
piercing search bounds each node by its length over the uncovered sets.
The packing search, like piercing's, runs on the sets relabelled by their
rank in ``fewest_points_first``, so that its greedy bound starts from the
smallest sets, while it branches in the same order as on the family's own
indices. On an interval family, where every set is one run of consecutive
points (``interval_spans``), the search's intersection graph comes from a
sweep over the sets' spans instead of a test of every pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, Budget, pops
from .family import Check, SetFamily, _check_subfamily, mask_from_points


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


def interval_spans(members: Sequence[int]) -> list[tuple[int, int]] | None:
    """Each set's lowest and highest point when every set is a nonempty run of
    consecutive points (an interval family), else None."""
    spans = []
    for mem in members:
        low = mem & -mem
        if not mem or mem & (mem + low):
            return None
        spans.append((low.bit_length() - 1, mem.bit_length() - 1))
    return spans


def _conflicts(members: Sequence[int]) -> list[int]:
    """The intersection graph: bit j of entry i is set when sets i and j
    (i != j) share a point.

    On an interval family two sets meet exactly when each starts at or before
    the other ends, so entry i is the sets starting at or before i's highest
    point and ending at or after its lowest, less i itself: two binary searches
    into prefix ORs by lowest point and suffix ORs by highest point. Any other
    family is compared pair by pair."""
    m = len(members)
    spans = interval_spans(members)
    if spans is None:
        conf = [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                if members[i] & members[j]:
                    conf[i] |= 1 << j
                    conf[j] |= 1 << i
        return conf
    by_lo = sorted(range(m), key=lambda i: spans[i][0])
    by_hi = sorted(range(m), key=lambda i: spans[i][1])
    los = [spans[i][0] for i in by_lo]
    his = [spans[i][1] for i in by_hi]
    # started[k]: the first k sets by lowest point; ended[k]: all but the first
    # k sets by highest point.
    started = [0] * (m + 1)
    for k, i in enumerate(by_lo):
        started[k + 1] = started[k] | 1 << i
    ended = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        ended[k] = ended[k + 1] | 1 << by_hi[k]
    # Set i always lies in both masks, so it is dropped by one XOR.
    return [started[bisect_right(los, hi)] & ended[bisect_left(his, lo)] ^ 1 << i
            for i, (lo, hi) in enumerate(spans)]


def fewest_points_first(members: Sequence[int]) -> tuple[list[int], list[int]]:
    """The set indices sorted by point count, ties to the lower index, and
    each index's rank in that order."""
    counts = [mem.bit_count() for mem in members]
    order = sorted(range(len(counts)), key=counts.__getitem__)
    rank = [0] * len(counts)
    for r, i in enumerate(order):
        rank[i] = r
    return order, rank


def _clique_cover_bound(cand: int, conf: list[int]) -> int:
    # Greedy clique cover of the candidate vertices, each clique seeded and
    # grown by the lowest label; every clique contributes at most one vertex
    # to an independent set, so the count is admissible, and holds at least
    # one, so the count never exceeds the candidates. ``common`` starts within
    # ``rest``, and conf[u] never holds u, so it stays within ``rest`` once u
    # leaves both.
    bound = 0
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        common = conf[low.bit_length() - 1] & rest
        while common:
            low = common & -common
            rest ^= low
            common &= conf[low.bit_length() - 1]
        bound += 1
    return bound


def _is_clique(vertices: int, conf: list[int]) -> bool:
    while vertices:
        u = (vertices & -vertices).bit_length() - 1
        vertices &= vertices - 1
        if vertices & ~conf[u]:
            return False
    return True


def max_disjoint(
    family: SetFamily, cap: int | None = None, budget: int | Budget = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum pairwise-disjoint subfamily (packing number and witness).

    Branch and bound on the intersection graph, include-branch first in index
    order, so the witness is the lexicographically first optimum. A node is
    pruned when its chosen sets plus a greedy clique cover of its candidates,
    seeded and grown fewest points first, cannot beat the best found. With
    ``cap`` set the search stops as soon as ``cap`` disjoint sets are found
    and returns ``min(packing number, cap)`` with a witness of that size; a
    negative ``cap`` raises ValueError. BudgetExceededError is raised if the
    search would pop more than ``budget`` nodes; a caller that runs more
    searches passes the ``errors.Budget`` they share.

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
    # The search runs on the sets relabelled by rank in order of point count
    # (ties to the lower index), so the greedy clique cover that bounds each
    # node seeds and grows its cliques from the smallest sets. It still
    # branches in index order: each node carries the lowest index not yet
    # decided, from which the set to branch on is the first still a candidate.
    order, rank = fewest_points_first(family.members)
    conf = _conflicts([family.members[i] for i in order])
    best_size = 0
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    # Each node is its candidate ranks, that index and the number of sets
    # chosen above it; the include child is pushed last, so it and its
    # subtree come first.
    stack = [((1 << m) - 1, 0, 0)]
    for cand, v, depth in pops(stack, budget, "packing search"):
        del chosen[depth:]
        if not cand:
            if depth > best_size:
                best_size, best = depth, tuple(chosen)
            continue
        # Before the first leaf best_size is 0 and the bound at least 1, so
        # the bound cannot prune until a packing has been found.
        if best_size and depth + _clique_cover_bound(cand, conf) <= best_size:
            continue
        while not cand >> rank[v] & 1:
            v += 1
        r = rank[v]
        rest = cand & ~(1 << r)
        if not _is_clique(conf[r] & rest, conf):
            stack.append((rest, v + 1, depth))
        chosen.append(v)
        if cap is not None and depth + 1 >= cap:
            return depth + 1, tuple(chosen)
        stack.append((rest & ~conf[r], v + 1, depth + 1))
    return best_size, best


def _check_pq(p: int, q: int) -> None:
    if q < 2 or p < q:
        raise ValueError(f"need p >= q >= 2, got p={p}, q={q}")


def _deepen(layers: tuple[int, ...], mem: int) -> tuple[int, ...] | None:
    """Point-depth layers after one more set, or None if the set meets the last.

    ``layers[k]`` holds the points in more than k of the sets so far, so with
    d layers a set may join exactly when no point would lie in more than d
    sets."""
    if mem & layers[-1]:
        return None
    return (layers[0] | mem, *(hi | lo & mem for lo, hi in zip(layers, layers[1:])))


def _depth_check(
    name: str, family: SetFamily, indices: Sequence[int], layers: tuple[int, ...], passed: str, failed: str
) -> Check:
    """Check that the listed sets join ``layers`` one by one, failing with
    ``failed`` at the first set that meets the last layer. A set listed twice
    or out of range raises ValueError (``family._check_subfamily``)."""
    for i in _check_subfamily(family, indices):
        layers = _deepen(layers, family.members[i])
        if layers is None:
            return Check(name, False, failed)
    return Check(name, True, passed)


def has_pq(family: SetFamily, p: int, q: int, budget: int = DEFAULT_BUDGET) -> PropertyReport:
    """Decide whether among any p sets of the family some q share a point.

    A violation is the lexicographically first p sets of which no q share a
    point. BudgetExceededError is raised if the search pops more than
    ``budget`` nodes."""
    _check_pq(p, q)
    if q == 2:
        size, witness = max_disjoint(family, p, budget)
        holds = size < p
        return PropertyReport(p, q, holds, None if holds else witness, witness)
    m = family.num_sets
    members = family.members
    # Each node is the next set to decide, the sets chosen so far and their
    # point-depth layers; the include child is pushed last, so it comes first.
    # Every subset of a violation is one too, so no node above the first
    # violation is ever skipped and the first p chosen sets are the first
    # violation in lexicographic order. No point lies in more than m sets,
    # so m layers are enough however large q is.
    stack = [(0, (), (0,) * min(q - 1, m))]
    for t, chosen, layers in pops(stack, budget, "(p,q) search"):
        if len(chosen) == p:
            return PropertyReport(p, q, False, chosen, None)
        if len(chosen) + m - t < p:
            continue
        stack.append((t + 1, chosen, layers))
        deeper = _deepen(layers, members[t])
        if deeper is not None:
            stack.append((t + 1, (*chosen, t), deeper))
    return PropertyReport(p, q, True, None, None)


def check_verdict(
    family: SetFamily, p: int, q: int, holds: bool, violation: Sequence[int] | None,
    disjoint_witness: Sequence[int] | None,
) -> list[Check]:
    """Re-check a (p,q) verdict's witnesses: a violation lists p sets of which no q
    share a point (q = 2: p pairwise-disjoint sets); a packing witness is pairwise
    disjoint. A set listed twice or out of range in either witness, or p and q
    breaking p >= q >= 2, raise ValueError.
    The verdict must fail exactly when a witness proves it: a re-verified
    violation, or p or more re-verified pairwise-disjoint sets. A verdict that
    disagrees adds a failed ``pq.verdict-agrees``."""
    _check_pq(p, q)
    checks = []
    if violation is not None:
        if q == 2:
            passed = "violation re-verifies as pairwise disjoint"
            failed = "violation is not pairwise disjoint"
        else:
            passed = "violation re-verifies: no q share a point"
            failed = "violation has q sets sharing a point"
        name = "pq.violation-reverifies"
        # No point lies in more of the listed sets than there are.
        check = _depth_check(name, family, violation, (0,) * min(q - 1, len(violation)), passed, failed)
        checks.append(check if len(violation) == p else Check(name, False, failed))
    if disjoint_witness is not None:
        checks.append(_depth_check("pq.disjoint-witness-reverifies", family, disjoint_witness, (0,),
                                   "witness is pairwise disjoint", "witness sets intersect"))
    witnesses = [sets for sets in (violation, disjoint_witness) if sets is not None]
    if holds == any(check.ok and len(sets) >= p for check, sets in zip(checks, witnesses)):
        checks.append(Check("pq.verdict-agrees", False, "the property holds, yet a witness proves it fails"
                            if holds else "the property fails, yet no witness proves it"))
    return checks or [Check("pq.no-witness-to-check", True, "verdict carries no witness")]


def greedy_packing(members: Sequence[int], sets: int, blocked: int = 0) -> list[int]:
    """The sets of the index mask ``sets``, in index order, that miss the
    points of ``blocked`` and every set kept before them; every set left out
    meets one of those, so the packing cannot be extended within ``sets``."""
    out = []
    while sets:
        i = (sets & -sets).bit_length() - 1
        sets &= sets - 1
        if members[i] & blocked == 0:
            out.append(i)
            blocked |= members[i]
    return out


def disjoint_sequence_greedy(family: SetFamily, avoid: Iterable[int] = ()) -> tuple[int, ...]:
    """Greedy maximal list of sets disjoint from ``avoid`` and from each other,
    scanned in declaration order."""
    blocked = mask_from_points(avoid, family.universe_size)
    return tuple(greedy_packing(family.members, (1 << family.num_sets) - 1, blocked))


def check_disjoint(
    family: SetFamily, chosen: Sequence[int], avoid: Iterable[int] = (), nu: int | None = None, cap: int | None = None
) -> Check:
    """Re-check a packing witness of ``nu`` sets, at most ``cap`` if one is
    given, or, with no ``nu``, a greedy sequence: pairwise disjoint and missing
    ``avoid``, and a sequence must then be the one ``disjoint_sequence_greedy``
    writes. A set listed twice or out of range, or a point of ``avoid`` out of
    range, raises ValueError."""
    name = "disjoint.witness-reverifies"
    avoid = tuple(avoid)
    check = _depth_check(name, family, chosen, (mask_from_points(avoid, family.universe_size),),
                         "chosen sets pairwise disjoint", "chosen sets intersect")
    if nu is not None and nu != len(chosen):
        return Check(name, False, f"nu is {nu} but the witness has {len(chosen)} sets")
    if cap is not None and len(chosen) > cap:
        return Check(name, False, f"{len(chosen)} sets exceed the cap of {cap}")
    if nu is not None or not check.ok:
        return check
    # A disjoint sequence that misses ``avoid`` cannot run past the greedy one,
    # which no set left out of it could extend.
    greedy = disjoint_sequence_greedy(family, avoid)
    k = next((k for k, (i, j) in enumerate(zip(chosen, greedy)) if i != j), len(chosen))
    if k == len(greedy):
        return check
    listed = f"is set {chosen[k]}" if k < len(chosen) else "is missing"
    return Check(name, False, f"sequence[{k}] {listed}, where the greedy sequence has set {greedy[k]}")
