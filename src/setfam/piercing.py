"""Exact and greedy piercing (transversal) of a finite set family.

For finite families, partitioning into consistent subfamilies (each with a
common point) is the same problem as covering the family by point-stars, so
the minimum partition size equals the piercing number. The exact solver is a
set-cover branch and bound over candidate points, the lowest point of each
distinct nonzero column of ``family.columns``, pruned by ``pq.greedy_packing``
of the sets left to cover, and stopped once its cover meets the packing
number: on an interval family the length of the right-endpoint greedy
packing (``_interval_nu``), which ``check_solution`` also reads to bound a
reported lower bound, and ``pq.max_disjoint``'s on any other. It runs on the
sets relabelled fewest points first (``pq.fewest_points_first``), so that
packing keeps the smallest sets, and skips a node whose covered sets a table
of up to ``MAX_COVERED_MASKS`` masks shows were reached with no more points;
neither changes the cover found. The raw-partition brute force lives in the
test suite as an independent oracle.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, Budget, BudgetExceededError, EmptySetError, pops
from .family import Check, SetFamily, columns, mask_from_points
from .pq import fewest_points_first, greedy_packing, is_interval_family, max_disjoint


# The most covered masks the exact search remembers; a full table takes no
# new masks, so it bounds memory and every skip it makes stays exact.
MAX_COVERED_MASKS = 1 << 14


class PiercingSolution(NamedTuple):
    """A partition of the family into consistent classes, one point each.

    Every set in class ``i`` contains ``piercing_points[i]``, so each class
    has a nonempty total intersection. ``optimal`` records whether the class
    count was proved minimum; when it was not (budget exhausted, or a greedy
    run), ``lower_bound`` carries the best proven lower bound, if any.
    """

    tau: int
    piercing_points: tuple[int, ...]
    assignment: tuple[int, ...]
    optimal: bool
    lower_bound: int | None = None


def _require_pierceable(family: SetFamily) -> None:
    for name, mem in zip(family.names, family.members):
        if mem == 0:
            raise EmptySetError(f"set {name!r} is empty and cannot be pierced")


def _candidate_points(family: SetFamily, order: Sequence[int] | None = None) -> list[tuple[int, int]]:
    # Points with identical set-membership columns are interchangeable; keep
    # the lowest index of each distinct nonzero column, with bit k of its
    # numeral meaning membership in set order[k] (set k by default).
    return [(pt, int(sig[::-1], 2)) for pt, sig in columns(family, order) if "1" in sig]


def _canonical(family: SetFamily, points: Sequence[int], lower_bound: int) -> PiercingSolution:
    """The cover as a solution: points ascending, each set in the class of its
    lowest point, unused points dropped; optimal when it meets ``lower_bound``,
    a proved lower bound."""
    pierced = mask_from_points(points, family.universe_size)
    lowest = [(hit & -hit).bit_length() - 1 for hit in [mem & pierced for mem in family.members]]
    # A redundant point, the lowest of no set, can appear in interrupted
    # searches; dropping it only improves the cover.
    pts = sorted(set(lowest))
    index = {pt: k for k, pt in enumerate(pts)}
    assignment = tuple(index[pt] for pt in lowest)
    return PiercingSolution(len(pts), tuple(pts), assignment, len(pts) == lower_bound, lower_bound)


def transversal_greedy(family: SetFamily) -> PiercingSolution:
    """Greedy upper bound: repeatedly take the point covering the most
    unassigned sets (ties to the lowest point index)."""
    _require_pierceable(family)
    if family.num_sets == 0:
        return PiercingSolution(0, (), (), True, 0)
    return _greedy(family.num_sets, _candidate_points(family))


def _greedy(m: int, candidates: list[tuple[int, int]]) -> PiercingSolution:
    unassigned = (1 << m) - 1
    assignment = [-1] * m
    points: list[int] = []
    while unassigned:
        best_pt = -1
        best_col = 0
        best_cover = 0
        for pt, col in candidates:
            cover = (col & unassigned).bit_count()
            if cover > best_cover:
                best_pt, best_col, best_cover = pt, col, cover
        k = len(points)
        points.append(best_pt)
        newly = best_col & unassigned
        while newly:
            i = (newly & -newly).bit_length() - 1
            newly &= newly - 1
            assignment[i] = k
        unassigned &= ~best_col
    return PiercingSolution(len(points), tuple(points), tuple(assignment), False, None)


def _interval_nu(members: Sequence[int]) -> int | None:
    """The packing number of an interval family, None for any other family.

    Scanned by highest point, a set misses every set the greedy packing kept
    before it exactly when it starts past the last one's highest point, so
    each set skipped holds that point. The kept sets are thus pairwise
    disjoint and their highest points pierce every set: there are nu = tau of
    them (Gallai)."""
    if not is_interval_family(members):
        return None
    return len(greedy_packing(sorted(members, key=int.bit_length), (1 << len(members)) - 1))


def transversal_exact(family: SetFamily, budget: int = DEFAULT_BUDGET) -> PiercingSolution:
    """Minimum piercing, proved optimal unless the node budget runs out.

    Both searches draw from one count of ``budget`` nodes. The packing
    number supplies the lower bound. On an interval family, where every set
    is one run of consecutive points (``pq.is_interval_family``), it is the
    length of the right-endpoint greedy packing, with no search (Gallai's
    tau = nu). On any other family ``max_disjoint`` finds it, and its search
    raises BudgetExceededError if it would pop more than ``budget`` nodes;
    that is the only error a budget raises. When the greedy upper bound
    already matches the packing number the branch and bound is skipped.
    Otherwise a branch and bound over candidate points runs until its cover
    has as many points as the packing number, or to completion (optimal), or
    until it would take the call's nodes past ``budget`` (best cover found so
    far, with the packing number as its lower bound; optimal only if the
    cover, once its redundant points are dropped, meets that bound).

    The search branches on the uncovered set with the fewest covering points
    (ties to the lower index) and tries those points in index order,
    skipping a point whose newly covered sets an earlier sibling also
    covers: the earlier sibling's subtree has already reached a cover no
    larger than any through it. A node is pruned when its points plus a
    greedy packing of its uncovered sets, taken fewest points first, reach
    the best cover, and skipped when its covered sets were already reached
    with no more points: everything below a node depends only on those.
    Neither rule changes the cover a completed search finds.
    """
    _require_pierceable(family)
    m, shared = family.num_sets, Budget(budget)
    nu = _interval_nu(family.members)
    if nu is None:
        nu, _ = max_disjoint(family, budget=shared)
    # The search runs on the sets relabelled by rank fewest points first, so
    # that the greedy packing bounding each node keeps the smallest sets; the
    # greedy cover's points do not depend on the labels.
    order, _ = fewest_points_first(family.members)
    candidates = _candidate_points(family, order)
    greedy = _greedy(m, candidates)
    if greedy.tau == nu:
        return _canonical(family, greedy.piercing_points, nu)

    # The ranks by how few candidate points cover them (ties to the lower
    # original index); a rank's covering points, in candidate order, are
    # listed the first time the search branches on it.
    members = [family.members[i] for i in order]
    points = mask_from_points([pt for pt, _ in candidates], family.universe_size)
    branch_order = sorted(range(m), key=lambda r: ((members[r] & points).bit_count(), order[r]))
    options: dict[int, list[tuple[int, int]]] = {}
    all_mask = (1 << m) - 1
    best_points: Sequence[int] = greedy.piercing_points
    best_size = greedy.tau
    # Covered mask -> the fewest points with which a node reached it, for at
    # most MAX_COVERED_MASKS masks. Each point of a node short of a cover
    # covered a new set, so it holds fewer than m points: m reads as unseen.
    reached: dict[int, int] = {}

    # Each node is its covered ranks and chosen points; children are pushed
    # in reverse, so each subtree is finished before its next sibling starts.
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    try:
        for covered, chosen in pops(stack, shared, "piercing search"):
            if covered == all_mask:
                if len(chosen) < best_size:
                    best_size, best_points = len(chosen), chosen
                    if best_size == nu:
                        break
                continue
            if reached.get(covered, m) <= len(chosen):
                continue
            if covered in reached or len(reached) < MAX_COVERED_MASKS:
                reached[covered] = len(chosen)
            uncovered = all_mask & ~covered
            # Pairwise-disjoint uncovered sets each need their own point.
            if len(chosen) + len(greedy_packing(members, uncovered)) >= best_size:
                continue
            pick = next(r for r in branch_order if uncovered >> r & 1)
            if pick not in options:
                options[pick] = [(pt, col) for pt, col in candidates if col >> pick & 1]
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


def verify_partition(
    family: SetFamily, assignment: Sequence[int] | Mapping[int, int]
) -> tuple[bool, int | None]:
    """Check that every class of the assignment has a nonempty intersection.

    Returns ``(True, None)`` or ``(False, first_failing_class)`` with classes
    visited in sorted label order. A partial assignment is an error.
    """
    m = family.num_sets
    if isinstance(assignment, Mapping):
        missing = [i for i in range(m) if i not in assignment]
        if missing:
            raise ValueError(f"partial assignment: set {missing[0]} has no class")
        labels = [assignment[i] for i in range(m)]
    else:
        labels = list(assignment)
        if len(labels) != m:
            raise ValueError(f"partial assignment: {len(labels)} labels for {m} sets")
    intersections: dict[int, int] = {}
    for i, label in enumerate(labels):
        current = intersections.get(label, family.universe_mask)
        intersections[label] = current & family.members[i]
    for label in sorted(intersections):
        if intersections[label] == 0:
            return False, label
    return True, None


def check_solution(
    family: SetFamily, tau: int, points: Sequence[int], assignment: Sequence[int], optimal: bool,
    lower_bound: int | None,
) -> list[Check]:
    """Re-check a reported partition: classes consistent, set ``i`` containing
    ``points[assignment[i]]``, ``tau`` counting the points, the lower bound,
    if any, at most ``tau`` and equal to it exactly when ``optimal``, no point
    listed twice, no class that no set uses, then, on an interval family, the
    lower bound at most its packing number. A point out of range, or an
    assignment of the wrong length, raises ValueError."""
    mask_from_points(points, family.universe_size)
    consistent, failing = verify_partition(family, assignment)
    covered = all(
        0 <= cls < len(points) and family.members[i] >> points[cls] & 1
        for i, cls in enumerate(assignment)
    )
    bounded = (lower_bound is None or lower_bound <= tau) and optimal == (lower_bound == tau)
    nu = _interval_nu(family.members)
    seen: set[int] = set()
    repeat = next((p for p in points if p in seen or seen.add(p)), None)  # add returns None
    unused = sorted(set(range(len(points))).difference(assignment))
    fault = ("a set misses its class point" if not covered
             else f"tau {tau} but {len(points)} piercing points" if tau != len(points)
             else f"lower bound {lower_bound} does not fit tau {tau} with optimal={optimal}" if not bounded
             else f"point {repeat} listed twice" if repeat is not None
             else f"class {unused[0]} holds no set" if unused
             else f"lower bound {lower_bound} exceeds the interval family's packing number {nu}"
             if nu is not None and lower_bound is not None and lower_bound > nu
             else None)
    return [
        Check("pierce.partition-consistent", consistent,
              "all classes consistent" if consistent else f"class {failing} empty"),
        Check("pierce.classes-pierced", fault is None, fault or "every set contains its class point"),
    ]
