"""Reference checks for every output the benchmark times.

Each check recomputes what it needs from the raw set masks with code of its
own, so it shares no code path with the solvers under test, and no check
compares against a stored copy of an earlier output. A check returns None
when the output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

# Largest C(m, n) for which a shatter value is re-derived by plain enumeration
# of every n-subset; above it only the recount and the closed-form bounds apply.
ENUMERATION_LIMIT = 60_000


def bits(mask: int) -> list[int]:
    """Ascending points of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(points) -> int:
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


class Ref:
    """One input family as raw masks, with its per-point membership columns."""

    def __init__(self, members, universe: int, extension: int = 0, target: int | None = None):
        self.members = tuple(members)
        self.universe = universe
        self.base = ((1 << universe) - 1) & ~extension
        self.target = target

    @classmethod
    def of(cls, family) -> "Ref":
        return cls(family.members, family.universe_size, family.extension_mask, family.external_target)

    @classmethod
    def from_report(cls, obj: dict) -> "Ref":
        target = obj.get("external_target")
        return cls(
            [mask_of(s["points"]) for s in obj["sets"]],
            obj["universe"],
            mask_of(obj.get("extension", [])),
            None if target is None else mask_of(target),
        )

    @cached_property
    def columns(self) -> list[int]:
        """Column of every point: bit i is set when set i holds the point."""
        cols = [0] * self.universe
        for i, mem in enumerate(self.members):
            for p in bits(mem):
                cols[p] |= 1 << i
        return cols

    @cached_property
    def distinct_columns(self) -> tuple[int, ...]:
        """Each distinct column once, in the order of its lowest point."""
        return tuple(dict.fromkeys(self.columns))

    def traces(self, subset_mask: int) -> int:
        """Number of distinct membership traces on a subfamily, zero trace included."""
        return len({c & subset_mask for c in self.distinct_columns})


# --------------------------------------------------------------------------
# packing and piercing


def interval_packing(members) -> int:
    """Packing number of a family of intervals by the right-endpoint greedy."""
    count, end = 0, -1
    for hi, lo in sorted((m.bit_length() - 1, (m & -m).bit_length() - 1) for m in members):
        if lo > end:
            count, end = count + 1, hi
    return count


def greedy_packing(members) -> int:
    """Size of a maximal pairwise-disjoint subfamily taken in index order."""
    count, used = 0, 0
    for mem in members:
        if not mem & used:
            count, used = count + 1, used | mem
    return count


def greedy_cover_size(ref: Ref) -> int:
    """Points taken by the greedy that always picks the point in the most
    unpierced sets, ties to the lowest point."""
    unpierced = (1 << len(ref.members)) - 1
    taken = 0
    while unpierced:
        best = max(ref.distinct_columns, key=lambda col: (col & unpierced).bit_count())
        if not best & unpierced:
            raise ValueError("a set has no point")
        unpierced &= ~best
        taken += 1
    return taken


def check_intervals(ref: Ref) -> str | None:
    for i, m in enumerate(ref.members):
        lo = (m & -m).bit_length() - 1
        if not m or m != (1 << m.bit_length()) - (1 << lo):
            return f"set {i} is not an interval"
    return None


def check_packing(ref: Ref, witness, size: int) -> str | None:
    if len(witness) != size or len(set(witness)) != size:
        return f"packing witness {list(witness)} does not hold {size} distinct sets"
    used = 0
    for i in witness:
        if not 0 <= i < len(ref.members) or ref.members[i] & used:
            return f"packing witness {list(witness)} is not pairwise disjoint"
        used |= ref.members[i]
    return None


def check_cover(ref: Ref, points, assignment) -> str | None:
    """Every set contains the piercing point of its class."""
    if len(assignment) != len(ref.members):
        return f"assignment has {len(assignment)} labels for {len(ref.members)} sets"
    if len(set(points)) != len(points):
        return "piercing points repeat"
    for i, cls in enumerate(assignment):
        if not 0 <= cls < len(points) or not ref.members[i] >> points[cls] & 1:
            return f"set {i} does not contain the point of its class {cls}"
    return None


# --------------------------------------------------------------------------
# atoms and shatter


def atom_cells(ref: Ref, subfamily) -> dict[str, int]:
    """Signature -> point mask, grouping every point by its membership trace."""
    sub = mask_of(subfamily)
    groups: dict[int, int] = {}
    for p, col in enumerate(ref.columns):
        key = col & sub
        groups[key] = groups.get(key, 0) | 1 << p
    return {"".join("1" if key >> i & 1 else "0" for i in subfamily): mask for key, mask in groups.items()}


def check_atoms(ref: Ref, subfamily, cells: dict[str, int]) -> str | None:
    expected = atom_cells(ref, subfamily)
    if dict(cells) != expected:
        return f"{len(cells)} atom cells differ from the {len(expected)} traced cells"
    return None


def check_shatter(ref: Ref, n: int, value: int, witness, shape: str, exact: bool) -> str | None:
    """Recount the witness, apply the closed-form bounds, enumerate when small."""
    m = len(ref.members)
    if len(witness) != n or len(set(witness)) != n or not all(0 <= i < m for i in witness):
        return f"witness {list(witness)} is not a subfamily of size {n}"
    recount = ref.traces(mask_of(witness))
    if recount != value:
        return f"witness {list(witness)} has {recount} atoms, reported {value}"
    if value > min(2**n, ref.universe):
        return f"value {value} exceeds min(2^{n}, {ref.universe})"
    if shape == "intervals" and value > 2 * n + 1:
        return f"interval value {value} exceeds 2n+1 = {2 * n + 1}"
    if shape == "halfplanes" and value != 1 + n + math.comb(n, 2):
        return f"halfplane value {value} differs from 1 + n + C(n,2) = {1 + n + math.comb(n, 2)}"
    if exact and math.comb(m, n) <= ENUMERATION_LIMIT:
        best = max(ref.traces(mask_of(c)) for c in itertools.combinations(range(m), n))
        if best != value:
            return f"enumeration of all {n}-subsets gives {best}, reported {value}"
    return None


# --------------------------------------------------------------------------
# witness chains


def check_chain(ref: Ref, steps, depth: int) -> str | None:
    """Steps are (set_index, probes) pairs; checks the quadratic certificate."""
    n = len(steps)
    if n != depth:
        return f"chain reached length {n} of {depth}"
    sets = [ref.members[s] for s, _ in steps]
    for i, (_, probes) in enumerate(steps):
        if len(probes) != i + 1:
            return f"step {i + 1} carries {len(probes)} probes"
        for p in probes:
            if not ref.base >> p & 1:
                return f"probe {p} of step {i + 1} is not a base point"
            if not sets[i] >> p & 1:
                return f"probe {p} of step {i + 1} lies outside its own set"
            if any(later >> p & 1 for later in sets[i + 1 :]):
                return f"probe {p} of step {i + 1} lies in a later set"
    traces = {tuple(s >> p & 1 for s in sets) for _, probes in steps for p in probes}
    if len(traces) != n * (n + 1) // 2:
        return f"{len(traces)} distinct probe traces, need {n * (n + 1) // 2}"
    return None


def chain_steps(chain) -> list[tuple[int, tuple[int, ...]]]:
    return [(step.set_index, tuple(step.probes)) for step in chain.steps]


def distinct_probe_traces(ref: Ref, steps) -> int:
    sets = [ref.members[s] for s, _ in steps]
    return len({tuple(s >> p & 1 for s in sets) for _, probes in steps for p in probes})


# --------------------------------------------------------------------------
# self-test


def self_test(setfam) -> tuple[list[str], list[str]]:
    """Corrupt one output of each kind and see whether its check notices.

    Returns the corruptions a check accepted, and the untouched outputs
    that already fail their check, which is a fault of the program.
    """
    missed: list[str] = []
    wrong: list[str] = []

    def expect(label: str, good: str | None, bad: str | None) -> None:
        if good is not None:
            wrong.append(f"self-test input for '{label}': {good}")
        elif bad is None:
            missed.append(f"{label}: the check accepts the corrupted output")

    lines = setfam.generators.gen_intervals(12, 40, 7)
    ref = Ref.of(lines)
    sol = setfam.piercing.transversal_exact(lines)
    expect(
        "drop a piercing point",
        check_cover(ref, sol.piercing_points, sol.assignment),
        check_cover(ref, sol.piercing_points[:-1], sol.assignment),
    )

    rand = setfam.generators.gen_random(6, 24, 0.4, 7)
    ref = Ref.of(rand)
    cells = dict(setfam.family.boolean_atoms(rand, [0, 1, 2]).cells)
    (sig_a, mask_a), (sig_b, mask_b) = list(cells.items())[:2]
    merged = {k: v for k, v in cells.items() if k != sig_b}
    merged[sig_a] = mask_a | mask_b
    expect("merge two atom cells", check_atoms(ref, [0, 1, 2], cells), check_atoms(ref, [0, 1, 2], merged))

    res = setfam.shatter.dual_shatter(rand, 3)
    expect(
        "raise a shatter value by one",
        check_shatter(ref, 3, res.value, res.witness, "random", True),
        check_shatter(ref, 3, res.value + 1, res.witness, "random", True),
    )

    rich, target = setfam.generators.gen_witness_rich(4, 7)
    ref = Ref.of(rich)
    steps = chain_steps(setfam.witness.build_quadratic_witness(rich, target, 4))
    swapped = [list(probes) for _, probes in steps]
    swapped[1][0], swapped[2][0] = swapped[2][0], swapped[1][0]
    bad_steps = [(s, tuple(p)) for (s, _), p in zip(steps, swapped)]
    expect("swap two probes of a chain", check_chain(ref, steps, 4), check_chain(ref, bad_steps, 4))
    return missed, wrong
