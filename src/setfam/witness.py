"""Quadratic lower-bound witness chains and their independent verifier.

Fix a family and a nonempty *external target* B living entirely in the
extension points (so no base point belongs to it). A witness chain of length
n is a sequence of sets, where step i also records i base-point *probes*,
one inside each of the first i atoms that meet B. A chain whose checks pass
exhibits n(n+1)/2 points with pairwise-distinct membership traces on its n
sets, which certifies that the dual shatter value at size n is at least
n(n+1)/2.

The builder grows the chain greedily: at each step it keeps only the sets
that (in this order of blame when none survives)

1. split B inside some live atom -- both ``B & atom & a`` and
   ``B & atom & ~a`` nonempty;
2. meet every live atom in at least one base point, which guarantees the
   probe picks always succeed;
3. avoid every probe placed at earlier steps;

and then takes the lowest-index survivor, with the lowest base point as each
probe; the exhaustive builder backtracks over every survivor in index order
in the same search. "Live atom" means an atom of the current chain sets that
meets B; each step splits the live atoms by the new set with the kernel's
``split_cells`` and keeps the parts that meet B.
``verify_witness`` recomputes every condition from scratch, reading each
point's trace off the chain sets' own rows rather than the builder's atom
bookkeeping.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterable, NamedTuple

from .errors import DEFAULT_BUDGET, pops
from .family import POINT, SET_INDEX, Cell, SetFamily, Signature, _check_subfamily, check_shape
from .family import mask_from_points, point_traces, points_from_mask, split_cells

REASON_NO_SPLIT = "no splitting set"
REASON_NO_BASE_HIT = "no set meeting every live atom in base points"
REASON_NO_PROBE_AVOID = "no set avoiding prior probe points"

_STAGE_SPLIT = "splits_target_within_a_live_atom"
_STAGE_BASE = "also_meets_every_live_atom_in_base_points"
_STAGE_AVOID = "also_avoids_prior_probe_points"


class ChainStep(NamedTuple):
    set_index: int
    probes: tuple[int, ...]


class WitnessChain(NamedTuple):
    """Chain steps plus per-step bookkeeping.

    ``atom_history[i]`` lists the signatures of the atoms of the first i+1
    chain sets that meet the target, in ascending signature order, and
    ``target_atom_counts[i]`` is their number. The counts are strictly
    increasing and entry i is at least i+2.
    """

    steps: tuple[ChainStep, ...] = ()
    atom_history: tuple[tuple[Signature, ...], ...] = ()
    target_atom_counts: tuple[int, ...] = ()

    @property
    def length(self) -> int:
        return len(self.steps)

    def set_indices(self) -> tuple[int, ...]:
        return tuple(step.set_index for step in self.steps)

    def probe_points(self) -> tuple[int, ...]:
        return tuple(p for step in self.steps for p in step.probes)


class StuckCertificate(NamedTuple):
    """Evidence that the construction cannot extend past ``reached_length``.

    ``candidate_trace`` records the surviving sets after each filter stage in
    blame order; the final stage is empty, and re-running ``candidate_sets``
    on ``chain`` returns no candidates.
    """

    reached_length: int
    reason: str
    candidate_trace: tuple[tuple[str, tuple[int, ...]], ...]
    chain: WitnessChain


class VerificationReport(NamedTuple):
    """Outcome of the independent chain checks, one flag per check.

    ``step_separation_ok``: each step's set contains its own probes and none
    from earlier steps. ``within_step_distinct_ok``: inside every step the
    probes have pairwise-distinct traces on the earlier chain sets.
    ``all_traces_distinct_ok``: all probes have pairwise-distinct traces on
    the full chain. ``quadratic_bound_ok``: the distinct-trace count reaches
    n(n+1)/2. ``target_counts_ok``: the recorded live-atom counts and
    signatures match a from-scratch recount, grow strictly, and stay above
    the step-index floor.
    """

    length: int
    step_separation_ok: bool
    within_step_distinct_ok: bool
    all_traces_distinct_ok: bool
    distinct_trace_count: int
    required_trace_count: int
    quadratic_bound_ok: bool
    target_counts_ok: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.step_separation_ok
            and self.within_step_distinct_ok
            and self.all_traces_distinct_ok
            and self.quadratic_bound_ok
            and self.target_counts_ok
        )


def _target_mask(family: SetFamily, target: Iterable[int], require_nonempty: bool) -> int:
    mask = mask_from_points(target, family.universe_size)
    if mask & family.base_mask:
        bad = points_from_mask(mask & family.base_mask)[0]
        raise ValueError(f"target point {bad} is a base point; the target must lie in the extension")
    if require_nonempty and mask == 0:
        raise ValueError("target must be nonempty")
    return mask


def _validate_chain(family: SetFamily, chain: WitnessChain) -> None:
    _check_subfamily(family, chain.set_indices())
    if len(chain.atom_history) != chain.length or len(chain.target_atom_counts) != chain.length:
        raise ValueError("chain bookkeeping out of sync with its steps")
    for i, step in enumerate(chain.steps, start=1):
        if len(step.probes) != i:
            raise ValueError(f"step {i} must carry {i} probes, found {len(step.probes)}")
        off_base = mask_from_points(step.probes, family.universe_size) & ~family.base_mask
        if off_base:
            raise ValueError(f"probe {points_from_mask(off_base)[0]} is not a base point")


# The live atoms of a chain: (signature, points) of each atom of its sets that
# meets the target, in ascending signature order.
_Atoms = list[Cell]


def _refine(atoms: _Atoms, mem: int, target_mask: int) -> _Atoms:
    """The live atoms after one more set: each live atom split by it, keeping
    the parts that meet the target."""
    return [cell for cell in split_cells(atoms, mem) if cell[1] & target_mask]


def _candidate_stages(
    family: SetFamily, target_mask: int, chain: WitnessChain, atoms: _Atoms
) -> tuple[list[int], list[int], list[int]]:
    probe_mask = mask_from_points(chain.probe_points(), family.universe_size)
    base = family.base_mask
    # Every live atom lies inside or outside each chain set, so none splits one.
    chain_sets = set(chain.set_indices())
    splitters: list[int] = []
    base_hitters: list[int] = []
    full: list[int] = []
    for t in range(family.num_sets):
        if t in chain_sets:
            continue
        mem = family.members[t]
        if not any(mask & target_mask & mem and mask & target_mask & ~mem for _, mask in atoms):
            continue
        splitters.append(t)
        if not all(mask & mem & base for _, mask in atoms):
            continue
        base_hitters.append(t)
        if mem & probe_mask:
            continue
        full.append(t)
    return splitters, base_hitters, full


def candidate_sets(
    family: SetFamily, target: Iterable[int], chain: WitnessChain = WitnessChain()
) -> tuple[int, ...]:
    """Sets eligible to extend the chain, in declaration order.

    A set qualifies when it avoids all prior probes, meets every live atom in
    at least one base point, and splits the target inside some live atom.
    """
    return stuck_certificate(family, target, chain).candidate_trace[-1][1]


def stuck_certificate(family: SetFamily, target: Iterable[int], chain: WitnessChain) -> StuckCertificate:
    """The certificate the builder gives ``chain`` if it stops there: the
    candidate stages of the chain, its live atoms rebuilt from its sets, and
    the reason the first empty stage names."""
    mask = _target_mask(family, target, require_nonempty=False)
    _validate_chain(family, chain)
    atoms = [("", family.universe_mask)]
    for i in chain.set_indices():
        atoms = _refine(atoms, family.members[i], mask)
    return _stuck(chain, _candidate_stages(family, mask, chain, atoms))


def _extend(
    family: SetFamily, target_mask: int, chain: WitnessChain, set_index: int, atoms: _Atoms
) -> tuple[WitnessChain, _Atoms]:
    """Append ``set_index`` to a chain with live atoms ``atoms``; return the new
    chain and its live atoms."""
    step_number = chain.length + 1
    mem = family.members[set_index]
    base = family.base_mask
    probes = []
    for j in range(step_number):
        pool = atoms[j][1] & mem & base
        assert pool, "candidate filtering guarantees a base point in every live atom"
        probes.append((pool & -pool).bit_length() - 1)
    after = _refine(atoms, mem, target_mask)
    return WitnessChain(
        chain.steps + (ChainStep(set_index, tuple(probes)),),
        chain.atom_history + (tuple(sig for sig, _ in after),),
        chain.target_atom_counts + (len(after),),
    ), after


def _stuck(chain: WitnessChain, stages: tuple[list[int], list[int], list[int]]) -> StuckCertificate:
    splitters, base_hitters, full = stages
    if not splitters:
        reason = REASON_NO_SPLIT
    elif not base_hitters:
        reason = REASON_NO_BASE_HIT
    else:
        reason = REASON_NO_PROBE_AVOID
    trace = (
        (_STAGE_SPLIT, tuple(splitters)),
        (_STAGE_BASE, tuple(base_hitters)),
        (_STAGE_AVOID, tuple(full)),
    )
    return StuckCertificate(chain.length, reason, trace, chain)


def build_quadratic_witness(
    family: SetFamily,
    target: Iterable[int],
    n_target: int,
    exhaustive: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessChain | StuckCertificate:
    """Grow a witness chain of length ``n_target``, or certify where it stuck.

    One depth-first search over chains, in lexicographic order of their sets,
    builds both. The default is greedy: each chain is extended only by its
    lowest-index candidate, so the search is its own first descent and
    identical inputs always yield the identical chain. ``exhaustive=True``
    extends each chain by every candidate and returns the first chain
    reaching ``n_target``. Otherwise the certificate is for the first deepest
    chain found. BudgetExceededError is raised if the search pops more than
    ``budget`` nodes.
    """
    target_mask = _target_mask(family, target, require_nonempty=True)
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    deepest = None
    # Each node is its parent chain with that chain's live atoms and the set
    # that extends it (None at the root), extended only when popped; children
    # are pushed in reverse, so each subtree is finished before its next
    # sibling starts.
    stack: list[tuple[WitnessChain, _Atoms, int | None]] = [
        (WitnessChain(), [("", family.universe_mask)], None)
    ]
    for chain, atoms, t in pops(stack, budget, "witness search"):
        if t is not None:
            chain, atoms = _extend(family, target_mask, chain, t, atoms)
        if chain.length == n_target:
            return chain
        stages = _candidate_stages(family, target_mask, chain, atoms)
        if deepest is None or chain.length > deepest[0].length:
            deepest = chain, stages
        full = stages[2] if exhaustive else stages[2][:1]
        stack += [(chain, atoms, s) for s in reversed(full)]
    return _stuck(*deepest)


def verify_witness(family: SetFamily, target: Iterable[int], chain: WitnessChain) -> VerificationReport:
    """Re-check a chain from scratch and report each condition separately.

    Every point's trace on the chain comes from one ``point_traces`` pass.
    The live atoms after step i are the distinct i-prefixes of the target's
    traces, each level built from the level after it. The verifier calls
    none of the builder's atom code (``cells``, ``split_cells``,
    ``transpose``). Structural defects (wrong probe counts, non-base probes,
    bad indices, a set listed twice) raise instead of reporting.
    """
    target_mask = _target_mask(family, target, require_nonempty=True)
    _validate_chain(family, chain)
    n = chain.length
    failures: list[str] = []
    # Character j of a point's trace is its membership in the set of step
    # j + 1, so its first i characters are its trace on the first i sets.
    traces = point_traces(family, chain.set_indices())

    for i, step in enumerate(chain.steps):
        for p in step.probes:
            if traces[p][i] == "0":
                failures.append(f"probe {p} of step {i + 1} lies outside its own set")
        for later in range(i + 1, n):
            for p in step.probes:
                if traces[p][later] == "1":
                    failures.append(f"set of step {later + 1} contains probe {p} from earlier step {i + 1}")
    separation_ok = not failures

    all_probes = chain.probe_points()
    before = len(failures)
    for i in range(1, n):
        seen: dict[str, int] = {}
        for p in chain.steps[i].probes:
            t = traces[p][:i]
            if t in seen:
                failures.append(f"probes {seen[t]} and {p} of step {i + 1} share trace {t!r} on the earlier sets")
            else:
                seen[t] = p
    within_ok = len(failures) == before

    distinct = len({traces[p] for p in all_probes})
    all_distinct_ok = distinct == len(all_probes)
    if not all_distinct_ok:
        failures.append("probe traces on the full chain are not pairwise distinct")
    required = n * (n + 1) // 2
    bound_ok = distinct >= required
    if not bound_ok:
        failures.append(f"distinct probe traces {distinct} fall short of the required {required}")

    # The live atoms after step i are the distinct i-prefixes of the target's
    # traces, built from the longest down: the prefixes of a sorted level are
    # sorted, so each level is the deduplicated prefixes of the level after it.
    in_target = map("1".__eq__, format(target_mask, f"0{family.universe_size}b")[::-1])
    live_atoms = [sorted(set(compress(traces, in_target)))]
    for i in range(n - 1, 0, -1):
        live_atoms.append(list(dict.fromkeys([t[:i] for t in live_atoms[-1]])))
    before = len(failures)
    previous = 0
    for i, sigs in zip(range(1, n + 1), reversed(live_atoms)):
        count = len(sigs)
        recorded = chain.target_atom_counts[i - 1]
        if recorded != count:
            failures.append(f"recorded live-atom count {recorded} at step {i} differs from recomputed {count}")
        if count < i + 1:
            failures.append(f"live-atom count {count} at step {i} is below the floor {i + 1}")
        if count <= previous:
            failures.append(f"live-atom counts fail to increase at step {i}")
        previous = count
        if tuple(chain.atom_history[i - 1]) != tuple(sigs):
            failures.append(f"recorded atom signatures at step {i} differ from recomputed atoms")
    counts_ok = len(failures) == before

    return VerificationReport(
        n,
        separation_ok,
        within_ok,
        all_distinct_ok,
        distinct,
        required,
        bound_ok,
        counts_ok,
        tuple(failures),
    )


# --------------------------------------------------------------------------
# report-file conversion


def chain_to_dict(chain: WitnessChain) -> dict[str, Any]:
    return {
        "steps": [{"set_index": s.set_index, "probes": list(s.probes)} for s in chain.steps],
        "atom_history": [list(sigs) for sigs in chain.atom_history],
        "target_atom_counts": list(chain.target_atom_counts),
    }


def verification_to_dict(report: VerificationReport) -> dict[str, Any]:
    """A verification's report-file form: its fields, ``failures`` as a list, and ``ok``."""
    return {**report._asdict(), "failures": list(report.failures), "ok": report.ok}


def stuck_to_dict(certificate: StuckCertificate) -> dict[str, Any]:
    """A certificate's report-file form, its chain left out."""
    return {"reached_length": certificate.reached_length, "reason": certificate.reason,
            "candidate_trace": {stage: list(sets) for stage, sets in certificate.candidate_trace}}


# The report-file forms of a chain, of its verification and of a stuck
# certificate, for ``check_shape``. A stuck report whose chain has no steps
# records a null verification.
CHAIN_SHAPE = {
    "steps": [{"set_index": SET_INDEX, "probes": [POINT]}],
    "atom_history": [[str]],
    "target_atom_counts": [int],
}
VERIFICATION_SHAPE = {"length": int, "step_separation_ok": bool, "within_step_distinct_ok": bool,
                      "all_traces_distinct_ok": bool, "distinct_trace_count": int, "required_trace_count": int,
                      "quadratic_bound_ok": bool, "target_counts_ok": bool, "failures": [str], "ok": bool}
STUCK_SHAPE = {"reached_length": int, "reason": str,
               "candidate_trace": {stage: [SET_INDEX] for stage in (_STAGE_SPLIT, _STAGE_BASE, _STAGE_AVOID)}}


def chain_from_dict(obj: Any) -> WitnessChain:
    """Rebuild a chain from ``chain_to_dict`` output; ReportFormatError if malformed."""
    check_shape(obj, CHAIN_SHAPE, "chain")
    return chain_from_checked(obj)


def chain_from_checked(obj: dict) -> WitnessChain:
    """Rebuild a chain from a dict already checked against ``CHAIN_SHAPE``."""
    steps = tuple(ChainStep(s["set_index"], tuple(s["probes"])) for s in obj["steps"])
    history = tuple(tuple(sigs) for sigs in obj["atom_history"])
    return WitnessChain(steps, history, tuple(obj["target_atom_counts"]))
