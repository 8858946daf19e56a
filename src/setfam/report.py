"""Report files: the shape check and ``verify`` replay (``errors.SCHEMA_VERSION`` is their version).

``verify_report`` checks the shape of a whole report before it runs any
check: every key a check reads must be present with its JSON type, and every
set or point index must be in range for the family embedded in its result.
The first fault raises ReportFormatError naming its path. ``_KINDS`` maps
each result kind to its shape and its check function; each check function
calls the checks that live beside the solver whose answer they re-check,
except the witness row's, which are written here. A well-formed report whose
claim is false, or that holds no result, yields a failed Check, not an error.
"""

from __future__ import annotations

from typing import Any

from .errors import SCHEMA_VERSION, FamilyFormatError, ReportFormatError
from .family import POINT, SET_INDEX, Check, SetFamily, check_atoms, check_shape, family_from_dict

_SHATTER = {"n": int, "value": int, "witness": [SET_INDEX]}

# Each check function imports its solver module in its own body, so that
# ``verify`` loads only the modules of the kinds a report holds.


def _check_atoms(family: SetFamily, r: dict) -> list[Check]:
    return [check_atoms(family, r["subfamily"], [(a["signature"], a["points"]) for a in r["atoms"]],
                        r["include_zero_cell"], r["atom_count"])]


def _check_disjoint(family: SetFamily, r: dict) -> list[Check]:
    from .pq import check_disjoint

    return [check_disjoint(family, r["sequence"], r["avoid"]) if "sequence" in r
            else check_disjoint(family, r["witness"], nu=r["nu"], cap=r["cap"])]


def _check_pierce(family: SetFamily, r: dict) -> list[Check]:
    from .piercing import check_solution

    return check_solution(family, r["tau"], r["piercing_points"], r["assignment"], r["optimal"], r["lower_bound"])


def _check_pq(family: SetFamily, r: dict) -> list[Check]:
    from .pq import check_verdict

    return check_verdict(family, r["p"], r["q"], r["holds"], r["violation"], r["disjoint_witness"])


def _check_shatter(family: SetFamily, r: dict) -> list[Check]:
    from .shatter import check_profile, check_values

    check = check_profile if "profile" in r else check_values
    return [check(family, [(e["n"], e["value"], e["witness"]) for e in r.get("profile", [r])])]


def _witness_shape(r: dict) -> dict:
    from .witness import CHAIN_SHAPE, STUCK_SHAPE, VERIFICATION_SHAPE

    return {"target": [POINT], "n_target": int, "status": frozenset(("chain", "stuck")), "chain": CHAIN_SHAPE,
            **({"verification": VERIFICATION_SHAPE} if r.get("status") == "chain"
               else {"verification": (None, VERIFICATION_SHAPE), "stuck": STUCK_SHAPE})}


def _first_difference(recorded: dict | None, recomputed: dict | None, block: str) -> str | None:
    """Where a recorded ``block`` departs from ``recomputed``, the report form
    of its recomputation: the first field of that form that differs, or the
    whole block when just one of the two is null (as a verification is for a
    chain with no steps). ``ok`` is the caller's to compare."""
    key = (block if (recorded is None) != (recomputed is None)
           else next((key for key in recomputed or () if key != "ok" and recorded[key] != recomputed[key]), None))
    return key and f"recorded {key} differs from the recomputed {block}"


def _check_witness(family: SetFamily, r: dict) -> list[Check]:
    """A chain must re-verify, reach ``n_target``, and match its recorded
    verification block, field by field and in its verdict; a stuck chain
    must be final and short of ``n_target``, its certificate the one the
    builder gives it, and its partial chain valid and recorded as
    recomputed."""
    from . import witness

    target, chain, recorded = r["target"], witness.chain_from_checked(r["chain"]), r["verification"]
    stuck = r["status"] == "stuck"
    certificate = witness.stuck_certificate(family, target, chain) if stuck else None
    report = witness.verify_witness(family, target, chain) if chain.length or not stuck else None
    failures = list(report.failures if report else ())
    if not stuck and chain.length != r["n_target"]:
        failures.append(f"chain has {chain.length} steps, n_target is {r['n_target']}")
    fault = "; ".join(failures) or _first_difference(
        recorded, witness.verification_to_dict(report) if report else None, "verification")
    if not stuck:
        return [
            Check("witness.chain-valid", not fault, fault or "all checks pass"),
            Check("witness.verdict-agrees", report.ok == recorded["ok"],
                  f"recomputed ok={report.ok}, recorded ok={recorded['ok']}"),
        ]
    remaining = certificate.candidate_trace[-1][1]
    differs = _first_difference(r["stuck"], witness.stuck_to_dict(certificate), "certificate")
    short = chain.length < r["n_target"]
    checks = [Check("witness.stuck-state-final", not remaining and not differs and short,
                    f"candidates {list(remaining)} still extend the chain" if remaining
                    else differs if differs
                    else f"n_target {r['n_target']} is not above the chain's {chain.length} steps" if not short
                    else "no candidates extend the final state")]
    if report is not None or recorded is not None:
        if not fault and recorded["ok"] != report.ok:
            fault = f"recomputed ok={report.ok}, recorded ok={recorded['ok']}"
        checks.append(Check("witness.partial-chain-valid", not fault, fault or "all checks pass"))
    return checks


# Result kind -> (the shape of what its checks read beside "family", or a
# function of the payload that picks the shape; its check function).
_KINDS: dict[str, tuple[Any, Any]] = {
    "atoms": ({"subfamily": [SET_INDEX], "include_zero_cell": bool, "atom_count": int,
               "atoms": [{"signature": str, "points": [POINT]}]}, _check_atoms),
    "disjoint": (lambda r: {"sequence": [SET_INDEX], "avoid": [POINT]} if "sequence" in r
                 else {"nu": int, "cap": (None, int), "witness": [SET_INDEX]}, _check_disjoint),
    "pierce": ({"tau": int, "piercing_points": [POINT], "assignment": [int], "optimal": bool,
                "lower_bound": (None, int)}, _check_pierce),
    "pq": ({"p": int, "q": int, "holds": bool, "violation": (None, [SET_INDEX]),
            "disjoint_witness": (None, [SET_INDEX])}, _check_pq),
    "shatter": (lambda r: {"profile": [_SHATTER]} if "profile" in r else _SHATTER, _check_shatter),
    "witness": (_witness_shape, _check_witness),
}


def _result_family(kind: str, payload: Any) -> SetFamily:
    """Check the shape of one result and return the family it embeds."""
    where = f"results.{kind}"
    check_shape(payload, {"family": dict}, where)
    try:
        family = family_from_dict(payload["family"])
    except FamilyFormatError as exc:
        raise ReportFormatError(str(exc), where=f"{where}.family") from None
    shape = _KINDS[kind][0]
    check_shape(payload, shape(payload) if callable(shape) else shape, where, family)
    return family


def verify_report(report: Any) -> list[Check]:
    """Check the shape of a parsed report, then replay each result's checks in sorted kind order.

    A report with no results, or a kind with no checks, yields one failed
    Check; a malformed report raises ReportFormatError."""
    check_shape(report, {"schema_version": str, "results": dict}, "")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ReportFormatError(f"unsupported report schema {report['schema_version']!r}",
                                where="schema_version")
    results = report["results"]
    if not results:
        return [Check("report.no-results", False, "report has no results")]
    families = {kind: _result_family(kind, results[kind]) for kind in sorted(results) if kind in _KINDS}
    checks: list[Check] = []
    for kind in sorted(results):
        if kind in _KINDS:
            try:
                checks += _KINDS[kind][1](families[kind], results[kind])
            except ValueError as exc:  # a fault the shape check cannot see, found by a check
                raise ReportFormatError(str(exc), where=f"results.{kind}") from None
        else:
            checks.append(Check(f"{kind}.unknown", False, "no checker for this result kind"))
    return checks
