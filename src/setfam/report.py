"""Report files: the shape check and ``verify`` replay (``errors.SCHEMA_VERSION`` is their version).

``verify_report`` checks the shape of a whole report before it runs any
check: every key a check reads must be present with its JSON type, and every
set or point index must be in range for the family embedded in its result.
The first fault raises ReportFormatError naming its path. The checks live
beside the solvers whose answers they re-check; a well-formed report whose
claim is false yields a failed Check, not an error.
"""

from __future__ import annotations

import importlib
from typing import Any

from .errors import SCHEMA_VERSION, FamilyFormatError, ReportFormatError
from .family import POINT, SET_INDEX, Check, SetFamily, check_atoms, check_shape, family_from_dict

_SHATTER = {"n": int, "value": int, "witness": [SET_INDEX]}


def _check_witness(witness: Any, family: SetFamily, r: dict) -> list[Check]:
    """A chain must re-verify, reach ``n_target`` and match its recorded
    verdict; a stuck chain must be final and valid."""
    target, chain = r["target"], witness.chain_from_dict(r["chain"])
    if r["status"] == "chain":
        report, recorded_ok = witness.verify_witness(family, target, chain), r["verification"]["ok"]
        failures = list(report.failures)
        if chain.length != r["n_target"]:
            failures.append(f"chain has {chain.length} steps, n_target is {r['n_target']}")
        return [
            Check("witness.chain-valid", not failures, "; ".join(failures) or "all checks pass"),
            Check("witness.verdict-agrees", report.ok == recorded_ok,
                  f"recomputed ok={report.ok}, recorded ok={recorded_ok}"),
        ]
    remaining = witness.candidate_sets(family, target, chain)
    checks = [Check("witness.stuck-state-final", not remaining,
                    f"candidates {list(remaining)} still extend the chain" if remaining
                    else "no candidates extend the final state")]
    if chain.length:
        report = witness.verify_witness(family, target, chain)
        checks.append(Check("witness.partial-chain-valid", report.ok,
                            "; ".join(report.failures) or "all checks pass"))
    return checks


# Result kind -> (the module that holds its checks; the shape of what they
# read beside "family", or a function of that module and the payload that
# picks the shape; the checks, given that module, the family and the
# payload). A kind's module is imported only to verify a result of that kind.
_KINDS: dict[str, tuple[str, Any, Any]] = {
    "atoms": (
        "family",
        {"subfamily": [SET_INDEX], "include_zero_cell": bool, "atom_count": int,
         "atoms": [{"signature": str, "points": [POINT]}]},
        lambda _, family, r: [
            check_atoms(family, r["subfamily"], [(a["signature"], a["points"]) for a in r["atoms"]],
                        r["include_zero_cell"], r["atom_count"])
        ],
    ),
    "disjoint": (
        "pq",
        lambda _, r: {"sequence": [SET_INDEX], "avoid": [POINT]} if "sequence" in r
        else {"nu": int, "cap": (None, int), "witness": [SET_INDEX]},
        lambda pq, family, r: [
            pq.check_disjoint(family, r["sequence"], r["avoid"]) if "sequence" in r
            else pq.check_disjoint(family, r["witness"], nu=r["nu"], cap=r["cap"])
        ],
    ),
    "pierce": (
        "piercing",
        {"tau": int, "piercing_points": [POINT], "assignment": [int], "optimal": bool, "lower_bound": (None, int)},
        lambda piercing, family, r: piercing.check_solution(
            family, r["tau"], r["piercing_points"], r["assignment"], r["optimal"], r["lower_bound"]),
    ),
    "pq": (
        "pq",
        {"p": int, "q": int, "holds": bool, "violation": (None, [SET_INDEX]),
         "disjoint_witness": (None, [SET_INDEX])},
        lambda pq, family, r: pq.check_verdict(family, r["p"], r["q"], r["holds"], r["violation"],
                                               r["disjoint_witness"]),
    ),
    "shatter": (
        "shatter",
        lambda _, r: {"profile": [_SHATTER]} if "profile" in r else _SHATTER,
        lambda shatter, family, r: [
            shatter.check_values(family, [(e["n"], e["value"], e["witness"]) for e in r.get("profile", [r])])
        ],
    ),
    "witness": (
        "witness",
        lambda witness, r: {"target": [POINT], "n_target": int, "status": str, "chain": witness.CHAIN_SHAPE,
                            **({"verification": {"ok": bool}} if r.get("status") == "chain" else {})},
        _check_witness,
    ),
}


def _result_family(kind: str, module: Any, payload: Any) -> SetFamily:
    """Check the shape of one result and return the family it embeds."""
    where = f"results.{kind}"
    check_shape(payload, {"family": dict}, where)
    try:
        family = family_from_dict(payload["family"])
    except FamilyFormatError as exc:
        raise ReportFormatError(str(exc), where=f"{where}.family") from None
    shape = _KINDS[kind][1]
    check_shape(payload, shape(module, payload) if callable(shape) else shape, where, family)
    return family


def verify_report(report: Any) -> list[Check]:
    """Check the shape of a parsed report, then replay each result's checks in sorted kind order.

    A kind with no checks yields one failed Check; a malformed report raises ReportFormatError."""
    check_shape(report, {"schema_version": str, "results": dict}, "")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ReportFormatError(f"unsupported report schema {report['schema_version']!r}",
                                where="schema_version")
    results = report["results"]
    modules = {kind: importlib.import_module(f"{__package__}.{_KINDS[kind][0]}")
               for kind in sorted(results) if kind in _KINDS}
    families = {kind: _result_family(kind, module, results[kind]) for kind, module in modules.items()}
    checks: list[Check] = []
    for kind in sorted(results):
        if kind in _KINDS:
            try:
                checks += _KINDS[kind][2](modules[kind], families[kind], results[kind])
            except ValueError as exc:  # a fault the shape check cannot see, found by a check
                raise ReportFormatError(str(exc), where=f"results.{kind}") from None
        else:
            checks.append(Check(f"{kind}.unknown", False, "no checker for this result kind"))
    return checks
