"""Batch command-line front end.

Subcommands: atoms, shatter, pq, pierce, disjoint, witness, generate,
verify. Results go to standard output as text; ``--out`` additionally writes
a JSON report (schema version "v1") that embeds the input family, so
``verify`` can replay the cheap checks on any report without the original
file. Family files and reports are written by ``family.json_text`` and
read by ``family.load_json``. Exit codes: 0 success, 1 negative verdict of
``pq`` or ``witness`` under ``--strict`` (and any failed ``verify`` check),
2 input errors and malformed reports (a JSON syntax error names its line and
column), 3 budget exceeded. Each subparser names its handler
(``set_defaults(run=...)``), and the handler returns its exit status.

``main`` runs the whole command, from the option checks through the report
write to the text, inside one ``try`` whose handlers are the only mapping
from errors to exit codes. The report is written before the text is printed,
and the text goes out in one flushed write, so a report or family file that
cannot be written, or a standard output closed before the text is read, exits
2 with ``error: ...`` and no traceback; a failed report write prints nothing.

Each subcommand declares only the options it reads: ``--budget`` belongs to
the exact searches (shatter, pq, pierce, disjoint, witness) and ``--strict``
to the two subcommands whose result can be negative (pq, witness). An option
that only some modes of its subcommand read (``_ONLY_IN``) exits 2 when given
in another mode, as an undeclared one does.

Reports are byte-stable for fixed inputs and flags except for the
``wall_time_s`` field.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Any

from .errors import DEFAULT_BUDGET, SCHEMA_VERSION, BudgetExceededError, SetFamError
from .family import (
    SetFamily, boolean_atoms, family_to_dict, json_text, load_json, parse_family, points_from_mask, serialize_family,
)


def _int_list(text: str) -> list[int]:
    text = text.strip()
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="setfam",
        description="Exact combinatorics workbench for finite set families.",
    )
    top.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads (results are deterministic regardless)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        p.add_argument("--in", dest="input", required=True, help="family file")
        p.add_argument("--out", help="write a JSON report to this path")
        if "budget" in flags:  # absent unless given: main tells a given --budget from the default
            p.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                           help="node budget shared by the command's searches (default 10^7)")
        if "strict" in flags:
            p.add_argument("--strict", action="store_true", help="exit 1 on a negative verdict")

    p = sub.add_parser("atoms", help="boolean atoms of a subfamily")
    p.set_defaults(run=_cmd_atoms)
    common(p)
    p.add_argument("--sets", type=_int_list, default=None, help="subfamily indices (default: all)")
    p.add_argument("--drop-zero-cell", action="store_true", help="drop the all-complements cell")

    p = sub.add_parser("shatter", help="dual shatter value or growth profile")
    p.set_defaults(run=_cmd_shatter)
    common(p, "budget")
    p.add_argument("--n", type=int, required=True, help="subfamily size (or n_max with --profile)")
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.add_argument("--profile", action="store_true", help="profile n = 1..n and fit an exponent")

    p = sub.add_parser("pq", help="decide the (p,q)-property")
    p.set_defaults(run=_cmd_pq)
    common(p, "budget", "strict")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("pierce", help="minimum partition into consistent classes")
    p.set_defaults(run=_cmd_pierce)
    common(p, "budget")
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")

    p = sub.add_parser("disjoint", help="maximum disjoint subfamily, or a greedy sequence")
    p.set_defaults(run=_cmd_disjoint)
    common(p, "budget")
    p.add_argument("--cap", type=int, default=None, help="stop once this many disjoint sets are found")
    p.add_argument("--sequence", action="store_true", help="greedy pairwise-disjoint sequence instead")
    p.add_argument("--avoid", type=_int_list, default=[], help="points the sequence must avoid")

    p = sub.add_parser("witness", help="build and verify a quadratic witness chain")
    p.set_defaults(run=_cmd_witness)
    common(p, "budget", "strict")
    p.add_argument("--n", type=int, required=True, help="chain length to aim for")
    p.add_argument("--target", "--B", dest="target", type=_int_list, default=None,
                   help="external target points (extension points)")
    p.add_argument("--target-from-file", "--B-from-file", dest="target_from_file",
                   action="store_true", help="take the target from the family file")
    p.add_argument("--exhaustive", action="store_true", help="backtrack over candidate choices")

    p = sub.add_parser("generate", help="write a generated family file")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--out", help="write the family file to this path")
    p.add_argument("--kind", required=True,
                   choices=["intervals", "halfplane_grid", "random", "witness_rich"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, help="number of sets (intervals, halfplane_grid, random)")
    p.add_argument("--universe", type=int, help="points (intervals, random)")
    p.add_argument("--grid-side", type=int, help="grid side (halfplane_grid)")
    p.add_argument("--density", type=float, help="membership probability (random)")
    p.add_argument("--depth", type=int, help="chain depth (witness_rich)")
    p.add_argument("--allow-empty-sets", action="store_true", default=None,
                   help="random kind: keep sets that come out empty")

    p = sub.add_parser("verify", help="replay the cheap checks of a report file")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--report", "--in", dest="report", required=True, help="report file")
    p.add_argument("--out", help="write the verification as a JSON report")

    return top


# --------------------------------------------------------------------------
# subcommand payloads: each returns (payload, text_lines, exit_status), the
# status 1 only for a negative verdict under --strict or a failed verify check.
# Each imports its solver module (verify: the report module) when it runs, so
# that a setfam process loads only the modules of its own subcommand. Result
# records are named tuples, so payloads are their flat ``_asdict()``.


def _fmt(points: Any) -> str:
    return "[" + ", ".join(str(p) for p in points) + "]"


def _cmd_atoms(args, family: SetFamily) -> tuple[dict, list[str], int]:
    subfamily = args.sets if args.sets is not None else list(range(family.num_sets))
    decomposition = boolean_atoms(family, subfamily, include_zero_cell=not args.drop_zero_cell)
    payload = {
        "subfamily": list(decomposition.subfamily),
        "include_zero_cell": not args.drop_zero_cell,
        "atom_count": len(decomposition),
        "atoms": [
            {"signature": sig, "points": list(decomposition.cell_points(sig))}
            for sig in decomposition.signatures()
        ],
    }
    lines = [f"subfamily: {_fmt(decomposition.subfamily)}", f"atoms: {len(decomposition)}"]
    lines += [f"  {sig} -> {_fmt(decomposition.cell_points(sig))}" for sig in decomposition.signatures()]
    return payload, lines, 0


def _cmd_shatter(args, family: SetFamily) -> tuple[dict, list[str], int]:
    from . import shatter

    if args.profile:
        profile = shatter.growth_profile(family, args.n, args.mode, args.budget)
        payload = {"profile": [r._asdict() for r in profile.results], "exponent": profile.exponent}
        lines = [f"n={r.n} value={r.value} witness={_fmt(r.witness)}" for r in profile.results]
        lines.append(f"fitted exponent: {profile.exponent:.4f}")
        return payload, lines, 0
    result = shatter.dual_shatter(family, args.n, args.mode, args.budget)
    lines = [f"n={result.n} mode={result.mode} value={result.value} witness={_fmt(result.witness)}"]
    return result._asdict(), lines, 0


def _cmd_pq(args, family: SetFamily) -> tuple[dict, list[str], int]:
    from . import pq

    report = pq.has_pq(family, args.p, args.q, args.budget)
    lines = [f"({args.p},{args.q})-property: {'holds' if report.holds else 'fails'}"]
    if report.violation is not None:
        lines.append(f"violation: {_fmt(report.violation)}")
    if report.disjoint_witness is not None:
        lines.append(f"disjoint witness: {_fmt(report.disjoint_witness)}")
    return report._asdict(), lines, int(args.strict and not report.holds)


def _cmd_pierce(args, family: SetFamily) -> tuple[dict, list[str], int]:
    from . import piercing

    if args.mode == "exact":
        solution = piercing.transversal_exact(family, args.budget)
    else:
        solution = piercing.transversal_greedy(family)
    lines = [
        f"tau={solution.tau} optimal={solution.optimal}",
        f"piercing points: {_fmt(solution.piercing_points)}",
        f"assignment: {_fmt(solution.assignment)}",
    ]
    return {"mode": args.mode, **solution._asdict()}, lines, 0


def _cmd_disjoint(args, family: SetFamily) -> tuple[dict, list[str], int]:
    from . import pq

    if args.sequence:
        seq = pq.disjoint_sequence_greedy(family, args.avoid)
        return {"sequence": list(seq), "avoid": list(args.avoid)}, [f"sequence: {_fmt(seq)}"], 0
    nu, witness_sets = pq.max_disjoint(family, args.cap, args.budget)
    payload = {"nu": nu, "cap": args.cap, "witness": list(witness_sets)}
    return payload, [f"nu={nu}", f"witness: {_fmt(witness_sets)}"], 0


def _cmd_witness(args, family: SetFamily) -> tuple[dict, list[str], int]:
    from . import witness

    if args.target_from_file:
        if family.external_target is None:
            raise ValueError("family file carries no external_target")
        target = points_from_mask(family.external_target)
    elif args.target is not None:
        target = tuple(args.target)
    else:
        raise ValueError("witness needs --target points or --target-from-file")
    outcome = witness.build_quadratic_witness(
        family, target, args.n, exhaustive=args.exhaustive, budget=args.budget
    )
    stuck = isinstance(outcome, witness.StuckCertificate)
    chain = outcome.chain if stuck else outcome
    verification = witness.verify_witness(family, target, chain) if chain.length else None
    payload = {
        "target": list(target),
        "n_target": args.n,
        "status": "stuck" if stuck else "chain",
        "chain": witness.chain_to_dict(chain),
        "stuck": witness.stuck_to_dict(outcome) if stuck else None,
        "verification": None if verification is None else witness.verification_to_dict(verification),
    }
    if stuck:
        return payload, [f"status=stuck reached={outcome.reached_length} of {args.n}",
                         f"reason: {outcome.reason}"], int(args.strict)
    lines = [
        f"status=chain length={chain.length}",
        f"sets: {_fmt(chain.set_indices())}",
        f"live-atom counts: {_fmt(chain.target_atom_counts)}",
        f"distinct probe traces: {verification.distinct_trace_count}"
        f" (required {verification.required_trace_count})",
        f"verification: {'PASS' if verification.ok else 'FAIL'}",
    ]
    return payload, lines, int(args.strict and not verification.ok)


def _cmd_generate(args, _family) -> tuple[dict, list[str], int]:
    from . import generators

    def need(name: str) -> Any:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for kind {args.kind!r}")
        return value

    if args.kind == "intervals":
        family = generators.gen_intervals(need("count"), need("universe"), args.seed)
    elif args.kind == "halfplane_grid":
        family = generators.gen_halfplane_grid(need("count"), need("grid_side"), args.seed)
    elif args.kind == "random":
        family = generators.gen_random(
            need("count"), need("universe"), need("density"), args.seed,
            ensure_nonempty=not args.allow_empty_sets,
        )
    else:
        family, _ = generators.gen_witness_rich(need("depth"), args.seed)
    text = serialize_family(family)
    lines = [f"kind={args.kind} seed={args.seed} sets={family.num_sets} universe={family.universe_size}"]
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        lines.append(f"written: {args.out}")
    else:
        lines.append(text.rstrip("\n"))
    return {}, lines, 0  # --out here names the family file; no report is written


def _cmd_verify(args, _family) -> tuple[dict, list[str], int]:
    from .report import verify_report

    report = load_json(Path(args.report).read_text(encoding="utf-8"), "report")
    checks = [check._asdict() for check in verify_report(report)]
    all_ok = all(c["ok"] for c in checks)
    lines = [f"{c['kind']}: {'OK' if c['ok'] else 'FAIL'} ({c['detail']})" for c in checks]
    lines.append(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    return {"source": args.report, "checks": checks, "all_ok": all_ok}, lines, int(not all_ok)


# The options that a subcommand reads only in some of its modes: subcommand ->
# [(options, whether the arguments pick a mode that reads them, the clause
# that names those modes)]. main refuses such an option, given in any other
# mode, with exit 2; an option counts as given when it is set and not [] (the
# --avoid default).
_ONLY_IN = {
    "disjoint": [(("cap", "budget"), lambda a: not a.sequence, "without --sequence"),
                 (("avoid",), lambda a: a.sequence, "with --sequence")],
    "shatter": [(("budget",), lambda a: a.mode == "exact", "with --mode exact")],
    "pierce": [(("budget",), lambda a: a.mode == "exact", "with --mode exact")],
    "witness": [(("target",), lambda a: not a.target_from_file, "without --target-from-file")],
    "generate": [(("count",), lambda a: a.kind != "witness_rich", "with --kind intervals, halfplane_grid or random"),
                 (("universe",), lambda a: a.kind in ("intervals", "random"), "with --kind intervals or random"),
                 (("grid_side",), lambda a: a.kind == "halfplane_grid", "with --kind halfplane_grid"),
                 (("density", "allow_empty_sets"), lambda a: a.kind == "random", "with --kind random"),
                 (("depth",), lambda a: a.kind == "witness_rich", "with --kind witness_rich")],
}


def _sha256_hex(data: bytes) -> str:
    # The interpreter's built-in SHA-256: hashlib would load OpenSSL's
    # _hashlib, about 3.5 MiB resident and 3 ms, for the same digest. It is
    # _sha2 from Python 3.12 on and _sha256 before; an interpreter built
    # without either falls back to hashlib.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _to_devnull(stream: Any) -> None:
    """Point a stream whose pipe was closed at os.devnull, so that the
    interpreter's final flush of what it still buffers cannot raise again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    family = digest = None
    report_path = None if args.command == "generate" else args.out  # generate --out names its family file
    try:
        for options, reads, modes in _ONLY_IN.get(args.command, ()):
            given = [option for option in options if getattr(args, option, None) not in (None, [])]
            if given and not reads(args):
                raise ValueError(f"--{given[0].replace('_', '-')} applies only {modes}")
        for option in ("budget", "cap"):
            if (getattr(args, option, None) or 0) < 0:
                raise ValueError(f"--{option} must be nonnegative")
        args.budget = getattr(args, "budget", DEFAULT_BUDGET)
        if hasattr(args, "input"):  # every command that analyses a family file
            data = Path(args.input).read_bytes()
            digest = "sha256:" + _sha256_hex(data) if report_path else None
            family = parse_family(data.decode("utf-8"))
        payload, lines, status = args.run(args, family)
        if report_path:
            if family is not None:  # verify's report embeds no family
                payload["family"] = family_to_dict(family)
            wall = time.perf_counter() - start
            report = {"schema_version": SCHEMA_VERSION, "command": argv, "input_digest": digest,
                      "results": {args.command: payload}, "wall_time_s": round(wall, 6)}
            Path(report_path).write_text(json_text(report) + "\n", encoding="utf-8")
            lines.append(f"report written to {report_path}")
        print("\n".join(lines), flush=True)
        return status
    except BudgetExceededError as exc:
        message, status = f"budget exceeded: {exc}", 3
    except (SetFamError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # standard output was closed before the text was read
            _to_devnull(sys.stdout)
        message, status = f"error: {exc}", 2
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:  # standard error shares the closed pipe (2>&1)
        _to_devnull(sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
