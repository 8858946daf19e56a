"""Inputs and operations of the benchmark workloads.

A builder takes the setfam package, the run seed and a scratch directory,
makes the workload's inputs (this is the timed set-up) and returns the
operations of one pass. Each operation calls the program once; its check
(from checks.py) judges the output. README.md gives the sizes, the seeds and
why each workload exists.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from checks import (
    Ref,
    bits,
    chain_steps,
    check_atoms,
    check_chain,
    check_cover,
    check_intervals,
    check_packing,
    check_shatter,
    distinct_probe_traces,
    greedy_cover_size,
    greedy_packing,
    interval_packing,
    mask_of,
)

# Seeds of the instances that do not depend on --seed: the ladder of
# pierce instances at the sizes where exact search takes seconds today. A
# seeded instance at these sizes costs anywhere from 10 ms to minutes, so
# drawing them from --seed would make the pass time a lottery; README.md
# states the rule that picked these and names the seeds left out.
LADDER_INTERVALS = ((100, 9), (80, 38))  # (m, s): gen_intervals(m, 5m, s)
LADDER_SPARSE = (1, 12, 18)  # gen_random(40, 80, 0.1, s)
LADDER_PACKING = (0, 5)  # gen_random(90, 135, 0.03, s)

# Halfplane grids redraw every rejected sample, so a seeded grid costs one to
# four draws by the luck of its seed. These fixed seeds take one draw and three
# draws (atoms) and three draws (cli), so set-up pays for rejections, and the
# same amount, in every run.
LADDER_HALFPLANES = (1, 16)  # gen_halfplane_grid(12, 96, s)
CLI_HALFPLANE = 15  # gen_halfplane_grid(6, 32, s)

# The orders in which atoms runs boolean_atoms on all 60 sets: ascending,
# descending, even then odd, odd then even, and rotated to start at 15, 30, 45.
FULL_ORDERS = (
    list(range(60)),
    list(range(59, -1, -1)),
    [*range(0, 60, 2), *range(1, 60, 2)],
    [*range(1, 60, 2), *range(0, 60, 2)],
    *([*range(r, 60), *range(r)] for r in (15, 30, 45)),
)

# The first instance seed of a run; the k-th seeded instance of a group uses
# instance seed SEED_STRIDE * seed + k.
SEED_STRIDE = 1000

# Seeded pierce instances per run: intervals on which greedy matches nu and
# on which it does not, sparse random families, packing-only families.
SEEDED_EQUAL, SEEDED_GAP, SEEDED_SPARSE, SEEDED_PACKING = 100, 20, 30, 30


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    # Untimed step before each run, such as writing a malformed report.
    prepare: Callable[[], None] | None = None
    # What later passes must reproduce exactly; the output itself by default.
    fingerprint: Callable[[Any], Any] = lambda out: out


@dataclass
class Workload:
    ops: list[Op]
    reports: list[Path]


class OpFailed(Exception):
    """The program crashed: a traceback or a timeout instead of an answer."""


# --------------------------------------------------------------------------
# pierce


def _packing_ops(api, label: str, fam, state: dict, nu_ref: int | None) -> list[Op]:
    ref = Ref.of(fam)
    pq = api.pq

    def md():
        out = pq.max_disjoint(fam)
        state["nu"] = out[0]
        return out

    def check_md(out):
        nu, witness = out
        if nu_ref is not None and check_intervals(ref):
            return check_intervals(ref)
        if nu_ref is not None and nu != nu_ref:
            return f"packing number {nu}, right-endpoint greedy gives {nu_ref}"
        return check_packing(ref, witness, nu)

    def check_above(out):
        if not out.holds or out.violation is not None:
            return f"has_pq(p=nu+1) found {out.violation} although nu = {state['nu']}"
        return check_packing(ref, out.disjoint_witness, state["nu"])

    def cap_p() -> int:
        return max(state["nu"], 2)

    def check_cap(out):
        if out.holds != (state["nu"] < cap_p()):
            return f"has_pq(p={cap_p()}) holds={out.holds} with nu = {state['nu']}"
        return None if out.holds else check_packing(ref, out.violation, cap_p())

    return [
        Op(f"{label}:max_disjoint", md, check_md),
        Op(f"{label}:has_pq(nu+1)", lambda: pq.has_pq(fam, state["nu"] + 1, 2), check_above),
        Op(f"{label}:has_pq(nu)", lambda: pq.has_pq(fam, cap_p(), 2), check_cap),
    ]


def _piercing_ops(api, label: str, fam, state: dict, nu_ref: int | None) -> list[Op]:
    ref = Ref.of(fam)
    piercing = api.piercing

    def greedy():
        out = piercing.transversal_greedy(fam)
        state["greedy"] = out.tau
        return out

    def check_greedy(out):
        if out.tau != len(out.piercing_points) or out.tau < state["nu"]:
            return f"greedy tau {out.tau} with {len(out.piercing_points)} points, nu = {state['nu']}"
        if out.tau != greedy_cover_size(ref):
            return f"greedy tau {out.tau}, the reference greedy takes {greedy_cover_size(ref)} points"
        return check_cover(ref, out.piercing_points, out.assignment)

    def exact():
        out = piercing.transversal_exact(fam)
        state["exact"] = out
        return out

    def check_exact(out):
        if not out.optimal or out.tau != len(out.piercing_points):
            return f"exact tau {out.tau} optimal={out.optimal}"
        if not state["nu"] <= out.tau <= state["greedy"]:
            return f"tau {out.tau} outside [nu, greedy tau] = [{state['nu']}, {state['greedy']}]"
        if nu_ref is not None and out.tau != nu_ref:
            return f"interval tau {out.tau} differs from nu = {nu_ref}"
        return check_cover(ref, out.piercing_points, out.assignment)

    return [
        Op(f"{label}:transversal_greedy", greedy, check_greedy),
        Op(f"{label}:transversal_exact", exact, check_exact),
        Op(
            f"{label}:verify_partition",
            lambda: piercing.verify_partition(fam, state["exact"].assignment),
            lambda out: None if out == (True, None) else f"verify_partition rejects an optimal cover: {out}",
        ),
    ]


def _instance_ops(api, label: str, fam, shape: str, pierce: bool = True) -> list[Op]:
    nu_ref = interval_packing(fam.members) if shape == "intervals" else None
    state: dict = {}
    ops = _packing_ops(api, label, fam, state, nu_ref)
    return ops + _piercing_ops(api, label, fam, state, nu_ref) if pierce else ops


def _seeded_intervals(gen, first_seed: int, equal: int, gap: int) -> list[tuple[int, object]]:
    """The first `equal` instance seeds from `first_seed` on at which the greedy
    cover already has nu points, then the first `gap` at which it has more.

    Fixing both counts keeps the share of exact searches the same in every
    run; the instances themselves still come from the seed.
    """
    found: dict[bool, list] = {True: [], False: []}
    want = {True: equal, False: gap}
    s = first_seed
    while len(found[True]) < equal or len(found[False]) < gap:
        fam = gen.gen_intervals(40, 200, s)
        matches = greedy_cover_size(Ref.of(fam)) == interval_packing(fam.members)
        if len(found[matches]) < want[matches]:
            found[matches].append((s, fam))
        s += 1
    return found[True] + found[False]


def build_pierce(api, seed: int, workdir: Path, in_process: bool) -> Workload:
    gen = api.generators
    base = SEED_STRIDE * seed
    ops: list[Op] = []
    for m, s in LADDER_INTERVALS:
        ops += _instance_ops(api, f"intervals({m},{5 * m},{s})", gen.gen_intervals(m, 5 * m, s), "intervals")
    for s in LADDER_SPARSE:
        ops += _instance_ops(api, f"random(40,80,0.1,{s})", gen.gen_random(40, 80, 0.1, s), "random")
    for s in LADDER_PACKING:
        fam = gen.gen_random(90, 135, 0.03, s)
        ops += _instance_ops(api, f"random(90,135,0.03,{s})", fam, "random", pierce=False)
    for s, fam in _seeded_intervals(gen, base, SEEDED_EQUAL, SEEDED_GAP):
        ops += _instance_ops(api, f"intervals(40,200,{s})", fam, "intervals")
    for k in range(SEEDED_SPARSE):
        fam = gen.gen_random(25, 50, 0.1, base + k)
        ops += _instance_ops(api, f"random(25,50,0.1,{base + k})", fam, "random")
    for k in range(SEEDED_PACKING):
        fam = gen.gen_random(40, 60, 0.04, base + k)
        ops += _instance_ops(api, f"random(40,60,0.04,{base + k})", fam, "random", pierce=False)
    return Workload(ops, [])


# --------------------------------------------------------------------------
# atoms


def _atoms_op(api, label: str, fam, ref: Ref, subfamily: list[int]) -> Op:
    return Op(
        f"{label}:boolean_atoms[{subfamily[0]},{subfamily[1]}..{subfamily[-1]}]",
        lambda: api.family.boolean_atoms(fam, subfamily),
        lambda out: check_atoms(ref, subfamily, out.cells),
    )


def _shatter_op(api, label: str, fam, ref: Ref, n: int, shape: str, mode: str = "exact") -> Op:
    exact = mode == "exact"
    return Op(
        f"{label}:dual_shatter[{mode},n={n}]",
        lambda: api.shatter.dual_shatter(fam, n, mode),
        lambda out: check_shatter(ref, n, out.value, out.witness, shape, exact),
    )


def _witness_ops(api, label: str, fam, target, depth: int) -> list[Op]:
    ref = Ref.of(fam)
    state: dict = {}

    def build():
        out = api.witness.build_quadratic_witness(fam, target, depth)
        state["chain"] = out
        return out

    def check_build(out):
        if not hasattr(out, "steps"):
            return f"witness build stuck at {out.reached_length} of {depth}: {out.reason}"
        return check_chain(ref, chain_steps(out), depth)

    def check_verify(out):
        own = distinct_probe_traces(ref, chain_steps(state["chain"]))
        if not out.ok or out.distinct_trace_count != own:
            return f"verify_witness ok={out.ok} counts {out.distinct_trace_count} traces, recount {own}"
        return None

    return [
        Op(f"{label}:build_quadratic_witness", build, check_build),
        Op(f"{label}:verify_witness", lambda: api.witness.verify_witness(fam, target, state["chain"]), check_verify),
    ]


def build_atoms(api, seed: int, workdir: Path, in_process: bool) -> Workload:
    gen = api.generators
    base = SEED_STRIDE * seed
    ops: list[Op] = []
    for k in range(2):
        label = f"random(60,4000,0.3,{base + k})"
        fam = gen.gen_random(60, 4000, 0.3, base + k)
        ref = Ref.of(fam)
        ops += [_atoms_op(api, label, fam, ref, order) for order in FULL_ORDERS]
        ops += [_atoms_op(api, label, fam, ref, list(range(size))) for size in (2, 8)]
        for width in (4, 12):
            ops += [_atoms_op(api, label, fam, ref, list(range(j, j + width))) for j in range(0, 49, 4)]
        ops.append(_shatter_op(api, label, fam, ref, 8, "random", "greedy"))
    for s in LADDER_HALFPLANES:
        fam = gen.gen_halfplane_grid(12, 96, s)
        ref = Ref.of(fam)
        ops += [_shatter_op(api, f"halfplane(12,96,{s})", fam, ref, n, "halfplanes") for n in (5, 6, 7)]
    for k in range(2):
        fam = gen.gen_intervals(40, 200, base + k)
        ops.append(_shatter_op(api, f"intervals(40,200,{base + k})", fam, Ref.of(fam), 4, "intervals"))
    for k in range(3):
        fam = gen.gen_random(24, 40, 0.2, base + k)
        ops.append(_shatter_op(api, f"random(24,40,0.2,{base + k})", fam, Ref.of(fam), 5, "random"))
    for depth in (11, 13):
        fam, target = gen.gen_witness_rich(depth, base + depth)
        ops += _witness_ops(api, f"witness_rich({depth},{base + depth})", fam, target, depth)
    return Workload(ops, [])


# --------------------------------------------------------------------------
# cli


@dataclass
class CliOut:
    code: int
    stdout: str


def _write_family(path: Path, fam) -> None:
    obj: dict[str, Any] = {
        "universe": fam.universe_size,
        "extension": bits(fam.extension_mask),
        "sets": [{"name": name, "points": bits(mem)} for name, mem in zip(fam.names, fam.members)],
    }
    if fam.external_target is not None:
        obj["external_target"] = bits(fam.external_target)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_runner(api, root: Path, in_process: bool) -> Callable[[list[str]], CliOut]:
    """Run ``setfam <argv>``: a fresh interpreter, or ``cli.main`` in this process."""
    if in_process:

        def run(argv: list[str]) -> CliOut:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = api.cli.main(argv)
            return CliOut(code, out.getvalue())

        return run

    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(argv: list[str]) -> CliOut:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "setfam", *argv],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"setfam {argv[0]} timed out") from exc
        if "Traceback (most recent call last)" in proc.stderr:
            raise OpFailed(proc.stderr.strip().splitlines()[-1])
        return CliOut(proc.returncode, proc.stdout)

    return run


def _check_generated(path: Path, kind: str, sizes: dict) -> str | None:
    obj = _load(path)
    ref = Ref.from_report(obj)
    if len(ref.members) != sizes["sets"] or ref.universe != sizes["universe"]:
        return f"generated {kind} has {len(ref.members)} sets over {ref.universe} points"
    if obj.get("generator", {}).get("kind") != kind:
        return f"generated family records kind {obj.get('generator')}"
    if not all(ref.members):
        return f"generated {kind} family has an empty set"
    if kind == "intervals":
        return check_intervals(ref)
    if kind == "halfplane_grid" and len(ref.distinct_columns) != 1 + sizes["sets"] + math.comb(sizes["sets"], 2):
        return f"halfplane grid has {len(ref.distinct_columns)} distinct point columns"
    if kind == "witness_rich" and (ref.target is None or ref.target != ((1 << ref.universe) - 1) & ~ref.base):
        return "witness-rich target is not the extension"
    return None


def _result(path: Path, command: str) -> tuple[Ref, dict]:
    payload = _load(path)["results"][command]
    return Ref.from_report(payload["family"]), payload


def _check_atoms_report(path: Path) -> str | None:
    ref, p = _result(path, "atoms")
    cells = {a["signature"]: mask_of(a["points"]) for a in p["atoms"]}
    if p["atom_count"] != len(cells):
        return f"atom_count {p['atom_count']} for {len(cells)} listed atoms"
    return check_atoms(ref, p["subfamily"], cells)


def _check_shatter_report(path: Path, shape: str, n_max: int) -> str | None:
    ref, p = _result(path, "shatter")
    if [e["n"] for e in p["profile"]] != list(range(1, n_max + 1)):
        return "profile does not list n = 1.." + str(n_max)
    for e in p["profile"]:
        problem = check_shatter(ref, e["n"], e["value"], e["witness"], shape, True)
        if problem:
            return f"n={e['n']}: {problem}"
    return None


def _check_pq_report(path: Path, nu: int) -> str | None:
    ref, p = _result(path, "pq")
    if not p["holds"] or p["violation"] is not None:
        return f"(nu+1, 2)-property reported failing with violation {p['violation']}"
    return check_packing(ref, p["disjoint_witness"], nu)


def _check_pierce_report(path: Path, nu: int | None) -> str | None:
    ref, p = _result(path, "pierce")
    if not p["optimal"] or p["tau"] != len(p["piercing_points"]):
        return f"tau {p['tau']} optimal={p['optimal']}"
    if nu is not None and p["tau"] != nu:
        return f"interval tau {p['tau']} differs from nu = {nu}"
    if not greedy_packing(ref.members) <= p["tau"] <= greedy_cover_size(ref):
        return f"tau {p['tau']} outside [greedy packing, greedy cover] for this family"
    return check_cover(ref, p["piercing_points"], p["assignment"])


def _check_disjoint_report(path: Path) -> str | None:
    ref, p = _result(path, "disjoint")
    if p["nu"] < greedy_packing(ref.members):
        return f"nu {p['nu']} is below a greedy packing of {greedy_packing(ref.members)}"
    return check_packing(ref, p["witness"], p["nu"])


def _check_witness_report(path: Path, depth: int) -> str | None:
    ref, p = _result(path, "witness")
    if p["status"] != "chain":
        return f"witness status {p['status']}"
    steps = [(s["set_index"], tuple(s["probes"])) for s in p["chain"]["steps"]]
    return check_chain(ref, steps, depth)


def _break_witness_report(src: Path, dst: Path) -> None:
    report = _load(src)
    report["results"]["witness"]["chain"]["steps"] = "0,1,2"
    dst.write_text(json.dumps(report), encoding="utf-8")


def _break_shatter_report(src: Path, dst: Path) -> None:
    report = _load(src)
    report["results"]["shatter"]["profile"][0]["witness"] = None
    dst.write_text(json.dumps(report), encoding="utf-8")


def build_cli(api, seed: int, workdir: Path, in_process: bool) -> Workload:
    gen = api.generators
    s = SEED_STRIDE * seed
    root = Path(api.__file__).resolve().parents[2]
    run = _cli_runner(api, root, in_process)
    workdir.mkdir(parents=True, exist_ok=True)

    def at(name: str) -> str:
        return str(workdir / name)

    lines = gen.gen_intervals(40, 200, s)
    sparse = gen.gen_random(20, 40, 0.15, s)
    grid = gen.gen_halfplane_grid(6, 32, CLI_HALFPLANE)
    rich, _ = gen.gen_witness_rich(6, s)
    for name, fam in (("lines", lines), ("sparse", sparse), ("grid", grid), ("rich", rich)):
        _write_family(workdir / f"{name}.json", fam)
    nu = interval_packing(lines.members)

    def exits_zero(check: Callable[[], str | None]) -> Callable[[CliOut], str | None]:
        return lambda out: f"exit code {out.code}" if out.code != 0 else check()

    def reproduced(path: str | None) -> Callable[[CliOut], Any]:
        def fingerprint(out: CliOut):
            if path is None:
                return out.code, out.stdout
            report = _load(Path(path))
            report.pop("wall_time_s", None)
            return out.code, out.stdout, report

        return fingerprint

    ops: list[Op] = []
    generated = (
        ("intervals", ["--count", "40", "--universe", "200"], {"sets": 40, "universe": 200}),
        ("random", ["--count", "20", "--universe", "40", "--density", "0.15"], {"sets": 20, "universe": 40}),
        ("halfplane_grid", ["--count", "6", "--grid-side", "32"], {"sets": 6, "universe": 1024}),
        ("witness_rich", ["--depth", "6"], {"sets": 6, "universe": 127}),
    )
    for kind, params, sizes in generated:
        path = at(f"gen-{kind}.json")
        seed_arg = str(CLI_HALFPLANE if kind == "halfplane_grid" else s)
        argv = ["generate", "--kind", kind, *params, "--seed", seed_arg, "--out", path]
        ops.append(
            Op(
                f"generate {kind}",
                lambda argv=argv: run(argv),
                exits_zero(lambda path=path, kind=kind, sizes=sizes: _check_generated(Path(path), kind, sizes)),
                fingerprint=lambda out, path=path: (out.code, Path(path).read_text(encoding="utf-8")),
            )
        )

    analyses = (
        ("atoms-sparse", ["atoms", "--in", at("sparse.json")], _check_atoms_report),
        ("atoms-grid", ["atoms", "--in", at("grid.json"), "--sets", "0,1,2"], _check_atoms_report),
        (
            "shatter-lines",
            ["shatter", "--in", at("lines.json"), "--n", "4", "--profile"],
            lambda p: _check_shatter_report(p, "intervals", 4),
        ),
        (
            "shatter-grid",
            ["shatter", "--in", at("grid.json"), "--n", "5", "--profile"],
            lambda p: _check_shatter_report(p, "halfplanes", 5),
        ),
        (
            "pq-lines",
            ["pq", "--in", at("lines.json"), "--p", str(nu + 1), "--q", "2"],
            lambda p: _check_pq_report(p, nu),
        ),
        ("pierce-lines", ["pierce", "--in", at("lines.json")], lambda p: _check_pierce_report(p, nu)),
        ("pierce-sparse", ["pierce", "--in", at("sparse.json")], lambda p: _check_pierce_report(p, None)),
        ("disjoint-sparse", ["disjoint", "--in", at("sparse.json")], _check_disjoint_report),
        (
            "witness-rich",
            ["witness", "--in", at("rich.json"), "--B-from-file", "--n", "6"],
            lambda p: _check_witness_report(p, 6),
        ),
    )
    reports = []
    for label, argv, check in analyses:
        report = at(f"{label}.report.json")
        reports.append(Path(report))
        argv = [*argv, "--out", report]
        ops.append(
            Op(
                label,
                lambda argv=argv: run(argv),
                exits_zero(lambda report=report, check=check: check(Path(report))),
                fingerprint=reproduced(report),
            )
        )

    def passes(out: CliOut) -> str | None:
        if out.code != 0 or "verdict: PASS" not in out.stdout:
            return f"verify exit {out.code}: {out.stdout.strip().splitlines()[-1:]}"
        return None

    for report in reports:
        ops.append(
            Op(f"verify {report.name}", lambda r=str(report): run(["verify", "--report", r]), passes,
               fingerprint=reproduced(None))
        )

    # Malformed reports made from this pass's own reports. A clean rejection
    # is exit 1 or 2 with no traceback; today both end in a TypeError.
    def rejects(out: CliOut) -> str | None:
        return None if out.code in (1, 2) else f"malformed report verified with exit {out.code}"

    for label, source, mutate in (
        ("witness-steps-string", "witness-rich", _break_witness_report),
        ("shatter-witness-null", "shatter-grid", _break_shatter_report),
    ):
        src, dst = Path(at(f"{source}.report.json")), Path(at(f"{label}.report.json"))
        ops.append(
            Op(
                f"verify {label}",
                lambda dst=dst: run(["verify", "--report", str(dst)]),
                rejects,
                prepare=lambda src=src, dst=dst, mutate=mutate: mutate(src, dst),
                fingerprint=reproduced(None),
            )
        )
    return Workload(ops, reports)


BUILDERS = {"pierce": build_pierce, "atoms": build_atoms, "cli": build_cli}
