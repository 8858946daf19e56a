"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every expected value is either a closed-form count checked exactly or a
brute-force recomputation; no tolerances are involved anywhere.
"""

import itertools
import json
import time

from helpers import brute_min_consistent_partition, random_family, random_target_family
from setfam import (
    ChainStep,
    SetFamily,
    WitnessChain,
    build_quadratic_witness,
    dual_shatter,
    gen_halfplane_grid,
    gen_intervals,
    gen_witness_rich,
    has_pq,
    max_disjoint,
    transversal_exact,
    verify_partition,
    verify_witness,
)
from setfam.cli import main as cli_main
from setfam.rng import SplitMix64


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_quadratic_bound_reproduction():
    ok = True
    details = []
    for depth in range(1, 6):
        start = time.perf_counter()
        family, target = gen_witness_rich(depth, seed=0)
        chain = build_quadratic_witness(family, target, depth)
        built = isinstance(chain, WitnessChain) and chain.length == depth
        floor = depth * (depth + 1) // 2
        report = verify_witness(family, target, chain) if built else None
        verified = built and report.ok and report.distinct_trace_count >= floor
        shattered = dual_shatter(family, depth).value >= floor
        elapsed = time.perf_counter() - start
        ok = ok and built and verified and shattered and elapsed < 10.0
        details.append(f"n={depth}:traces={report.distinct_trace_count if report else '-'}>={floor}")
    _verdict(1, ok, "chains built, verified and shatter-checked at depths 1-5 "
                    f"({', '.join(details)})")


def test_criterion_2_first_step_count_is_two():
    counts = []
    for depth in range(1, 6):
        family, target = gen_witness_rich(depth, seed=0)
        chain = build_quadratic_witness(family, target, depth)
        counts.append(chain.target_atom_counts[0])
    rng = SplitMix64(77)
    checked = 0
    while checked < 50:
        family, target = random_target_family(rng)
        outcome = build_quadratic_witness(family, target, 2)
        chain = outcome if isinstance(outcome, WitnessChain) else outcome.chain
        if chain.length >= 1:
            counts.append(chain.target_atom_counts[0])
            checked += 1
    ok = all(c == 2 for c in counts)
    _verdict(2, ok, f"first-step live-atom count equals 2 on {len(counts)} successful chains")


def test_criterion_3_conditions_imply_distinct_traces():
    rng = SplitMix64(4242)
    passing = 0
    counterexamples = 0
    mutants_checked = 0
    while passing < 1000:
        if rng.below(2):
            family, target = random_target_family(rng)
            outcome = build_quadratic_witness(family, target, 1 + rng.below(3))
            chain = outcome if isinstance(outcome, WitnessChain) else outcome.chain
            if chain.length == 0:
                continue
        else:
            family, target = gen_witness_rich(1 + rng.below(4), seed=rng.next_u64())
            chain = build_quadratic_witness(family, target, len(family.names))
        base_points = family.base_points()
        variants = [chain]
        for _ in range(2):
            steps = tuple(
                ChainStep(
                    s.set_index,
                    tuple(
                        base_points[rng.below(len(base_points))] if rng.below(3) == 0 else p
                        for p in s.probes
                    ),
                )
                for s in chain.steps
            )
            variants.append(chain._replace(steps=steps))
        for variant in variants:
            report = verify_witness(family, target, variant)
            mutants_checked += 1
            if report.step_separation_ok and report.within_step_distinct_ok:
                passing += 1
                if not report.all_traces_distinct_ok:
                    counterexamples += 1
    _verdict(3, counterexamples == 0,
             f"{passing} chains satisfied both conditions ({mutants_checked} candidates "
             f"checked), {counterexamples} violated full-trace distinctness")


def test_criterion_4_piercing_equals_partition_oracle():
    start = time.perf_counter()
    rng = SplitMix64(999)
    mismatches = 0
    for _ in range(200):
        family = random_family(rng, max_sets=8, max_points=12, nonempty=True)
        solution = transversal_exact(family)
        if not solution.optimal or solution.tau != brute_min_consistent_partition(family):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(4, mismatches == 0 and elapsed < 60.0,
             f"200 random families, {mismatches} mismatches vs the raw-partition "
             f"oracle, {elapsed:.1f}s")


def test_criterion_5_p2_equivalent_to_packing():
    rng = SplitMix64(555)
    mismatches = 0
    for _ in range(500):
        family = random_family(rng, max_sets=8, max_points=12)
        nu = max_disjoint(family)[0]
        for p in range(2, 7):
            if has_pq(family, p, 2).holds != (nu < p):
                mismatches += 1
    _verdict(5, mismatches == 0,
             f"500 random families x p in 2..6, {mismatches} mismatches")


def test_criterion_6_interval_helly():
    mismatches = 0
    checked = 0
    for seed in range(100):
        count = 2 + seed % 11  # up to 12 intervals
        family = gen_intervals(count, 3 * count, seed=seed)
        checked += 1
        if transversal_exact(family).tau != max_disjoint(family)[0]:
            mismatches += 1
    _verdict(6, mismatches == 0,
             f"{checked} generated interval families, piercing equals packing on all")


def test_criterion_7_halfplane_atom_count():
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        family = gen_halfplane_grid(n, 32, seed=0)
        expected = 1 + n + n * (n - 1) // 2
        # exhaustive enumeration, independent of the pruned search
        best = 0
        for combo in itertools.combinations(range(n), n):
            sigs = {
                tuple(family.members[i] >> p & 1 for i in combo)
                for p in range(family.universe_size)
            }
            best = max(best, len(sigs))
        ok = ok and best == expected and dual_shatter(family, n).value == expected
        details.append(f"n={n}:{best}")
    _verdict(7, ok, f"grid arrangements realize 1+n+n(n-1)/2 exactly ({', '.join(details)})")


def test_criterion_8_interval_partition_sanity():
    failures = 0
    for seed in range(100):
        count = 2 + seed % 11
        family = gen_intervals(count, 3 * count, seed=seed)
        nu = max_disjoint(family)[0]
        p = nu + 1
        if not has_pq(family, p, 2).holds:
            failures += 1
            continue
        solution = transversal_exact(family)
        consistent, _ = verify_partition(family, solution.assignment)
        if not (solution.optimal and isinstance(solution.tau, int) and consistent):
            failures += 1
    _verdict(8, failures == 0,
             "100 interval families with the (packing+1, 2)-property partition "
             "into consistent classes")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    fam_star = tmp_path / "star.fam"
    fam_star.write_text(json.dumps({
        "universe": 4,
        "sets": [{"name": "A", "points": [0, 1]}, {"name": "B", "points": [0, 2]},
                 {"name": "C", "points": [0, 3]}],
    }))
    rich = tmp_path / "rich.fam"
    assert cli_main(["generate", "--kind", "witness_rich", "--depth", "3", "--seed", "5",
                     "--out", str(rich)]) == 0
    chain_report = tmp_path / "chain.report"
    assert cli_main(["witness", "--in", str(rich), "--B-from-file", "--n", "3",
                     "--out", str(chain_report)]) == 0
    capsys.readouterr()

    report_out = tmp_path / "cmd.report"
    gen_out = tmp_path / "gen.fam"
    invocations = [
        ["atoms", "--in", str(fam_star), "--out", str(report_out)],
        ["--threads", "2", "atoms", "--in", str(fam_star), "--out", str(report_out)],
        ["shatter", "--in", str(fam_star), "--n", "2", "--out", str(report_out)],
        ["--threads", "3", "shatter", "--in", str(fam_star), "--n", "3", "--profile",
         "--out", str(report_out)],
        ["pq", "--in", str(fam_star), "--p", "3", "--q", "2", "--out", str(report_out)],
        ["pierce", "--in", str(fam_star), "--out", str(report_out)],
        ["--threads", "2", "pierce", "--in", str(fam_star), "--mode", "greedy",
         "--out", str(report_out)],
        ["disjoint", "--in", str(fam_star), "--out", str(report_out)],
        ["disjoint", "--in", str(fam_star), "--sequence", "--avoid", "0",
         "--out", str(report_out)],
        ["--threads", "2", "witness", "--in", str(rich), "--B-from-file", "--n", "3",
         "--out", str(report_out)],
        ["generate", "--kind", "intervals", "--count", "4", "--universe", "10",
         "--seed", "9", "--out", str(gen_out)],
        ["verify", "--report", str(chain_report), "--out", str(report_out)],
    ]
    unstable = []
    for argv in invocations:
        snapshots = []
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            assert code == 0, argv
            file_state = None
            if report_out.exists() and "--out" in argv and str(report_out) in argv:
                report = json.loads(report_out.read_text())
                report.pop("wall_time_s", None)
                file_state = report
            elif str(gen_out) in argv:
                file_state = gen_out.read_text()
            snapshots.append((out, file_state))
        if snapshots[0] != snapshots[1]:
            unstable.append(argv[0])
    _verdict(9, not unstable,
             f"{len(invocations)} CLI invocations repeated byte-identically "
             "(wall time excluded)")
