import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setfam
from setfam import cli, gen_intervals, gen_random, generators, parse_family, serialize_family
from setfam.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.fam"
    path.write_text(
        json.dumps(
            {
                "universe": 4,
                "sets": [
                    {"name": "A", "points": [0, 1]},
                    {"name": "B", "points": [0, 2]},
                    {"name": "C", "points": [0, 3]},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def disjoint3_file(tmp_path):
    path = tmp_path / "disjoint3.fam"
    path.write_text("3 3\n100\n010\n001\n")
    return str(path)


@pytest.fixture
def rich_file(tmp_path, capsys):
    path = tmp_path / "rich.fam"
    assert main(["generate", "--kind", "witness_rich", "--depth", "3", "--seed", "7",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def strip_wall_time(report_text):
    report = json.loads(report_text)
    report.pop("wall_time_s", None)
    return report


class TestPierce:
    def test_star_tau_one(self, capsys, star_file):
        code, out, _ = run(capsys, "pierce", "--in", star_file)
        assert code == 0
        assert "tau=1" in out
        assert "piercing points: [0]" in out

    def test_report_verifies(self, capsys, star_file, tmp_path):
        report = tmp_path / "pierce.report"
        code, _, _ = run(capsys, "pierce", "--in", star_file, "--out", str(report))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0
        assert "verdict: PASS" in out

    @pytest.mark.parametrize("optimal, lower_bound, detail", [
        (True, 4, "lower bound 4 does not fit tau 3 with optimal=True"),
        (False, 4, "lower bound 4 does not fit tau 3 with optimal=False"),
        (True, 2, "lower bound 2 does not fit tau 3 with optimal=True"),
        (True, None, "lower bound None does not fit tau 3 with optimal=True"),
    ])
    def test_wrong_lower_bound_fails_verify(self, capsys, disjoint3_file, tmp_path, optimal,
                                            lower_bound, detail):
        report = tmp_path / "pierce.report"
        assert run(capsys, "pierce", "--in", disjoint3_file, "--out", str(report))[0] == 0
        payload = json.loads(report.read_text())
        payload["results"]["pierce"].update(optimal=optimal, lower_bound=lower_bound)
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 1
        assert f"pierce.classes-pierced: FAIL ({detail})" in out

    def test_tau_not_counting_the_points_fails_verify(self, capsys, disjoint3_file, tmp_path):
        report = tmp_path / "pierce.report"
        assert run(capsys, "pierce", "--in", disjoint3_file, "--out", str(report))[0] == 0
        payload = json.loads(report.read_text())
        payload["results"]["pierce"].update(tau=5, lower_bound=5)
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 1
        assert "pierce.classes-pierced: FAIL (tau 5 but 3 piercing points)" in out

    @pytest.mark.parametrize("points, detail", [
        ([2, 7, 12, 30, 2], "point 2 listed twice"),
        ([2, 7, 12, 30, 31], "class 4 holds no set"),
    ])
    def test_padded_cover_fails_verify(self, capsys, tmp_path, points, detail):
        # An optimal cover of four points, padded with a fifth: tau and the
        # lower bound count five, and every set still holds its class point.
        fam, report = tmp_path / "intervals.fam", tmp_path / "pierce.report"
        assert run(capsys, "generate", "--kind", "intervals", "--count", "12", "--universe", "40",
                   "--seed", "3", "--out", str(fam))[0] == 0
        assert run(capsys, "pierce", "--in", str(fam), "--out", str(report))[0] == 0
        payload = json.loads(report.read_text())
        result = payload["results"]["pierce"]
        assert (result["piercing_points"], result["tau"], result["optimal"]) == ([2, 7, 12, 30], 4, True)
        result.update(piercing_points=points, tau=5, lower_bound=5)
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 1
        assert out.splitlines() == ["pierce.partition-consistent: OK (all classes consistent)",
                                    f"pierce.classes-pierced: FAIL ({detail})", "verdict: FAIL"]


class TestPq:
    def test_violation_listed(self, capsys, disjoint3_file):
        code, out, _ = run(capsys, "pq", "--in", disjoint3_file, "--p", "3", "--q", "2")
        assert code == 0
        assert "fails" in out
        assert "violation: [0, 1, 2]" in out

    def test_strict_flag_exits_one(self, capsys, disjoint3_file):
        code, _, _ = run(capsys, "pq", "--in", disjoint3_file, "--p", "3", "--q", "2", "--strict")
        assert code == 1

    def test_holds_exits_zero_with_strict(self, capsys, star_file):
        code, out, _ = run(capsys, "pq", "--in", star_file, "--p", "3", "--q", "2", "--strict")
        assert code == 0
        assert "holds" in out

    def test_report_witnesses_reverify(self, capsys, disjoint3_file, tmp_path):
        report = tmp_path / "pq.report"
        run(capsys, "pq", "--in", disjoint3_file, "--p", "3", "--q", "2", "--out", str(report))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0 and "verdict: PASS" in out

    def test_tampered_pq_report_fails(self, capsys, star_file, tmp_path):
        report_path = tmp_path / "pq.report"
        run(capsys, "pq", "--in", star_file, "--p", "3", "--q", "2", "--out", str(report_path))
        report = json.loads(report_path.read_text())
        report["results"]["pq"]["violation"] = [0, 1, 2]  # these sets share point 0
        report_path.write_text(json.dumps(report))
        code, out, _ = run(capsys, "verify", "--report", str(report_path))
        assert code == 1
        assert "verdict: FAIL" in out


class TestWitnessAndVerify:
    def test_chain_report_round_trip(self, capsys, rich_file, tmp_path):
        report = tmp_path / "chain.report"
        code, out, _ = run(capsys, "witness", "--in", rich_file, "--B-from-file",
                           "--n", "3", "--out", str(report))
        assert code == 0
        assert "status=chain length=3" in out
        assert "distinct probe traces: 6 (required 6)" in out
        assert "verification: PASS" in out
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0
        assert "verdict: PASS" in out

    def test_tampered_report_fails_verify(self, capsys, rich_file, tmp_path):
        report_path = tmp_path / "chain.report"
        run(capsys, "witness", "--in", rich_file, "--B-from-file", "--n", "3",
            "--out", str(report_path))
        report = json.loads(report_path.read_text())
        steps = report["results"]["witness"]["chain"]["steps"]
        steps[1]["probes"][0], steps[2]["probes"][0] = steps[2]["probes"][0], steps[1]["probes"][0]
        report_path.write_text(json.dumps(report))
        code, out, _ = run(capsys, "verify", "--report", str(report_path))
        assert code == 1
        assert "verdict: FAIL" in out

    def test_truncated_chain_fails_verify(self, capsys, rich_file, tmp_path):
        report_path = tmp_path / "chain.report"
        run(capsys, "witness", "--in", rich_file, "--B-from-file", "--n", "3",
            "--out", str(report_path))
        report = json.loads(report_path.read_text())
        chain = report["results"]["witness"]["chain"]
        for key in chain:
            del chain[key][2:]
        report_path.write_text(json.dumps(report))
        code, out, _ = run(capsys, "verify", "--report", str(report_path))
        assert code == 1
        assert "witness.chain-valid: FAIL (chain has 2 steps, n_target is 3)" in out

    def test_explicit_target_points(self, capsys, tmp_path):
        path = tmp_path / "one.fam"
        path.write_text(json.dumps({
            "universe": 10,
            "extension": [8, 9],
            "sets": [{"name": "S1", "points": [0, 8]}],
        }))
        code, out, _ = run(capsys, "witness", "--in", str(path), "--target", "8,9", "--n", "1")
        assert code == 0
        assert "status=chain length=1" in out

    def test_stuck_reported(self, capsys, tmp_path):
        path = tmp_path / "one.fam"
        path.write_text(json.dumps({
            "universe": 10,
            "extension": [8, 9],
            "sets": [{"name": "S1", "points": [0, 8]}],
        }))
        code, out, _ = run(capsys, "witness", "--in", str(path), "--target", "8,9", "--n", "2")
        assert code == 0
        assert "status=stuck reached=1 of 2" in out
        assert "no splitting set" in out

    @pytest.mark.parametrize("edits, named", [
        ({"reached_length": 1}, "reached_length"),
        ({"reason": "no set avoiding prior probe points"}, "reason"),
        ({"candidate_trace": [0]}, "candidate_trace"),
        ({"reached_length": 1, "reason": "no set avoiding prior probe points", "candidate_trace": [0]},
         "reached_length"),
    ])
    def test_edited_stuck_certificate_fails_verify(self, capsys, tmp_path, edits, named):
        # The chain gets stuck at length 4 with no splitting set; verify
        # recomputes its certificate and names the first field that differs.
        fam, report_path = tmp_path / "rich.fam", tmp_path / "stuck.json"
        assert run(capsys, "generate", "--kind", "witness_rich", "--depth", "4", "--seed", "0",
                   "--out", str(fam))[0] == 0
        code, out, _ = run(capsys, "witness", "--in", str(fam), "--B-from-file", "--n", "6",
                           "--out", str(report_path))
        assert (code, out.splitlines()[:2]) == (0, ["status=stuck reached=4 of 6", "reason: no splitting set"])
        assert run(capsys, "verify", "--report", str(report_path))[0] == 0
        report = json.loads(report_path.read_text())
        stuck = report["results"]["witness"]["stuck"]
        for key, value in edits.items():
            stuck[key] = {stage: value for stage in stuck[key]} if key == "candidate_trace" else value
        report_path.write_text(json.dumps(report))
        code, out, _ = run(capsys, "verify", "--report", str(report_path))
        assert code == 1
        assert (f"witness.stuck-state-final: FAIL (recorded {named} differs from the recomputed certificate)"
                in out.splitlines())
        assert out.endswith("verdict: FAIL\n")

    @pytest.mark.parametrize("n, status", [(4, "chain"), (6, "stuck")])
    def test_chain_listing_a_set_twice_is_malformed(self, capsys, tmp_path, n, status):
        # Either status names the repeated set, as an atoms subfamily does.
        fam, report_path = tmp_path / "rich.fam", tmp_path / "witness.json"
        assert run(capsys, "generate", "--kind", "witness_rich", "--depth", "4", "--seed", "0",
                   "--out", str(fam))[0] == 0
        assert run(capsys, "witness", "--in", str(fam), "--B-from-file", "--n", str(n),
                   "--out", str(report_path))[0] == 0
        report = json.loads(report_path.read_text())
        assert report["results"]["witness"]["status"] == status
        steps = report["results"]["witness"]["chain"]["steps"]
        steps[1]["set_index"] = steps[0]["set_index"]
        report_path.write_text(json.dumps(report))
        assert run(capsys, "verify", "--report", str(report_path)) == (
            2, "", f"error: results.witness: set index {steps[0]['set_index']} repeated in subfamily\n")

    def test_unknown_status_is_malformed(self, capsys, tmp_path):
        # Only "chain" and "stuck" are statuses; any other is not read as stuck.
        fam, report_path = tmp_path / "rich.fam", tmp_path / "stuck.json"
        assert run(capsys, "generate", "--kind", "witness_rich", "--depth", "4", "--seed", "0",
                   "--out", str(fam))[0] == 0
        assert run(capsys, "witness", "--in", str(fam), "--B-from-file", "--n", "6",
                   "--out", str(report_path))[0] == 0
        report = json.loads(report_path.read_text())
        assert report["results"]["witness"]["status"] == "stuck"
        report["results"]["witness"]["status"] = "bogus"
        report_path.write_text(json.dumps(report))
        assert run(capsys, "verify", "--report", str(report_path)) == (
            2, "", "error: results.witness.status: expected 'chain' or 'stuck', got 'bogus'\n")

    def test_missing_target_is_input_error(self, capsys, rich_file):
        code, _, err = run(capsys, "witness", "--in", rich_file, "--n", "2")
        assert code == 2
        assert "target" in err


class TestAtomsShatterDisjoint:
    def test_atoms_listing(self, capsys, tmp_path):
        path = tmp_path / "two.fam"
        path.write_text("2 4\n1100\n0110\n")
        code, out, _ = run(capsys, "atoms", "--in", str(path))
        assert code == 0
        assert "atoms: 4" in out
        assert "11 -> [1]" in out
        code, out, _ = run(capsys, "atoms", "--in", str(path), "--drop-zero-cell")
        assert "atoms: 3" in out

    def test_atoms_report_verifies(self, capsys, tmp_path):
        path = tmp_path / "two.fam"
        path.write_text("2 4\n1100\n0110\n")
        report = tmp_path / "atoms.report"
        run(capsys, "atoms", "--in", str(path), "--out", str(report))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0 and "verdict: PASS" in out

    @pytest.mark.parametrize(
        "tamper",
        [list.pop, lambda atoms: atoms.append({"signature": "00", "points": [2]})],
        ids=["last-atom-missing", "zero-cell-listed"],
    )
    def test_wrong_atoms_fail_verify_without_zero_cell(self, capsys, star_file, tmp_path, tamper):
        report = tmp_path / "atoms.report"
        code, _, _ = run(capsys, "atoms", "--in", star_file, "--sets", "2,0",
                         "--drop-zero-cell", "--out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        tamper(payload["results"]["atoms"]["atoms"])
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 1
        assert "verdict: FAIL" in out

    @pytest.mark.parametrize("flags, tamper, detail", [
        ([], lambda p: p.__setitem__("atom_count", 11), "atom_count 11 differs from the 4 listed atoms"),
        ([], lambda p: p.update(atom_count=5, atoms=[
            {"signature": "00", "points": [3]}, {"signature": "00", "points": [4]}, *p["atoms"][1:]]),
         "cells must be nonempty, each with its own signature"),
        (["--drop-zero-cell"], lambda p: p.update(atom_count=4, atoms=[
            {"signature": "00", "points": []}, *p["atoms"]]),
         "cells must be nonempty, each with its own signature"),
    ], ids=["count", "split-atom", "empty-cell"])
    def test_miscounted_atoms_fail_verify(self, capsys, tmp_path, flags, tamper, detail):
        path = tmp_path / "two.fam"
        path.write_text("2 5\n11000\n01100\n")  # points 3 and 4 form the zero cell
        report = tmp_path / "atoms.report"
        assert run(capsys, "atoms", "--in", str(path), *flags, "--out", str(report))[0] == 0
        payload = json.loads(report.read_text())
        assert [a["signature"] for a in payload["results"]["atoms"]["atoms"]] == (
            ["00", "01", "10", "11"][1 if flags else 0:])
        tamper(payload["results"]["atoms"])
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 1
        assert f"atoms.decomposition-reverifies: FAIL ({detail})" in out

    def test_shatter_value(self, capsys, disjoint3_file):
        code, out, _ = run(capsys, "shatter", "--in", disjoint3_file, "--n", "2")
        assert code == 0
        assert "value=3" in out

    def test_shatter_profile(self, capsys, disjoint3_file, tmp_path):
        report = tmp_path / "prof.report"
        code, out, _ = run(capsys, "shatter", "--in", disjoint3_file, "--n", "3",
                           "--profile", "--out", str(report))
        assert code == 0
        assert "fitted exponent" in out
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0 and "verdict: PASS" in out

    @pytest.mark.parametrize("text, values", [("0 3\n", []), ("1 3\n110\n", [2])])
    def test_profile_of_fewer_than_two_sets_verifies(self, capsys, tmp_path, text, values):
        # A profile holds n = 1 .. min(n_max, sets): none for no sets.
        path, report = tmp_path / "small.fam", tmp_path / "small.report"
        path.write_text(text)
        assert run(capsys, "shatter", "--in", str(path), "--n", "3", "--profile", "--out", str(report))[0] == 0
        assert [e["value"] for e in json.loads(report.read_text())["results"]["shatter"]["profile"]] == values
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0 and out.endswith("verdict: PASS\n")

    @pytest.mark.parametrize("profile", [False, True], ids=["single", "profile"])
    def test_shatter_n_disagreeing_with_witness_fails_verify(self, capsys, tmp_path, profile):
        path = tmp_path / "lines.fam"
        path.write_text(serialize_family(gen_intervals(10, 40, 1)))
        report = tmp_path / "shatter.report"
        flags = ["--profile"] if profile else []
        code, _, _ = run(capsys, "shatter", "--in", str(path), "--n", "3", *flags, "--out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        result = payload["results"]["shatter"]
        entry = result["profile"][-1] if profile else result
        assert entry["n"] == 3 and len(entry["witness"]) == 3
        entry["n"] = 4
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 1
        assert "verdict: FAIL" in out
        assert "witness for n=4 has 3 sets" in out

    def test_shatter_budget_exit_code(self, capsys, tmp_path):
        path = tmp_path / "random.fam"
        path.write_text(serialize_family(gen_random(24, 40, 0.2, 0)))
        code, _, err = run(capsys, "shatter", "--in", str(path), "--n", "10",
                           "--budget", "1000")
        assert code == 3
        assert err == "budget exceeded: exact shatter search exceeded the budget of 1000 nodes\n"

    def test_disjoint_and_sequence(self, capsys, disjoint3_file):
        code, out, _ = run(capsys, "disjoint", "--in", disjoint3_file)
        assert code == 0
        assert "nu=3" in out
        code, out, _ = run(capsys, "disjoint", "--in", disjoint3_file,
                           "--sequence", "--avoid", "0")
        assert code == 0
        assert "sequence: [1, 2]" in out

    def test_disjoint_on_many_singletons(self, capsys, tmp_path):
        # One decided set per search level: deeper than the recursion limit.
        path = tmp_path / "singletons.fam"
        sets = [{"name": f"S{i}", "points": [i]} for i in range(1100)]
        path.write_text(json.dumps({"universe": 1100, "sets": sets}))
        code, out, _ = run(capsys, "disjoint", "--in", str(path))
        assert code == 0
        assert "nu=1100" in out

    @pytest.mark.parametrize("command, args", [("disjoint", []), ("pq", ["--p", "3", "--q", "2"])])
    def test_packing_budget_exit_code(self, capsys, tmp_path, command, args):
        # The packing search pops 416 nodes here.
        path = tmp_path / "random.fam"
        path.write_text(serialize_family(gen_random(90, 135, 0.03, 0)))
        code, out, err = run(capsys, command, "--in", str(path), *args, "--budget", "1")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: packing search exceeded the budget of 1 nodes\n"

    def test_shatter_on_many_singletons(self, capsys, tmp_path):
        # One set per search level: deeper than the recursion limit.
        path = tmp_path / "singletons.fam"
        sets = [{"name": f"S{i}", "points": [i]} for i in range(1100)]
        path.write_text(json.dumps({"universe": 1100, "sets": sets}))
        code, out, _ = run(capsys, "shatter", "--in", str(path), "--n", "1100")
        assert code == 0
        assert "value=1100" in out

    def test_disjoint_report_verifies(self, capsys, disjoint3_file, tmp_path):
        report = tmp_path / "disjoint.report"
        run(capsys, "disjoint", "--in", disjoint3_file, "--sequence", "--avoid", "0",
            "--out", str(report))
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0 and "verdict: PASS" in out


class TestGenerate:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "intervals", "--count", "4", "--universe", "12"],
            ["--kind", "halfplane_grid", "--count", "3", "--grid-side", "24"],
            ["--kind", "random", "--count", "4", "--universe", "9", "--density", "0.5"],
            ["--kind", "witness_rich", "--depth", "2"],
        ],
    )
    def test_generated_files_parse(self, capsys, tmp_path, argv):
        path = tmp_path / "out.fam"
        code, out, _ = run(capsys, "generate", *argv, "--seed", "3", "--out", str(path))
        assert code == 0
        fam = parse_family(path.read_text())
        assert serialize_family(fam) == path.read_text()
        assert fam.provenance is not None

    def test_missing_parameter_is_input_error(self, capsys):
        code, _, err = run(capsys, "generate", "--kind", "intervals", "--count", "4")
        assert code == 2
        assert "universe" in err

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "intervals",
                           "--count", "2", "--universe", "6", "--seed", "1")
        assert code == 0
        assert '"universe": 6' in out


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "pierce", "--in", "/nonexistent/x.fam")
        assert code == 2

    def test_malformed_family(self, capsys, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_text("2 3\n11x\n010\n")
        code, _, err = run(capsys, "atoms", "--in", str(path))
        assert code == 2
        assert "line 2" in err

    def test_deeply_nested_family_file(self, capsys, tmp_path):
        path = tmp_path / "deep.fam"
        path.write_text('{"universe": 1, "sets": ' + "[" * 100_000)
        assert run(capsys, "atoms", "--in", str(path)) == (
            2, "", "error: family file nests too deeply to parse\n")

    # Explicit ids keep each row's test name stable.
    @pytest.mark.parametrize("command, args", [
        ("shatter", ["--n", "2"]),
        ("pq", ["--p", "2", "--q", "2"]),
        ("pierce", []),
        ("disjoint", []),
        ("witness", ["--n", "2", "--target-from-file"]),
    ], ids=["shatter-args1", "pq-args2", "pierce-args3", "disjoint-args4", "witness-args5"])
    @pytest.mark.parametrize("budget", ["-1", "-5"])
    def test_negative_budget(self, capsys, rich_file, command, args, budget):
        assert run(capsys, command, "--in", rich_file, *args, "--budget", budget) == (
            2, "", "error: --budget must be nonnegative\n")

    @pytest.mark.parametrize("argv, message", [
        # Options a subcommand does not declare: the parser refuses them.
        (["atoms", "--in", "F", "--budget", "0", "--strict"], "setfam: error: unrecognized arguments: --budget 0 --strict"),
        (["atoms", "--in", "F", "--budget", "5"], "setfam: error: unrecognized arguments: --budget 5"),
        (["shatter", "--in", "F", "--n", "2", "--strict"], "setfam: error: unrecognized arguments: --strict"),
        (["pierce", "--in", "F", "--mode", "greedy", "--budget", "0", "--strict"],
         "setfam: error: unrecognized arguments: --strict"),
        (["disjoint", "--in", "F", "--strict"], "setfam: error: unrecognized arguments: --strict"),
        (["generate", "--kind", "intervals", "--count", "2", "--universe", "6", "--budget", "0", "--strict"],
         "setfam: error: unrecognized arguments: --budget 0 --strict"),
        (["verify", "--report", "F", "--strict"], "setfam: error: unrecognized arguments: --strict"),
        # Options a subcommand declares, given in a mode that does not read
        # them (test_disjoint_avoid_needs_sequence and
        # test_disjoint_sequence_takes_no_cap cover --avoid and --cap).
        (["disjoint", "--in", "F", "--sequence", "--budget", "0"], "error: --budget applies only without --sequence"),
        (["shatter", "--in", "F", "--n", "2", "--mode", "greedy", "--budget", "0"],
         "error: --budget applies only with --mode exact"),
        (["shatter", "--in", "F", "--n", "2", "--mode", "greedy", "--profile", "--budget", "5"],
         "error: --budget applies only with --mode exact"),
        (["pierce", "--in", "F", "--mode", "greedy", "--budget", "5"], "error: --budget applies only with --mode exact"),
        (["witness", "--in", "F", "--n", "2", "--B-from-file", "--B", "9"],
         "error: --target applies only without --target-from-file"),
        (["generate", "--kind", "intervals", "--count", "2", "--universe", "6", "--depth", "7", "--density", "0.5"],
         "error: --density applies only with --kind random"),
        (["generate", "--kind", "intervals", "--count", "2", "--universe", "6", "--depth", "7"],
         "error: --depth applies only with --kind witness_rich"),
        (["generate", "--kind", "intervals", "--count", "2", "--universe", "6", "--grid-side", "8"],
         "error: --grid-side applies only with --kind halfplane_grid"),
        (["generate", "--kind", "intervals", "--count", "2", "--universe", "6", "--allow-empty-sets"],
         "error: --allow-empty-sets applies only with --kind random"),
        (["generate", "--kind", "halfplane_grid", "--count", "3", "--grid-side", "8", "--universe", "6"],
         "error: --universe applies only with --kind intervals or random"),
        (["generate", "--kind", "witness_rich", "--depth", "2", "--count", "3"],
         "error: --count applies only with --kind intervals, halfplane_grid or random"),
    ])
    def test_option_outside_its_modes_is_refused(self, capsys, rich_file, argv, message):
        argv = [rich_file if a == "F" else a for a in argv]
        usage = cli.build_parser().format_usage() if message.startswith("setfam:") else ""
        assert run(capsys, *argv) == (2, "", f"{usage}{message}\n")

    def test_negative_cap(self, capsys, rich_file):
        assert run(capsys, "disjoint", "--in", rich_file, "--cap", "-1") == (
            2, "", "error: --cap must be nonnegative\n")

    def test_disjoint_avoid_needs_sequence(self, capsys, rich_file):
        assert run(capsys, "disjoint", "--in", rich_file, "--avoid", "0,1") == (
            2, "", "error: --avoid applies only with --sequence\n")

    def test_disjoint_sequence_takes_no_cap(self, capsys, rich_file):
        assert run(capsys, "disjoint", "--in", rich_file, "--sequence", "--cap", "1") == (
            2, "", "error: --cap applies only without --sequence\n")

    def test_witness_rich_depth_above_maximum(self, capsys):
        assert run(capsys, "generate", "--kind", "witness_rich", "--depth", "100") == (
            2, "", "error: depth must be between 1 and 20, got 100\n")

    def test_halfplane_grid_side_above_maximum(self, capsys):
        assert run(capsys, "generate", "--kind", "halfplane_grid", "--count", "3",
                   "--grid-side", "5000") == (
            2, "", "error: grid_side must be between 3 and 1448, got 5000\n")

    def test_halfplane_grid_count_beyond_grid_points(self, capsys):
        # 60 lines make 1,831 cells, each needing its own point of the grid.
        assert run(capsys, "generate", "--kind", "halfplane_grid", "--count", "60", "--grid-side", "10") == (
            2, "", "error: count 60 makes 1831 cells, each needing a grid point; "
            "grid_side must be at least 43, got 10\n")

    @pytest.mark.parametrize("kind, args", [("intervals", []), ("random", ["--density", "0.5"])])
    def test_generate_universe_above_maximum(self, capsys, kind, args):
        assert run(capsys, "generate", "--kind", kind, "--count", "3", "--universe", "2097152", *args) == (
            2, "", "error: universe_size must be at most 2097151, got 2097152\n")

    def test_generate_incidences_above_maximum(self, capsys, monkeypatch):
        # A million intervals over two million points would take over 100 GB
        # of masks; the size is refused before the stream is even seeded.
        monkeypatch.setattr(generators, "SplitMix64", None)
        assert run(capsys, "generate", "--kind", "intervals", "--count", "1000000", "--universe", "2000000") == (
            2, "", "error: count 1000000 times 2000000 points makes 2000000000000 incidences; "
            "a generated family holds at most 41943020\n")

    @pytest.mark.parametrize("text, where", [
        ("0 2097152\n", "line 1"),
        ('{"universe": 2097152, "sets": []}', "universe"),
    ])
    def test_family_universe_above_maximum(self, capsys, tmp_path, text, where):
        path = tmp_path / "huge.fam"
        path.write_text(text)
        assert run(capsys, "disjoint", "--in", str(path)) == (
            2, "", f"error: {where}: universe of 2097152 points exceeds the largest, 2097151\n")

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_empty_set_pierce_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.fam"
        path.write_text("2 3\n100\n000\n")
        code, _, err = run(capsys, "pierce", "--in", str(path))
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("command, name", [("atoms", "a.json"), ("verify", "v.json")])
    def test_unwritable_report_prints_nothing(self, capsys, star_file, tmp_path, command, name):
        # The report is written before the text is printed, so a failed write
        # leaves standard output empty.
        report = tmp_path / "atoms.json"
        assert run(capsys, "atoms", "--in", star_file, "--out", str(report))[0] == 0
        missing = tmp_path / "missing" / name
        source = ["--in", star_file] if command == "atoms" else ["--report", str(report)]
        assert run(capsys, command, *source, "--out", str(missing)) == (
            2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n")
        assert not missing.parent.exists()


def _closed_after_one_line(*argv):
    """Run setfam in a subprocess whose reader closes standard output after
    one line: (exit code, that line, standard error)."""
    src = str(Path(setfam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-m", "setfam", *argv], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), first, err


class TestClosedStdout:
    # 331,767 bytes of family text and 127,609 of atoms, both past a 64 KiB
    # pipe buffer, so the one write of the text meets the closed pipe.
    GENERATE = ["generate", "--kind", "random", "--count", "20", "--universe", "4000",
                "--density", "0.3", "--seed", "1"]

    def test_generate_exits_2_without_traceback(self):
        assert _closed_after_one_line(*self.GENERATE) == (
            2, "kind=random seed=1 sets=20 universe=4000\n", "error: [Errno 32] Broken pipe\n")

    def test_atoms_writes_its_report_first(self, capsys, tmp_path):
        family, report = tmp_path / "random.json", tmp_path / "atoms.json"
        assert run(capsys, *self.GENERATE, "--out", str(family))[0] == 0
        assert _closed_after_one_line("atoms", "--in", str(family), "--out", str(report)) == (
            2, f"subfamily: {list(range(20))}\n", "error: [Errno 32] Broken pipe\n")
        code, out, _ = run(capsys, "verify", "--report", str(report))
        assert (code, out.splitlines()[-1]) == (0, "verdict: PASS")


class TestDeterminism:
    def test_reports_byte_stable_modulo_wall_time(self, capsys, rich_file, tmp_path):
        report = tmp_path / "chain.report"
        outs = []
        reports = []
        for _ in range(2):
            code, out, _ = run(capsys, "--threads", "2", "witness", "--in", rich_file,
                               "--B-from-file", "--n", "3", "--out", str(report))
            assert code == 0
            outs.append(out)
            reports.append(strip_wall_time(report.read_text()))
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command, args", [("atoms", []), ("pierce", []), ("shatter", ["--n", "2"])])
    def test_input_digest_is_the_sha256_of_the_input_bytes(self, capsys, rich_file, tmp_path, command, args):
        report = tmp_path / f"{command}.report"
        code, _, _ = run(capsys, command, "--in", rich_file, *args, "--out", str(report))
        assert code == 0
        with open(rich_file, "rb") as f:
            expected = "sha256:" + hashlib.sha256(f.read()).hexdigest()
        assert json.loads(report.read_text())["input_digest"] == expected

    def test_no_report_neither_hashes_nor_embeds(self, capsys, monkeypatch, rich_file):
        # Without --out the digest and the embedded family have no reader.
        monkeypatch.setattr(cli, "_sha256_hex", None)
        monkeypatch.setattr(cli, "family_to_dict", None)
        code, out, err = run(capsys, "pierce", "--in", rich_file)
        assert (code, err) == (0, "")
        assert out.startswith("tau=")

    def test_generate_byte_identical(self, capsys, tmp_path):
        texts = []
        for tag in ("a", "b"):
            path = tmp_path / f"g-{tag}.fam"
            run(capsys, "generate", "--kind", "random", "--count", "5", "--universe", "10",
                "--density", "0.3", "--seed", "11", "--out", str(path))
            texts.append(path.read_text())
        assert texts[0] == texts[1]


class TestInputEdges:
    def test_empty_sets_option_gives_one_atom(self, capsys, disjoint3_file):
        assert run(capsys, "atoms", "--in", disjoint3_file, "--sets", "") == (
            0, "subfamily: []\natoms: 1\n   -> [0, 1, 2]\n", "")

    def test_sets_option_must_hold_integers(self, capsys, disjoint3_file):
        code, out, err = run(capsys, "atoms", "--in", disjoint3_file, "--sets", "a,b")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --sets: expected comma-separated integers, got 'a,b'\n")

    def test_target_from_file_needs_an_external_target(self, capsys, disjoint3_file):
        assert run(capsys, "witness", "--in", disjoint3_file, "--n", "1", "--target-from-file") == (
            2, "", "error: family file carries no external_target\n")

    @pytest.mark.parametrize("args, message", [
        (["--count", "0", "--universe", "5", "--density", "0.5"], "count must be at least 1"),
        (["--count", "2", "--universe", "0", "--density", "0.5"], "universe_size must be at least 1"),
        (["--count", "2", "--universe", "5", "--density", "1e-300"],
         "could not draw a nonempty set at density 1e-300"),
    ])
    def test_random_kind_input_errors(self, capsys, args, message):
        assert run(capsys, "generate", "--kind", "random", *args) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("module", ["setfam", "setfam.cli"])
    def test_module_runs_main(self, disjoint3_file, module):
        src = str(Path(setfam.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", module, "atoms", "--in", disjoint3_file, "--sets", "0"],
                              env=env, capture_output=True, text=True, timeout=60, check=False)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "subfamily: [0]\natoms: 2\n  0 -> [1, 2]\n  1 -> [0]\n", "")
