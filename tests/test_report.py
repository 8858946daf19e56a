"""``setfam verify`` on malformed reports: exit 1 or 2, never a traceback.

A report of the wrong shape exits 2 with a message that names the offending
JSON path; a well-formed report whose claim is false exits 1 through a
failed check. Keys that no check reads are ignored.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam import ReportFormatError, chain_from_dict
from setfam.cli import main

STAR = {
    "universe": 4,
    "sets": [{"name": "A", "points": [0, 1]}, {"name": "B", "points": [0, 2]},
             {"name": "C", "points": [0, 3]}],
}
ONE = {"universe": 10, "extension": [8, 9], "sets": [{"name": "S1", "points": [0, 8]}]}

# Report name -> the command that writes it.
COMMANDS = {
    "atoms": ["atoms", "--in", "star.fam"],
    "atoms-sets": ["atoms", "--in", "star.fam", "--sets", "2,0", "--drop-zero-cell"],
    "shatter": ["shatter", "--in", "star.fam", "--n", "2"],
    "profile": ["shatter", "--in", "star.fam", "--n", "3", "--profile"],
    "pq": ["pq", "--in", "star.fam", "--p", "3", "--q", "2"],
    "pq-violation": ["pq", "--in", "disjoint3.fam", "--p", "3", "--q", "2"],
    "pq-q3": ["pq", "--in", "disjoint3.fam", "--p", "3", "--q", "3"],
    "pierce": ["pierce", "--in", "disjoint3.fam"],
    "disjoint": ["disjoint", "--in", "disjoint3.fam"],
    "pq-intervals": ["pq", "--in", "intervals.fam", "--p", "6", "--q", "2"],
    "disjoint-intervals": ["disjoint", "--in", "intervals.fam"],
    "sequence": ["disjoint", "--in", "disjoint3.fam", "--sequence", "--avoid", "0"],
    "chain": ["witness", "--in", "rich.fam", "--B-from-file", "--n", "3"],
    "stuck": ["witness", "--in", "one.fam", "--target", "8,9", "--n", "2"],
}

# Keys no check reads, by result kind; "stuck" is read on stuck reports only.
IGNORED = {
    "atoms": set(),
    "shatter": {"mode", "exponent"},
    "pq": set(),
    "pierce": {"mode"},
    "disjoint": set(),
    "witness": set(),
}
TOP_IGNORED = {"command", "input_digest", "wall_time_s"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    (root / "star.fam").write_text(json.dumps(STAR))
    (root / "one.fam").write_text(json.dumps(ONE))
    (root / "disjoint3.fam").write_text("3 3\n100\n010\n001\n")
    return root


@pytest.fixture(scope="module")
def reports(workdir):
    """Report name -> parsed report, all written by the command line."""
    assert run(["generate", "--kind", "witness_rich", "--depth", "3", "--seed", "5",
                "--out", str(workdir / "rich.fam")])[0] == 0
    assert run(["generate", "--kind", "intervals", "--count", "12", "--universe", "40", "--seed", "3",
                "--out", str(workdir / "intervals.fam")])[0] == 0
    out = {}
    for name, argv in COMMANDS.items():
        path = workdir / f"{name}.json"
        argv = [str(workdir / a) if a.endswith(".fam") else a for a in argv]
        assert run([*argv, "--out", str(path)])[0] == 0
        out[name] = json.loads(path.read_text())
    return out


def run(argv):
    """Exit code, stdout and stderr of one in-process ``setfam`` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def verify(workdir, report):
    path = workdir / "mutated.json"
    path.write_text(json.dumps(report))
    return run(["verify", "--report", str(path)])


def _tamper(kind, empty_set=None, **values):
    """Set ``values`` in one result, first emptying set ``empty_set`` of its family."""
    def mutate(results):
        if empty_set is not None:
            results[kind]["family"]["sets"][empty_set]["points"] = []
        results[kind].update(values)
    return mutate


def _recorded(**values):
    """Set ``values`` in the witness result's verification block."""
    def mutate(results):
        results["witness"]["verification"].update(values)
    return mutate


def _share(kind, point, sets, **values):
    """Set ``values`` in one result, first adding ``point`` to the listed sets of its family."""
    def mutate(results):
        for i in sets:
            results[kind]["family"]["sets"][i]["points"].append(point)
        results[kind].update(values)
    return mutate


@pytest.mark.parametrize(
    "name, mutate, message",
    [
        ("chain", lambda r: r["witness"]["chain"].__setitem__("steps", "0,1,2"),
         "results.witness.chain.steps: expected a list"),
        ("chain", lambda r: r["witness"].__setitem__("verification", None),
         "results.witness.verification: expected an object"),
        ("profile", lambda r: r["shatter"]["profile"][0].__setitem__("witness", None),
         "results.shatter.profile[0].witness: expected a list"),
        ("atoms", lambda r: r["atoms"].__setitem__("atoms", [1, 2]),
         "results.atoms.atoms[0]: expected an object"),
        ("pq-violation", lambda r: r["pq"].__setitem__("violation", [0, 999]),
         "results.pq.violation[1]: set 999 out of range for 3 sets"),
        ("pq", lambda r: r["pq"].__setitem__("disjoint_witness", [0, 999]),
         "results.pq.disjoint_witness[1]: set 999 out of range for 3 sets"),
        ("pq", lambda r: r["pq"].pop("family"), "results.pq: missing key 'family'"),
        ("pierce", lambda r: r["pierce"]["family"]["sets"][0].__setitem__("points", [7]),
         "results.pierce.family: sets[0] ('S0').points[0]: point 7 out of range for universe 3"),
        ("atoms", lambda r: r["atoms"]["family"].__setitem__("universe", -1),
         "results.atoms.family: universe: 'universe' must be nonnegative"),
        ("sequence", lambda r: r["disjoint"].__setitem__("avoid", [-1]),
         "results.disjoint.avoid[0]: point -1 out of range for 3 points"),
        # Faults of the right shape that a check finds name the result. The
        # chain report's target is the extension, points 7..14; its first probe is 0.
        ("pierce", lambda r: r["pierce"]["assignment"].pop(),
         "results.pierce: partial assignment: 2 labels for 3 sets"),
        ("shatter", lambda r: r["shatter"].__setitem__("witness", [0, 0]),
         "results.shatter: set index 0 repeated in subfamily"),
        ("atoms-sets", lambda r: r["atoms"].__setitem__("subfamily", [2, 2]),
         "results.atoms: set index 2 repeated in subfamily"),
        ("chain", lambda r: r["witness"]["chain"]["steps"][1]["probes"].pop(),
         "results.witness: step 2 must carry 2 probes, found 1"),
        ("chain", lambda r: r["witness"]["chain"]["steps"][0].__setitem__("probes", [7]),
         "results.witness: probe 7 is not a base point"),
        ("chain", lambda r: r["witness"]["target"].__setitem__(0, 0),
         "results.witness: target point 0 is a base point; the target must lie in the extension"),
        ("pq-violation", lambda r: r["pq"].__setitem__("q", -1),
         "results.pq: need p >= q >= 2, got p=3, q=-1"),
        # An empty set listed twice would be two sets sharing nothing, but it
        # is one set: a set listed twice is as malformed as one out of range.
        ("pq-violation", _tamper("pq", 2, violation=[2, 2, 2]),
         "results.pq: set index 2 repeated in subfamily"),
        ("pq-q3", _tamper("pq", 2, violation=[2, 2, 2]),
         "results.pq: set index 2 repeated in subfamily"),
        ("pq-violation", _tamper("pq", 2, disjoint_witness=[0, 1, 2, 2]),
         "results.pq: set index 2 repeated in subfamily"),
        ("disjoint", _tamper("disjoint", 2, nu=4, witness=[0, 1, 2, 2]),
         "results.disjoint: set index 2 repeated in subfamily"),
        ("sequence", _tamper("disjoint", 2, sequence=[2, 2, 2]),
         "results.disjoint: set index 2 repeated in subfamily"),
        # Every field of a verification block is read, a stuck report's too.
        ("chain", lambda r: r["witness"]["verification"].pop("distinct_trace_count"),
         "results.witness.verification: missing key 'distinct_trace_count'"),
        ("stuck", lambda r: r["witness"]["verification"].pop("failures"),
         "results.witness.verification: missing key 'failures'"),
        ("stuck", lambda r: r["witness"].pop("verification"), "results.witness: missing key 'verification'"),
    ],
)
def test_malformed_report_exits_two_with_its_path(workdir, reports, name, mutate, message):
    report = copy.deepcopy(reports[name])
    mutate(report["results"])
    code, out, err = verify(workdir, report)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_pq_parameters_out_of_order_exit_two(workdir, reports):
    # The three star sets share point 0, which no q = 5 can deny.
    report = copy.deepcopy(reports["pq"])
    report["results"]["pq"].update(q=5, violation=[0, 1, 2])
    assert verify(workdir, report) == (2, "", "error: results.pq: need p >= q >= 2, got p=3, q=5\n")


@pytest.mark.parametrize(
    "name, mutate, failed",
    [
        # A profile lists n = 1, 2, ..., k in order, with k >= min(2, sets).
        ("profile", _tamper("shatter", profile=[]),
         "shatter.witness-reverifies: FAIL (profile lists n = [], not 1, 2, ..., k for some k >= 2)"),
        ("profile", lambda r: r["shatter"].__setitem__("profile", [r["shatter"]["profile"][2]] * 2),
         "shatter.witness-reverifies: FAIL (profile lists n = [3, 3], not 1, 2, ..., k for some k >= 2)"),
        # The star's atoms are 001 -> [3], 010 -> [2], 100 -> [1], 111 -> [0].
        ("atoms", lambda r: r["atoms"]["atoms"][1].__setitem__("points", [3]),
         "atoms.decomposition-reverifies: FAIL (cells overlap)"),
        # The three singletons {0}, {1}, {2}, once sets 1 and 2 take point 0 too,
        # share it: two sets meet, and with all three, three sets share a point.
        ("pq-violation", _share("pq", 0, [2], violation=[0, 1, 2]),
         "pq.violation-reverifies: FAIL (violation is not pairwise disjoint)"),
        ("pq-q3", _share("pq", 0, [1, 2], violation=[0, 1, 2]),
         "pq.violation-reverifies: FAIL (violation has q sets sharing a point)"),
        ("pq-violation", _share("pq", 0, [2], disjoint_witness=[0, 1, 2]),
         "pq.disjoint-witness-reverifies: FAIL (witness sets intersect)"),
        ("disjoint", _tamper("disjoint", nu=99),
         "disjoint.witness-reverifies: FAIL (nu is 99 but the witness has 3 sets)"),
        # The verdict must agree with its witnesses. The 12 intervals hold
        # (6,2) with the packing witness [1, 3, 4, 6], so they fail (3,2).
        ("pq-intervals", _tamper("pq", holds=False, disjoint_witness=None),
         "pq.verdict-agrees: FAIL (the property fails, yet no witness proves it)"),
        ("pq-intervals", _tamper("pq", p=3),
         "pq.verdict-agrees: FAIL (the property holds, yet a witness proves it fails)"),
        ("pq-violation", _tamper("pq", holds=True),
         "pq.verdict-agrees: FAIL (the property holds, yet a witness proves it fails)"),
        ("pq-q3", _tamper("pq", holds=True),
         "pq.verdict-agrees: FAIL (the property holds, yet a witness proves it fails)"),
        ("disjoint-intervals", _tamper("disjoint", cap=2),
         "disjoint.witness-reverifies: FAIL (4 sets exceed the cap of 2)"),
        # The greedy sequence avoiding point 0 is [1, 2]: cut short, or reordered.
        ("sequence", _tamper("disjoint", sequence=[1]),
         "disjoint.witness-reverifies: FAIL (sequence[1] is missing, where the greedy sequence has set 2)"),
        ("sequence", _tamper("disjoint", sequence=[2, 1]),
         "disjoint.witness-reverifies: FAIL (sequence[0] is set 2, where the greedy sequence has set 1)"),
        # The builder writes optimal exactly when the lower bound meets tau.
        ("pierce", _tamper("pierce", optimal=False),
         "pierce.classes-pierced: FAIL (lower bound 3 does not fit tau 3 with optimal=False)"),
        # A verification block must be its recomputation; the detail names
        # the first field that differs. The chain's is 6 of 6 traces.
        ("chain", _recorded(distinct_trace_count=7, quadratic_bound_ok=False),
         "witness.chain-valid: FAIL (recorded distinct_trace_count differs from the recomputed verification)"),
        ("chain", _recorded(quadratic_bound_ok=False),
         "witness.chain-valid: FAIL (recorded quadratic_bound_ok differs from the recomputed verification)"),
        ("chain", _recorded(failures=["probe traces on the full chain are not pairwise distinct"]),
         "witness.chain-valid: FAIL (recorded failures differs from the recomputed verification)"),
        # The verification's own key order names length; the report file's
        # sorted keys would name failures.
        ("chain", _recorded(length=4, failures=["probe traces on the full chain are not pairwise distinct"]),
         "witness.chain-valid: FAIL (recorded length differs from the recomputed verification)"),
        # The stuck report's chain has one step, short of its n_target of 2.
        ("stuck", _recorded(length=2),
         "witness.partial-chain-valid: FAIL (recorded length differs from the recomputed verification)"),
        ("stuck", _recorded(ok=False),
         "witness.partial-chain-valid: FAIL (recomputed ok=True, recorded ok=False)"),
        ("stuck", _tamper("witness", verification=None),
         "witness.partial-chain-valid: FAIL (recorded verification differs from the recomputed verification)"),
        ("stuck", lambda r: r["witness"]["chain"].update(steps=[], atom_history=[], target_atom_counts=[]),
         "witness.partial-chain-valid: FAIL (recorded verification differs from the recomputed verification)"),
        ("stuck", _tamper("witness", n_target=1),
         "witness.stuck-state-final: FAIL (n_target 1 is not above the chain's 1 steps)"),
    ],
)
def test_false_witnesses_fail_verify(workdir, reports, name, mutate, failed):
    report = copy.deepcopy(reports[name])
    mutate(report["results"])
    code, out, err = verify(workdir, report)
    assert (code, err) == (1, "")
    assert f"{failed}\n" in out and out.endswith("verdict: FAIL\n")


def test_verify_reads_no_kernel(workdir, reports, monkeypatch):
    # Every check but the stuck replay, which reruns the builder's stages,
    # reads memberships apart from the kernel that the solvers run on.
    def kernel(*args):
        raise AssertionError("verify called the kernel")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "setfam"]:
        for name in ("cells", "split_cells", "transpose"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, kernel)
    for name in sorted(set(reports) - {"stuck"}):
        code, out, err = verify(workdir, reports[name])
        assert (code, err, out.endswith("verdict: PASS\n")) == (0, "", True), name


@pytest.mark.parametrize(
    "report, message",
    [
        ([], "expected an object"),
        ({"schema_version": "v0", "results": {}}, "schema_version: unsupported report schema 'v0'"),
        ({"schema_version": "v1"}, "missing key 'results'"),
        ({"schema_version": "v1", "results": {"pq": []}}, "results.pq: expected an object"),
    ],
)
def test_malformed_top_level(workdir, report, message):
    assert verify(workdir, report) == (2, "", f"error: {message}\n")


def test_deeply_nested_report(workdir):
    (workdir / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert run(["verify", "--report", str(workdir / "deep.json")]) == (
        2, "", "error: report nests too deeply to parse\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a": 1,}', "line 1, column 9: invalid JSON: Expecting property name enclosed in double quotes"),
        ("", "line 1, column 1: invalid JSON: Expecting value"),
    ],
)
def test_unparsable_report_is_located(workdir, text, message):
    (workdir / "unparsable.json").write_text(text)
    assert run(["verify", "--report", str(workdir / "unparsable.json")]) == (2, "", f"error: {message}\n")


def test_chain_from_dict_validates_its_input():
    with pytest.raises(ReportFormatError, match=r"chain\.steps\[0\]: missing key 'probes'"):
        chain_from_dict({"steps": [{"set_index": 0}], "atom_history": [], "target_atom_counts": []})


def _paths(value, path=(), in_family=False):
    """Every (path, value) below ``value``, not descending into embedded families."""
    yield path, value
    if in_family:
        return
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield from _paths(sub, (*path, key), key == "family")


def _text(path):
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def _ignored(report, path):
    """Whether ``verify`` never reads the value at ``path`` of ``report``."""
    keys = [k for k in path if isinstance(k, str)]
    if len(keys) < 3:
        return keys[0] in TOP_IGNORED
    kind = keys[1]
    if keys[2] == "stuck":
        return report["results"][kind]["status"] != "stuck"
    return any(k in IGNORED[kind] for k in keys[2:])


@pytest.fixture(scope="module")
def baselines(workdir, reports):
    """Report name -> the outcome of verifying it unchanged."""
    return {name: verify(workdir, report) for name, report in reports.items()}


@settings(max_examples=200)
@given(st.data())
def test_mutated_reports_never_trace_back(workdir, reports, baselines, data):
    name = data.draw(st.sampled_from(sorted(reports)), label="report")
    report = copy.deepcopy(reports[name])
    baseline = baselines[name]
    assert baseline[0] == 0
    paths = [p for p, _ in _paths(report) if p]
    path = data.draw(st.sampled_from(paths), label="path")
    *head, key = path
    parent = report
    for k in head:
        parent = parent[k]
    value = parent[key]
    ignored = _ignored(report, path)
    ops = ["swap"]
    if isinstance(key, str):
        ops.append("drop")
    if isinstance(value, int) and not isinstance(value, bool) and (isinstance(key, int) or key == "set_index"):
        ops.append("out-of-range")
    op = data.draw(st.sampled_from(ops), label="mutation")
    if op == "drop":
        del parent[key]
    elif op == "swap":
        parent[key] = 7 if isinstance(value, str) else "x"
    else:
        parent[key] = data.draw(st.sampled_from([-1, 10**6]), label="index")

    code, out, err = verify(workdir, report)
    if ignored:
        assert (code, out, err) == baseline
        return
    assert code in (1, 2), (code, out, err)
    if code == 2:
        assert out == ""
        where = _text(head) if op == "drop" else _text(path)
        assert err.startswith(f"error: {where}: " if where else "error: "), err
        if op == "drop":
            assert "missing key" in err
    else:
        assert out.rstrip().endswith("verdict: FAIL")


def test_report_with_no_results_fails_by_name(workdir):
    assert verify(workdir, {"schema_version": "v1", "results": {}}) == (
        1, "report.no-results: FAIL (report has no results)\nverdict: FAIL\n", "")
