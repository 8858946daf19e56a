"""Each setfam subcommand imports only the modules it runs, and the package
resolves its exported names and submodules on first use."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setfam
from setfam.cli import main

SRC = Path(setfam.__file__).resolve().parents[1]
SUBMODULES = ("cli", "errors", "family", "generators", "piercing", "pq", "report", "rng", "shatter", "witness")
# The submodules every subcommand loads: the CLI, its errors and the family
# parser. Only verify loads the report checks.
BASE = {"cli", "errors", "family"}
# Standard-library modules no subcommand loads: the result records are named
# tuples, and dataclasses would bring in inspect, ast, dis and tokenize; the
# exponent fit sums with math.fsum, and statistics would bring in fractions,
# decimal and random; the generators do exact geometry in integers. The input
# digest uses the interpreter's built-in SHA-256, so OpenSSL's _hashlib stays
# unloaded, except on an interpreter built without one.
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
NEVER = {"dataclasses", "inspect", "statistics", "fractions"} | ({"_hashlib"} if BUILTIN_SHA256 else set())


def loaded_modules(code: str, *argv: str, cwd: Path | None = None) -> set[str]:
    """Run ``code`` in a fresh interpreter and return sys.modules at its end."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint(*sorted(sys.modules))", *argv],
        env=dict(os.environ, PYTHONPATH=path), cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


def setfam_modules(names: set[str]) -> set[str]:
    return {name.removeprefix("setfam.") for name in names if name.startswith("setfam.")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    rich = str(root / "rich.fam")
    for argv in (
        ["generate", "--kind", "witness_rich", "--depth", "3", "--seed", "7", "--out", rich],
        ["atoms", "--in", rich, "--out", str(root / "atoms.report")],
        ["pierce", "--in", rich, "--out", str(root / "pierce.report")],
        ["witness", "--in", rich, "--n", "3", "--target-from-file", "--out", str(root / "witness.report")],
    ):
        assert main(argv) == 0
    return root


@pytest.fixture(scope="module")
def interpreter_modules():
    return loaded_modules("import sys")


# (argv, setfam modules beyond BASE)
CASES = [
    (["atoms", "--in", "rich.fam"], set()),
    (["shatter", "--in", "rich.fam", "--n", "2"], {"shatter"}),
    (["shatter", "--in", "rich.fam", "--n", "3", "--profile"], {"shatter"}),
    (["pq", "--in", "rich.fam", "--p", "2", "--q", "2"], {"pq"}),
    (["pierce", "--in", "rich.fam"], {"piercing", "pq"}),
    (["disjoint", "--in", "rich.fam"], {"pq"}),
    (["witness", "--in", "rich.fam", "--n", "3", "--target-from-file"], {"witness"}),
    (["generate", "--kind", "intervals", "--count", "3", "--universe", "8"], {"generators", "rng"}),
    (["generate", "--kind", "halfplane_grid", "--count", "2", "--grid-side", "8"], {"generators", "rng"}),
    (["generate", "--kind", "witness_rich", "--depth", "3"], {"generators", "rng"}),
    (["verify", "--report", "atoms.report"], {"report"}),
    (["verify", "--report", "pierce.report"], {"report", "piercing", "pq"}),
    (["verify", "--report", "witness.report"], {"report", "witness"}),
]


@pytest.mark.parametrize("argv, solvers", CASES, ids=[" ".join(case[0]) for case in CASES])
def test_subcommand_loads_only_its_modules(workdir, interpreter_modules, argv, solvers):
    code = "import sys\nfrom setfam.cli import main\nmain(sys.argv[1:])"
    names = loaded_modules(code, *argv, cwd=workdir)
    assert setfam_modules(names) == BASE | solvers
    assert not (names - interpreter_modules) & NEVER


def test_bare_import_loads_no_submodule():
    assert setfam_modules(loaded_modules("import sys, setfam")) == set()


def test_attribute_loads_its_module_on_first_use():
    names = loaded_modules("import sys, setfam\nassert setfam.max_disjoint is setfam.pq.max_disjoint")
    assert setfam_modules(names) == {"errors", "family", "pq"}


def test_submodules_resolve_as_attributes():
    for name in SUBMODULES:
        assert getattr(setfam, name) is importlib.import_module(f"setfam.{name}")


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from setfam import *", namespace)
    assert {name: namespace[name] for name in setfam.__all__} == {
        name: getattr(setfam, name) for name in setfam.__all__
    }


def test_dir_lists_exports_and_submodules():
    assert set(setfam.__all__) | set(SUBMODULES) <= set(dir(setfam))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        setfam.no_such_name  # noqa: B018


def test_submodule_loads_on_first_attribute_access():
    names = loaded_modules("import sys, setfam\nassert setfam.shatter is sys.modules['setfam.shatter']")
    assert setfam_modules(names) == {"errors", "family", "shatter"}
