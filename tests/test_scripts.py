"""Smoke tests of the experiment scripts: each runs as a subprocess and its
stdout is pinned at small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GROWTH = """\
           class  shatter values (n=1..)                   exponent
       intervals  2 4 6 8 10                               1.000
  halfplane_grid  2 4 7 11 16                              1.616
  random(d=0.35)  2 4 8 12 13                              0.972
"""

WITNESS = """\
depth 1: universe=3 counts=[2] traces=1/1 verifier=PASS
depth 2: universe=7 counts=[2, 4] traces=3/3 verifier=PASS
depth 3: universe=15 counts=[2, 4, 8] traces=6/6 verifier=PASS
depth 4: universe=31 counts=[2, 4, 8, 16] traces=10/10 verifier=PASS
depth 5: universe=63 counts=[2, 4, 8, 16, 32] traces=15/15 verifier=PASS
"""


@pytest.mark.parametrize(
    "script, args, expected",
    [
        # Halfplane values are 1 + n + C(n,2).
        ("growth_experiment.py", ["--n-max", "5"], GROWTH),
        ("witness_demo.py", [], WITNESS),
    ],
)
def test_script_stdout(script, args, expected):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected


# Eight code lines: the docstrings, the comments and the blank lines are left
# out, and a string or bracket spanning two lines counts both.
SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a string
that is code"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_code_line_count(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), "pkg"],
        capture_output=True, text=True, cwd=tmp_path, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "     8  pkg/a.py\n     1  pkg/b.py\n     9  total\n"
