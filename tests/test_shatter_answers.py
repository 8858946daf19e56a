"""Pinned exact shatter answers: sha256 of what ``dual_shatter`` and
``growth_profile`` report.

Exact ``dual_shatter`` (value and witness at each listed n) and the exact
``growth_profile`` up to the largest listed n are run on the families of the
benchmark's ``atoms`` workload and on groups of small seeded families. The
digests were recorded before the exact search ran on distinct point columns
with a per-cell bound and a counted last level, so they pin that those
changes alter no reported value or witness.

After a deliberate change to the answers, print the new table with
``PYTHONPATH=src python tests/test_shatter_answers.py`` and review the diff.
"""

import hashlib
import json
import sys

import pytest

from helpers import random_family
from setfam import dual_shatter, gen_halfplane_grid, gen_intervals, gen_random, growth_profile
from setfam.rng import SplitMix64

# name -> (families, the n at which dual_shatter runs; None means 1..#sets)
FAMILIES = {
    **{
        f"halfplane(12,96,{s})": ((lambda s=s: [gen_halfplane_grid(12, 96, s)]), (5, 6, 7))
        for s in (1, 16)
    },
    "intervals(40,200,0..9)": (lambda: [gen_intervals(40, 200, s) for s in range(10)], (4,)),
    "random(24,40,0.2,0..9)": (lambda: [gen_random(24, 40, 0.2, s) for s in range(10)], (5,)),
    "random_family(0..299)": (lambda: [random_family(SplitMix64(s)) for s in range(300)], None),
    "random_family(12,20)(0..59)": (
        lambda: [random_family(SplitMix64(s), max_sets=12, max_points=20) for s in range(60)],
        None,
    ),
}

PINNED = {
    'halfplane(12,96,1)': '5b6147328e95a5554167e47027b0a6626e571c8c26fbd3268564cfe9726026eb',
    'halfplane(12,96,16)': '5b6147328e95a5554167e47027b0a6626e571c8c26fbd3268564cfe9726026eb',
    'intervals(40,200,0..9)': 'ff542adba2541bf46abf34056df49753f557b754d3482e08e9395ed5866a83bd',
    'random(24,40,0.2,0..9)': '99d3e469e25626ccac9b20ba38081b330c924faf68e259f5e82f88db33d3f09b',
    'random_family(0..299)': '3c6d8b257f00026d923e1c9da7621b8149ab01a80beb456e76beeaaa317c3a67',
    'random_family(12,20)(0..59)': 'e6d6f49d205121ac82ee14fdc51f46104061f62c0cd0312a1624e8981724eb33',
}


def answers(fam, ns):
    ns = ns or range(1, fam.num_sets + 1)
    singles = [dual_shatter(fam, n) for n in ns]
    profile = growth_profile(fam, max(2, *ns))
    return {
        "dual_shatter": [[r.n, r.value, list(r.witness)] for r in singles],
        "growth_profile": [[r.n, r.value, list(r.witness)] for r in profile.results],
        "exponent": f"{profile.exponent:.6f}",
    }


def digest(name):
    make, ns = FAMILIES[name]
    rows = [answers(fam, ns) for fam in make()]
    payload = rows[0] if len(rows) == 1 else rows
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_shatter_answers_keep_their_bytes(name):
    assert digest(name) == PINNED[name]


if __name__ == "__main__":
    sys.stdout.write("PINNED = {\n")
    for name in FAMILIES:
        sys.stdout.write(f"    {name!r}: {digest(name)!r},\n")
    sys.stdout.write("}\n")
