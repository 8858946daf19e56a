"""Pinned atom and witness answers: sha256 of what the atom kernel and the
witness builder and verifier report.

``boolean_atoms`` (with and without the zero cell) runs on seven full orders,
two prefixes and windows of 4 and 12 sets of ``gen_random(60, 4000, 0.3, s)``
for two seeds; ``_candidate_points`` on the families of the benchmark's
``pierce`` ladder; ``build_quadratic_witness`` (greedy, and greedy and
exhaustive one step past the reachable depth, so that stuck certificates are
pinned too) and ``verify_witness`` on ``gen_witness_rich(d, s)`` for
d = 2..11 and on seeded random-target families, whose verifier reports
include tampered chains. The
digests were recorded before the column kernel learned to transpose wide
subfamilies and before the verifier and builder stopped redoing known work,
so they pin that those changes move no reported byte.

After a deliberate change to the answers, print the new table with
``PYTHONPATH=src python tests/test_atom_answers.py`` and review the diff.
"""

import hashlib
import json
import sys

import pytest

from helpers import random_target_family
from setfam import (
    ChainStep,
    WitnessChain,
    boolean_atoms,
    build_quadratic_witness,
    gen_intervals,
    gen_random,
    gen_witness_rich,
    verify_witness,
)
from setfam.piercing import _candidate_points
from setfam.rng import SplitMix64

# Ascending, descending, even then odd, odd then even, and rotated to start
# at 15, 30 and 45.
FULL_ORDERS = (
    list(range(60)),
    list(range(59, -1, -1)),
    [*range(0, 60, 2), *range(1, 60, 2)],
    [*range(1, 60, 2), *range(0, 60, 2)],
    *([*range(r, 60), *range(r)] for r in (15, 30, 45)),
)
SUBFAMILIES = (
    *FULL_ORDERS,
    *(list(range(size)) for size in (2, 8)),
    *(list(range(j, j + width)) for width in (4, 12) for j in range(0, 49, 4)),
)


def atoms_rows(seed):
    fam = gen_random(60, 4000, 0.3, seed)
    return [
        [f"{sig}:{mask:x}" for sig, mask in boolean_atoms(fam, sub, zero).cells.items()]
        for sub in SUBFAMILIES
        for zero in (True, False)
    ]


def ladder():
    return [
        gen_intervals(100, 500, 9),
        gen_intervals(80, 400, 38),
        *(gen_random(40, 80, 0.1, s) for s in (1, 12, 18)),
        *(gen_random(90, 135, 0.03, s) for s in (0, 5)),
    ]


def as_dict(value):
    """A result record in the form the digests were recorded from: nested
    records become dicts and tuples lists."""
    if hasattr(value, "_asdict"):
        return {key: as_dict(v) for key, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [as_dict(v) for v in value]
    return value


def chain_row(outcome):
    return [type(outcome).__name__, as_dict(outcome)]


def tampered(chain, rng, base_points):
    """The chain with some probes moved and, once it is long enough, a
    signature and a count of its bookkeeping changed."""
    steps = tuple(
        ChainStep(
            s.set_index,
            tuple(base_points[rng.below(len(base_points))] if rng.below(4) == 0 else p for p in s.probes),
        )
        for s in chain.steps
    )
    variants = [chain._replace(steps=steps)]
    if chain.length >= 2:
        history = list(chain.atom_history)
        history[1] = history[1][1:]
        counts = list(chain.target_atom_counts)
        counts[0] += 1
        variants += [
            chain._replace(atom_history=tuple(history)),
            chain._replace(target_atom_counts=tuple(counts)),
        ]
    return variants


def witness_rows(make):
    rows = []
    rng = SplitMix64(77)
    for fam, target, depth in make():
        greedy = build_quadratic_witness(fam, target, depth)
        past = build_quadratic_witness(fam, target, depth + 1)
        # Backtracking past the reachable depth tries every order of the
        # chain sets, so it runs only where that is cheap.
        reach = depth + 1 if depth <= 8 else depth
        exhaustive = build_quadratic_witness(fam, target, reach, exhaustive=True)
        row = [chain_row(greedy), chain_row(past), chain_row(exhaustive)]
        for outcome in (greedy, past, exhaustive):
            chain = outcome if isinstance(outcome, WitnessChain) else outcome.chain
            if chain.length == 0:
                continue
            for variant in [chain, *tampered(chain, rng, fam.base_points())]:
                row.append(as_dict(verify_witness(fam, target, variant)))
        rows.append(row)
    return rows


def rich(seed):
    return lambda: [(*gen_witness_rich(d, seed), d) for d in range(2, 12)]


def random_targets():
    rng = SplitMix64(2024)
    return [(*random_target_family(rng), 3) for _ in range(160)]


CASES = {
    "atoms(60,4000,0.3,0)": lambda: atoms_rows(0),
    "atoms(60,4000,0.3,1)": lambda: atoms_rows(1),
    "candidate_points(pierce ladder)": lambda: [_candidate_points(fam) for fam in ladder()],
    "witness_rich(2..11,0)": lambda: witness_rows(rich(0)),
    "witness_rich(2..11,5)": lambda: witness_rows(rich(5)),
    "random_target_family(2024)": lambda: witness_rows(random_targets),
}

PINNED = {
    "atoms(60,4000,0.3,0)": "ee980600ef628139ce7f2226306d8b96fa9bd01bc26da926391a94c5ac9245a0",
    "atoms(60,4000,0.3,1)": "0f8530dd657424e82d79f6e8cd29e3881b2b9db4153c1ed5b6d3b9090f46a6d9",
    "candidate_points(pierce ladder)": "2849a2da8a23b2f120e7d83edc103122b8101b06c390b1db23c416fa10fd37c4",
    "witness_rich(2..11,0)": "6fc0a299cdd54249f58dcc98139af290ee3fbede97b8392db1a9070b1aad5484",
    "witness_rich(2..11,5)": "cc5d4d0c4583099332153a612f0dd302f0ec49775536d23dea342aa16b87a02d",
    "random_target_family(2024)": "65ae9a96d4153a378a8f06ea2c6dd4f52ae076d6b673c9140c6b8e68b859366c",
}


def digest(name):
    return hashlib.sha256(json.dumps(CASES[name](), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_atom_answers_keep_their_bytes(name):
    assert digest(name) == PINNED[name]


if __name__ == "__main__":
    sys.stdout.write("PINNED = {\n")
    for name in CASES:
        sys.stdout.write(f"    {name!r}: {digest(name)!r},\n")
    sys.stdout.write("}\n")
