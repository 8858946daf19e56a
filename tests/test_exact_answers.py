"""Pinned exact answers: sha256 of what the exact searches report.

``transversal_exact``, ``max_disjoint`` and ``has_pq`` (q = 2, at p = nu + 1
and at p = max(nu, 2), where the capped search stops at nu) are run on the
families of the benchmark's ``pierce`` ladder and on groups of small seeded
families. The digests were recorded before the searches learned to stop at
the packing number and to skip branches that cannot win, so they pin that
those prunings change no reported point, cover, witness or flag.

After a deliberate change to the answers, print the new table with
``PYTHONPATH=src python tests/test_exact_answers.py`` and review the diff.
"""

import hashlib
import json
import sys

import pytest

from helpers import random_family
from setfam import gen_intervals, gen_random, has_pq, max_disjoint, transversal_exact
from setfam.rng import SplitMix64

# name -> (families, whether transversal_exact runs on them)
FAMILIES = {
    "intervals(100,500,9)": (lambda: [gen_intervals(100, 500, 9)], True),
    "intervals(80,400,38)": (lambda: [gen_intervals(80, 400, 38)], True),
    **{
        f"random(40,80,0.1,{s})": ((lambda s=s: [gen_random(40, 80, 0.1, s)]), True)
        for s in (1, 12, 18)
    },
    **{
        f"random(90,135,0.03,{s})": ((lambda s=s: [gen_random(90, 135, 0.03, s)]), False)
        for s in (0, 5)
    },
    "intervals(40,200,0..19)": (lambda: [gen_intervals(40, 200, s) for s in range(20)], True),
    "random(25,50,0.1,0..19)": (lambda: [gen_random(25, 50, 0.1, s) for s in range(20)], True),
    "random(40,60,0.04,0..19)": (lambda: [gen_random(40, 60, 0.04, s) for s in range(20)], False),
    "random_family(0..199)": (
        lambda: [random_family(SplitMix64(s), nonempty=True) for s in range(200)],
        True,
    ),
}

PINNED = {
    "intervals(100,500,9)": "e004d69c4806a8868d1555271604d7607d4b3d76159f4f29a4915fc8a44b7ebf",
    "intervals(80,400,38)": "23d357018b5af4f8665341176abab99359bebb2e0abd01fd87b4db938a7a72ed",
    "random(40,80,0.1,1)": "485159632c9cfcf1f7e9830dcf5564eb89dd5e83c9715a3ba552adecdd16819e",
    "random(40,80,0.1,12)": "297600013c519f8bdb8a765e7387ed96a4ea2ce1145311398b155e55d592b3ba",
    "random(40,80,0.1,18)": "b27f3d81fa08619127857d519fcce82838771ff861fd05adf927a37f37c90722",
    "random(90,135,0.03,0)": "4a22eb2bf05831ea652c6a546d1ddba1dc81f995aec659d289907bba83c2a957",
    "random(90,135,0.03,5)": "2ff8c90ce96d81dc471b0865ef12a9f7c39f8b41c4cb07374ea3706b763a51e1",
    "intervals(40,200,0..19)": "4f6a97b9caca8f0dd94fde323031089a0d0e51ce3e477d281df4042621618f28",
    "random(25,50,0.1,0..19)": "136cc1ba8c03bc68794f9e85d042bba498174462a3c894ab00c35e7cf28057d8",
    "random(40,60,0.04,0..19)": "6bda4d6aa73e258fe42337a40b058f8a6ba69d10f428990a5745c8d0d50f8c32",
    "random_family(0..199)": "ab3c98b111e4f2ccd3a11f0845c602f14e8c98435ba84e510902d1b9093d87da",
}


def answers(fam, pierce):
    nu, witness = max_disjoint(fam)
    out = {
        "max_disjoint": [nu, list(witness)],
        "has_pq_above": has_pq(fam, nu + 1, 2)._asdict(),
        "has_pq_at": has_pq(fam, max(nu, 2), 2)._asdict(),
    }
    if pierce:
        out["transversal_exact"] = transversal_exact(fam)._asdict()
    return out


def digest(name):
    make, pierce = FAMILIES[name]
    rows = [answers(fam, pierce) for fam in make()]
    payload = rows[0] if len(rows) == 1 else rows
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_exact_answers_keep_their_bytes(name):
    assert digest(name) == PINNED[name]


if __name__ == "__main__":
    sys.stdout.write("PINNED = {\n")
    for name in FAMILIES:
        sys.stdout.write(f"    {name!r}: {digest(name)!r},\n")
    sys.stdout.write("}\n")
