"""Golden bytes: pinned sha256 digests of every subcommand's output.

Each case runs ``setfam`` in a scratch directory with relative paths, so the
paths echoed into stdout and reports are the same on every machine. The
digest of stdout and of the ``--out`` file (a report with ``wall_time_s``
zeroed, or a generated family file) must match the recorded values exactly.
Cases run in order; ``verify`` cases read the reports earlier cases wrote,
some of them tampered with so that a check fails.

After a deliberate change to the output, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import hashlib
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from setfam.cli import main

STAR = {
    "universe": 4,
    "sets": [{"name": "A", "points": [0, 1]}, {"name": "B", "points": [0, 2]},
             {"name": "C", "points": [0, 3]}],
}
ONE = {"universe": 10, "extension": [8, 9], "sets": [{"name": "S1", "points": [0, 8]}]}


def _edit(src, dst, change):
    def run():
        report = json.loads(Path(src).read_text())
        change(report["results"])
        Path(dst).write_text(json.dumps(report, indent=2, sort_keys=True))
    return run


def _swap_probes(results):
    steps = results["witness"]["chain"]["steps"]
    steps[1]["probes"][0], steps[2]["probes"][0] = steps[2]["probes"][0], steps[1]["probes"][0]


def _set(kind, key, value):
    return lambda results: results[kind].__setitem__(key, value)


def _truncate_chain(results):
    chain = results["witness"]["chain"]
    for key in chain:
        del chain[key][2:]


def _split_atom(results):
    atoms = results["atoms"]
    atoms["atoms"].append({"signature": atoms["atoms"][0]["signature"], "points": []})
    atoms["atom_count"] += 1


def _rename_kind(results):
    results["frobnicate"] = results.pop("pq")


# (name, argv, optional step run before the command)
CASES = [
    ("atoms", ["atoms", "--in", "star.fam", "--out", "atoms.json"]),
    ("atoms-threads", ["--threads", "2", "atoms", "--in", "star.fam", "--out", "atoms2.json"]),
    ("atoms-sets", ["atoms", "--in", "two.fam", "--sets", "1,0", "--drop-zero-cell",
                    "--out", "atoms-sets.json"]),
    ("shatter", ["shatter", "--in", "star.fam", "--n", "2", "--out", "shatter.json"]),
    ("shatter-profile", ["--threads", "3", "shatter", "--in", "star.fam", "--n", "3", "--profile",
                         "--out", "profile.json"]),
    ("shatter-greedy", ["shatter", "--in", "disjoint3.fam", "--n", "2", "--mode", "greedy",
                        "--out", "shatter-greedy.json"]),
    ("pq", ["pq", "--in", "star.fam", "--p", "3", "--q", "2", "--out", "pq.json"]),
    ("pq-violation", ["pq", "--in", "disjoint3.fam", "--p", "3", "--q", "2", "--strict",
                      "--out", "pq-violation.json"]),
    ("pq-q3", ["pq", "--in", "disjoint3.fam", "--p", "3", "--q", "3", "--out", "pq-q3.json"]),
    ("pq-q3-holds", ["pq", "--in", "star.fam", "--p", "3", "--q", "3", "--out", "pq-q3-holds.json"]),
    ("pierce", ["pierce", "--in", "star.fam", "--out", "pierce.json"]),
    ("pierce-greedy", ["--threads", "2", "pierce", "--in", "star.fam", "--mode", "greedy",
                       "--out", "pierce-greedy.json"]),
    ("pierce-disjoint3", ["pierce", "--in", "disjoint3.fam", "--out", "pierce3.json"]),
    ("disjoint", ["disjoint", "--in", "star.fam", "--out", "disjoint.json"]),
    ("disjoint-sequence", ["disjoint", "--in", "star.fam", "--sequence", "--avoid", "0",
                           "--out", "sequence.json"]),
    ("disjoint-sequence3", ["disjoint", "--in", "disjoint3.fam", "--sequence", "--avoid", "0",
                            "--out", "sequence3.json"]),
    ("disjoint-cap", ["disjoint", "--in", "disjoint3.fam", "--cap", "2", "--out", "cap.json"]),
    ("witness", ["--threads", "2", "witness", "--in", "rich.fam", "--B-from-file", "--n", "3",
                 "--out", "witness.json"]),
    ("witness-stuck", ["witness", "--in", "one.fam", "--target", "8,9", "--n", "2",
                       "--out", "stuck.json"]),
    ("witness-stuck-empty", ["witness", "--in", "one.fam", "--target", "9", "--n", "1",
                             "--out", "stuck0.json"]),
    ("witness-exhaustive", ["witness", "--in", "rich.fam", "--B-from-file", "--n", "3",
                            "--exhaustive", "--out", "exhaustive.json"]),
    ("generate-intervals", ["generate", "--kind", "intervals", "--count", "4", "--universe", "10",
                            "--seed", "9", "--out", "gen.fam"]),
    ("generate-halfplane", ["generate", "--kind", "halfplane_grid", "--count", "4",
                            "--grid-side", "24", "--seed", "3"]),
    ("generate-halfplane-out", ["generate", "--kind", "halfplane_grid", "--count", "6",
                                "--grid-side", "32", "--seed", "1", "--out", "grid.fam"]),
    ("generate-random", ["generate", "--kind", "random", "--count", "5", "--universe", "10",
                         "--density", "0.3", "--seed", "11"]),
    ("generate-witness-rich", ["generate", "--kind", "witness_rich", "--depth", "2", "--seed", "4"]),
    ("verify-chain", ["verify", "--report", "witness.json", "--out", "verify.json"]),
] + [
    (f"verify-{stem}", ["verify", "--report", f"{stem}.json"])
    for stem in ("atoms", "atoms-sets", "shatter", "profile", "shatter-greedy", "pq",
                 "pq-violation", "pq-q3", "pq-q3-holds", "pierce", "pierce-greedy", "pierce3",
                 "disjoint", "sequence", "sequence3", "cap", "stuck", "stuck0", "exhaustive")
] + [
    ("verify-bad-pq", ["verify", "--report", "bad-pq.json"],
     _edit("pq.json", "bad-pq.json", _set("pq", "violation", [0, 1, 2]))),
    ("verify-bad-pq-q3", ["verify", "--report", "bad-pq-q3.json", "--out", "verify-bad.json"],
     _edit("pq-q3-holds.json", "bad-pq-q3.json", _set("pq", "violation", [0, 1, 2]))),
    ("verify-bad-disjoint-witness", ["verify", "--report", "bad-dw.json"],
     _edit("pq.json", "bad-dw.json", _set("pq", "disjoint_witness", [0, 1]))),
    ("verify-bad-pierce", ["verify", "--report", "bad-pierce.json"],
     _edit("pierce3.json", "bad-pierce.json", _set("pierce", "assignment", [0, 0, 2]))),
    ("verify-bad-pierce-points", ["verify", "--report", "bad-pierce2.json"],
     _edit("pierce3.json", "bad-pierce2.json", _set("pierce", "piercing_points", [1, 0, 2]))),
    ("verify-bad-shatter", ["verify", "--report", "bad-shatter.json"],
     _edit("shatter.json", "bad-shatter.json", _set("shatter", "value", 5))),
    ("verify-bad-shatter-n", ["verify", "--report", "bad-shatter-n.json"],
     _edit("shatter.json", "bad-shatter-n.json", _set("shatter", "n", 3))),
    ("verify-bad-profile-n", ["verify", "--report", "bad-profile-n.json"],
     _edit("profile.json", "bad-profile-n.json",
           lambda r: r["shatter"]["profile"][1].__setitem__("n", 3))),
    ("verify-bad-atoms", ["verify", "--report", "bad-atoms.json"],
     _edit("atoms.json", "bad-atoms.json",
           lambda r: r["atoms"]["atoms"][0].__setitem__("signature", "111"))),
    ("verify-bad-atoms-cover", ["verify", "--report", "bad-cover.json"],
     _edit("atoms.json", "bad-cover.json", lambda r: r["atoms"]["atoms"].pop())),
    ("verify-bad-atom-count", ["verify", "--report", "bad-atom-count.json"],
     _edit("atoms.json", "bad-atom-count.json", _set("atoms", "atom_count", 11))),
    ("verify-bad-atoms-split", ["verify", "--report", "bad-split.json"],
     _edit("atoms.json", "bad-split.json", _split_atom)),
    ("verify-bad-pierce-bound", ["verify", "--report", "bad-pierce-bound.json"],
     _edit("pierce3.json", "bad-pierce-bound.json", _set("pierce", "lower_bound", 4))),
    ("verify-bad-pierce-tau", ["verify", "--report", "bad-pierce-tau.json"],
     _edit("pierce3.json", "bad-pierce-tau.json", lambda r: r["pierce"].update(tau=5, lower_bound=5))),
    ("verify-bad-sequence", ["verify", "--report", "bad-sequence.json"],
     _edit("sequence3.json", "bad-sequence.json", _set("disjoint", "avoid", [1]))),
    ("verify-bad-chain", ["verify", "--report", "bad-chain.json"],
     _edit("witness.json", "bad-chain.json", _swap_probes)),
    ("verify-bad-chain-length", ["verify", "--report", "bad-chain-length.json"],
     _edit("witness.json", "bad-chain-length.json", _truncate_chain)),
    ("verify-bad-verdict", ["verify", "--report", "bad-verdict.json"],
     _edit("witness.json", "bad-verdict.json",
           lambda r: r["witness"]["verification"].__setitem__("ok", False))),
    ("verify-unknown-kind", ["verify", "--report", "unknown.json"],
     _edit("pq.json", "unknown.json", _rename_kind)),
]

GOLDEN = {
    'atoms': [0, 'fde648315211eb5eb43e28c2d67f87accbeebfffde848596038f7e7d9ee1c168', '57a579390c6cff8bfa2f86c54c3784a00f4eb00652a9f51775a6a0a28eb1596c'],
    'atoms-threads': [0, 'ce20f17b41f5849af9993f991c2c6500708dedcf66110437be3fccbf01209f64', '2734518ce20b9cb8e017353abceae0a888cb716c28fb9097014d711c46b46d4b'],
    'atoms-sets': [0, '42c51a1337f1eb40a73f4c2d17a5b8906a068c981377abbb11f97686734e20ba', '75057a8352ab6c9d3d9a62ba36886629d0db1a067f835f9debbf55a6a42c9f51'],
    'shatter': [0, '8303d88feb8defd441baa1b4eeab9e22327295c8a33b2cfc0e14972b556498d3', '13d9e6ccac457fc0eee691ee194ad1cf2c996b8b76e56c7e951ad0ad221324e3'],
    'shatter-profile': [0, '90d355002dac5d43efe233b17aa23af2ba58d92d750fe87c4c6065f2c8ae5d8d', '2f290d296e3f6f9a62fd64a89c622ea89b821500a7bd252251c4766dced44424'],
    'shatter-greedy': [0, 'b7255e7215ed73bb22a5e660c29747ff8ce61780a5cf06bb7a571c2f83577364', 'a93ae4b70e9576465a5cd7043eea043f6c5cb0dd84150ff9688b750ac72ee79b'],
    'pq': [0, 'c4e0d64e42bcb4b9bfe0e0e08a728cc2c65eb51760cca01653b7f1e6d12c717e', 'ab08e4e3b924461793805c25970b1d009692da9caf05152fe461c401adbaa4d5'],
    'pq-violation': [1, '0ba0ac0d875c47f8627c8764dc2e9861862d652ca315f584ae422c48e13919e3', 'a156c4a512d4722bcb4ca1fe3e84ef4587aaf2b855c75bdbb7a132dbc210f239'],
    'pq-q3': [0, 'dbfd2aa414cc3c3e281479e272d06a0d1e53ac173b9a287577b4a289f8c322f0', '133a2e2ad179ba43a8d71c3ffe99cb90dc8558dcc8b744a473e7ebca61ed3316'],
    'pq-q3-holds': [0, 'a65ad5cc60489fb521163c8564c0b042ea5061b235dbc2ab4de344a20e0d641e', '66e6acdf069b8b2d9857220c5d20f45332915e7bd6a43ae9141d1a51ae9938c3'],
    'pierce': [0, '6f021448adbb3f4e4e7d939627a0f0e6c84a46f3a0066aa4e00beb3a05fb66fb', '73c5bd09f7f730e6fa053e3d0a8f5cd9dd048f21cc9a168fc5f540c45f280920'],
    'pierce-greedy': [0, '3aa03e47b4b9f5b249fce758bcef122289dd0f5a4c4fd33b9d83113762dad80f', 'db44d61103e8d43e16ff0c616f50851f197dab3cac1d03700857f15e354d27dc'],
    'pierce-disjoint3': [0, 'b6606b3f664ebb45e7d743872f4f4b62a1a0a49b3dac60a9cb18805e04c5701a', 'b462f8079395c5001a38e20295d2651a08afeaf75cbc71bba5e07cdd14e44e16'],
    'disjoint': [0, '8f0936576b585e76ec6f2fcd1ebdbb42b33154edbfc9bb0c3ab768110c893af5', 'f6ce1a357ad190365231efc7271b54fd8fb66c3c056b2243fcdd81210fca4fdd'],
    'disjoint-sequence': [0, '2df33ddb88941f673c3e340e863a86fef5791dc4aa494ed1d75d9eea5f91e034', '599b94b9535466bbf6b5183358a59518636f911a89a80796364100411aaf1ea6'],
    'disjoint-sequence3': [0, 'fcf5edf585f2117507d33b7f8a601cdfd20c602be27842a922d53bfd692ec54d', 'e19ec086a6f9c7ef3d4cd7761df8d140a332378e7089e25c61eb10e90ccb77a2'],
    'disjoint-cap': [0, 'ac494b8b4e4dfdad3e5e8c86a39fef308e703cd4c016ed339d85b32ecd96da89', 'fc3068eca5c8a04dcf3c443f84dbece53f27a872a8c875d3e01c962ab095fa6c'],
    'witness': [0, 'dd7f8d5e466adca6ce0c17d22e280de2cd21e8c0b16bc68c8d94c0088c4851c1', '7ae5aa2a68d9cd575efac2e9dbd62d1fe912230e57a3b10e9371325e7a48b11f'],
    'witness-stuck': [0, 'a352996d7f522a800d2eb230a243cb257925c692027cc783acf6cbd84b044420', '5b237a18d766aaab52b523082d68eb23660ca149a8a64106d5dff2e2bc880ed1'],
    'witness-stuck-empty': [0, 'ae4708650f1b45060276477ba6ec0565cdb31e37990bc2492cbf65f3cbb2d00b', '39bdfdc8576e7a05084832319f72b6c108a43f358b08f0adf0da629b9a4371ac'],
    'witness-exhaustive': [0, '818d2d82b3ea2fa04d803653f8cc1675f8e7fb2b45b6b452f763318b0e6c15ff', '457083ed6ecb84aad8f2b448bdca9a3dce0d0eddd2dc1d63436c5cac7b2a5b8b'],
    'generate-intervals': [0, '43df019e5792befe8dedc26c01db9557fd7c84c77d90cf492cd64e0a8e3358a5', '0a5d6b21af2aede880dbd38d744c9714fe91fa4fd5ddaa0438d3384446e872a0'],
    'generate-halfplane': [0, '8274ab1eb89eb74755767c515c68966c1881694819a40cd11c9b7ee736089560', None],
    'generate-halfplane-out': [0, '1c8a77f905d17ae35b9ac44a91cf6c7f12b912b845a754cd3dfe33c8ab0da1ef', '9259daffebc09ba31ee855b530f6fa328aa8213d886c9c1fbc055efd7cd243bb'],
    'generate-random': [0, '4c751fc22c852491aca487fd70d2076e8e9169fa580326c4dd9e621779a881ec', None],
    'generate-witness-rich': [0, '9403b0ffae5a1a9ecaa5897427d5bbb36d057f59e8da00916ff0787ac4ee9a42', None],
    'verify-chain': [0, 'e6ad447bf4de94a5ce3d44f9364996f221f62a85bd684d98fa4581837e2a5216', '83dbe2c7ece3974b3d5cce174cb3861da379e9d9a200c186648ec1c5d158c27e'],
    'verify-atoms': [0, '19445493df7366cf6a64c903ecbdedf7efff4d48464dd4adf082735b282c382d', None],
    'verify-atoms-sets': [0, '19445493df7366cf6a64c903ecbdedf7efff4d48464dd4adf082735b282c382d', None],
    'verify-shatter': [0, '82c5fc2e47a64b007a39c59787c6cdcefed27276972da9354e3ea1229c8f3ea5', None],
    'verify-profile': [0, '82c5fc2e47a64b007a39c59787c6cdcefed27276972da9354e3ea1229c8f3ea5', None],
    'verify-shatter-greedy': [0, '82c5fc2e47a64b007a39c59787c6cdcefed27276972da9354e3ea1229c8f3ea5', None],
    'verify-pq': [0, '8c5cfbe7aa7694f07f8ccd18b341ae55136dd3053541dba7296bce7671a76de3', None],
    'verify-pq-violation': [0, '01633af9ba7b347d8a30f7e02ed9603dda403be67f95d08e8fd06680c85eddea', None],
    'verify-pq-q3': [0, 'b7da77eeeabcc1bff270ee9664273ea94bbbb1be9782f4bd1c450114c575c295', None],
    'verify-pq-q3-holds': [0, 'f96d983c293a28ed4fbabc5d22eb3ceb98ed98afebd20cb9f7dfa7725a6f7677', None],
    'verify-pierce': [0, 'cf89cefdf34ad6c6e188f249bcdbece4e2a2a32b490c7b411660a25543701ca7', None],
    'verify-pierce-greedy': [0, 'cf89cefdf34ad6c6e188f249bcdbece4e2a2a32b490c7b411660a25543701ca7', None],
    'verify-pierce3': [0, 'cf89cefdf34ad6c6e188f249bcdbece4e2a2a32b490c7b411660a25543701ca7', None],
    'verify-disjoint': [0, 'a503cca93206e48c965be2a5337ee406ea278dbcf9f0fb7ec24be6b8aea74883', None],
    'verify-sequence': [0, 'a503cca93206e48c965be2a5337ee406ea278dbcf9f0fb7ec24be6b8aea74883', None],
    'verify-sequence3': [0, 'a503cca93206e48c965be2a5337ee406ea278dbcf9f0fb7ec24be6b8aea74883', None],
    'verify-cap': [0, 'a503cca93206e48c965be2a5337ee406ea278dbcf9f0fb7ec24be6b8aea74883', None],
    'verify-stuck': [0, '88b9b811c1db22291bf5ee7723d2e96484ee74fd07223752ee94735ab255965e', None],
    'verify-stuck0': [0, 'ef49c5bb0c90a58d11d980f5a57c9488cef5f83877b0ba4442bdfb1f28ae4d69', None],
    'verify-exhaustive': [0, '4ab10cb65e190d0ed9f275b9058b771fe8835657f8695f006fbcf48c4da7f816', None],
    'verify-bad-pq': [1, '04dff06d563d3a179254e143cef655b9d47a93be4b2c25f03eb9fae2d43f5475', None],
    'verify-bad-pq-q3': [1, '62612f5087662dcde089cf4e0a5e5fc17d6a2d5bc22d587c8d59457b843e2fb7', '10986e6a7ab2b95649015055251436e0e956fefb25ac7aa36f103ba29bda54d3'],
    'verify-bad-disjoint-witness': [1, 'd80869f8acfe74d3600d4b88b1141bc4c09706d7a8372f1a5224b57adb636a99', None],
    'verify-bad-pierce': [1, 'cf38262d95d57ae2ad6efe282e55436448d05f675c72c18a51d6bb755c5d97b1', None],
    'verify-bad-pierce-points': [1, '56f16fa484ad7397f1e93fdb810776685d21a24c9b85d78ae0e7efeb4e70d6d4', None],
    'verify-bad-shatter': [1, 'd391495f97fe31f7c2fa0375b12ce51b1328bf90e03dd6f0b1ed30979b5d5a58', None],
    'verify-bad-shatter-n': [1, 'daf89ae177371e13f07f9204320575463def206fdbac334a91c96f4648252193', None],
    'verify-bad-profile-n': [1, 'daf89ae177371e13f07f9204320575463def206fdbac334a91c96f4648252193', None],
    'verify-bad-atoms': [1, '964275a732a28db359920724e46e4992e8977b8cc81cf2638a7836c2e86c4960', None],
    'verify-bad-atoms-cover': [1, '6a948b49398c5f7d02b7098db14c5a4a469cdfb9d061f439df1ed34b4cd837ec', None],
    'verify-bad-atom-count': [1, '658770b7fbc1fa4f7bdef8dde6439ce06d223abee52d0d901f0acdcf2c84839c', None],
    'verify-bad-atoms-split': [1, '534f553589f8718dcc75048c578c2b339db9206b4c0d2316835f6bfa37619028', None],
    'verify-bad-pierce-bound': [1, '5e42a91b89bb8a94bdf9b8906eaf625c1d41b84fe54bc65023ad9e8f536e2a3f', None],
    'verify-bad-pierce-tau': [1, '7bc822ee818dae90df2c3c94d67aeca7abe696f6902c0135ab91d22e0b99a713', None],
    'verify-bad-sequence': [1, '53d265f7379f9a731f5c2797e0563e2f8575ed217416e8a97dc540c0338bd927', None],
    'verify-bad-chain': [1, '15db5fa70f0859a081fa22692d347b73fa03dd90af3954de99bd31036d54f00f', None],
    'verify-bad-chain-length': [1, 'eb930fa54678a58d433494cf1d155ed3045813dedc39170057c0917616140ece', None],
    'verify-bad-verdict': [1, '2838f145b701753af96fd8f0a369b6b46d0344ef73123710375439fac4e8317e', None],
    'verify-unknown-kind': [1, '48cae2dc822f752c6f14f30626363f235077e6ae9b65c0f13494350b10d02a99', None],
}


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _out_file(argv):
    if "--out" not in argv:
        return None
    data = Path(argv[argv.index("--out") + 1]).read_bytes()
    return _digest(re.sub(rb'"wall_time_s": [-+.0-9e]+', b'"wall_time_s": 0', data))


def run_cases(workdir):
    """Run every case in ``workdir``; return {name: [exit code, stdout sha, out-file sha]}."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        Path("star.fam").write_text(json.dumps(STAR))
        Path("one.fam").write_text(json.dumps(ONE))
        Path("two.fam").write_text("2 4\n1100\n0110\n")
        Path("disjoint3.fam").write_text("3 3\n100\n010\n001\n")
        with redirect_stdout(StringIO()):
            assert main(["generate", "--kind", "witness_rich", "--depth", "3", "--seed", "5",
                         "--out", "rich.fam"]) == 0
        table = {}
        for name, argv, *prepare in CASES:
            for step in prepare:
                step()
            out = StringIO()
            with redirect_stdout(out):
                code = main(list(argv))
            table[name] = [code, _digest(out.getvalue().encode()), _out_file(argv)]
        return table
    finally:
        os.chdir(cwd)


def test_golden_bytes(tmp_path):
    table = run_cases(tmp_path)
    changed = sorted(name for name in table if table[name] != GOLDEN.get(name))
    assert not changed, f"output bytes changed for {changed}"
    assert set(table) == set(GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        rows = run_cases(scratch)
    sys.stdout.write("GOLDEN = {\n")
    for name, row in rows.items():
        sys.stdout.write(f"    {name!r}: {row!r},\n")
    sys.stdout.write("}\n")
