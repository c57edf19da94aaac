"""Golden CLI reports: fixed-seed invocations whose output must stay
byte-identical across refactors.  Each entry holds the sha256 of the report
that ``main`` writes to stdout with ``--format json`` and with
``--format text``; the JSON encoder sorts keys, so only the text digest
sees the order of a report's fields.  Every run happens in a directory
holding the input files below (one of them the 27-vertex part colouring),
the hypergraph exported by ``burr-erdos --n 12``, the ``gen-sk --k 3``
sequence and one witness file of each kind the CLI writes (relative paths keep the embedded config
stable).  The exact oracle's exported witness tables are pinned by sha256
too, since its report alone does not show the witness."""

import hashlib
import itertools
from pathlib import Path

import pytest

from ramseykit import cli
from ramseykit.cli import main
from ramseykit.hedgehog import RED, BLUE, lift_colouring
from ramseykit.stepup import TabulatedColouring, format_tabulated

# three parts of 9 vertices: blue on the triples that meet exactly two
# parts, red on the rest, so find-mono's body steers round endangered pairs
PARTS27 = format_tabulated(TabulatedColouring(3, 27, {
    e: BLUE if len({(v - 1) // 9 for v in e}) == 2 else RED
    for e in itertools.combinations(range(1, 28), 3)
}, [RED, BLUE]))

INPUTS = {
    "up1.txt": "base random 3 6 3 42\nup1 3 5\n",
    "up1b.txt": "base random 3 6 3 42\nup1b 3 5\n",
    "up2.txt": "base random 2 6 3 42\nup2 2 2\n",
    "seq.txt": "5 3 8 1 9 2 7 4 6 10 3 5\n",
    "up1-16.txt": "base random 3 4 3 11\nup1 3 5\n",
    "up1-256.txt": "base random 3 8 3 5\nup1 3 5\n",
    "up2-16.txt": "base random 2 4 6 1\nup2 2 2\n",
    "up2-16-lift.txt": "base random 2 4 6 1\nup2 2 2\nlift 4 5\n",
    "up2-32.txt": "base random 3 5 3 8\nup2 3 4\n",
    "tower-up1.txt": "base random 2 4 3 9\nup2 2 2\nup1 4 3\n",
    "tower-up2.txt": "base random 2 4 3 9\nup2 2 2\nup2 4 5\n",
    "parts27.txt": PARTS27,
}

# witness files the fixture writes, each with the command that writes it
WITNESSES = {
    "w-seq.json": "extract --seq-file seq.txt --left 1 --right 1,2",
    "w-sep.json": "separated --seq-file seq.txt --perm 2,1",
    "w-rv.json": "verify --random-base 2 9 2 3 --t 4 --p 2",
    "w-emb.json": "hedgehog find-mono --random-base 3 20 2 1 --t 3",
}

# (argv, exit code, sha256 of the JSON report, sha256 of the text report)
GOLDEN = [
    # failing serial verify: histogram and count up to the least violation
    ("verify --random-base 2 9 2 3 --t 4 --p 2", 1,
     "16440f3f0edd40266faf7eafdd6a970b2ae4aeab74850bcaa6dfa4c58bdc0bb3",
     "e8c1ced1f38daa9ab7c3688fe5f5ee436f3d17e2f30ce335748c67496ae3dc6f"),
    ("verify --random-base 3 10 3 7 --t 6 --p 3 --workers 2", 0,
     "10043836664f391be1e61c21df98e96026988e01103a7ff5befd8e7ec8cea4c7",
     "a5ba64ec8057625cb0f769d081a7ef49aa1233612bf7cff377554cd15f8b64db"),
    ("verify --schedule up1.txt --t 8 --p 3 --sample 200 --seed 7", 0,
     "2174fdc517352822d7890bc9f180cc6fe22aea797cd96501934a40d5a01effe9",
     "3f26a2fb68b6146baad18bcfe23e00b54a357ff1e29b7fffe1b4f65215b71812"),
    # stepped verify: exhaustive up1 on 16 vertices passing and failing
    # (partial histogram), sampled up1 on 256 vertices written to a file,
    # exhaustive up2 on 32 vertices, and two-step towers on 2^16 vertices
    ("verify --schedule up1-16.txt --t 8 --p 4", 0,
     "f16885fffc193e160d099cab801aeebc3cbd36f8205f072e082772f7dfae2ac8",
     "6cea64eb7fd09f751dac2860a1bcec86bf2a871622628a257ff3f41b7bc0f7cb"),
    ("verify --schedule up1-16.txt --t 7 --p 4", 1,
     "7c7d89076d8424997a3e825f13b722b65ec9a8c8130fff8b45f5667e0e4ca280",
     "060fb8ae942fb62e3c9655b3d5c3cf49791474d85d0e7e03b8013a5d93e9985d"),
    ("verify --schedule up1-256.txt --t 9 --p 3 --sample 300 --seed 4 "
     "--output v256.out", 0,
     "235c48b1434217ed7f417efb19e0857337b4c15e2f3ec176c70f770c424a9d20",
     "6975acd4cce70509dbb18c6017b0ce5927f22d9e02106c3fc3e0d44ba434f92e"),
    ("verify --schedule up2-32.txt --t 8 --p 3", 1,
     "29c2533b58575997d809e2997113417f0ceadca6cb626be48587757bcf416dea",
     "cbc9dfe8c13d81deab71cccd62af9103eff57c1fc397dd631e99eb753fda0587"),
    ("verify --schedule tower-up1.txt --t 9 --p 1 --sample 300 --seed 2", 0,
     "c0ad8e318f150aac144a68395e94adc4327a3004baa57ad382fb523ef0fc7223",
     "e0b87e6c83bc2b11f0c0c24776e60eef68f0f0592f956154f9f7043cdf9f3691"),
    ("verify --schedule tower-up2.txt --t 11 --p 1 --sample 300 --seed 2", 0,
     "7ce4bd7eb8f068b4bc195d658b4f3e418be6a514c3fd1bd6b1efb18d4a8b57a9",
     "3a4a9700ab7b32f3564dbaab4417751fb30caa7843311e6a7b9c16d96fee1b23"),
    # explain cases: increasing, decreasing, class, permutation tag, sentinel
    ("stepup --schedule up1.txt --edge 1,2,4,8 --explain", 0,
     "34d97b1d82ec254347f6b08d351d54fed078561b1f3f89b04763547e30e0b785",
     "ae57bfc8371f127618ba48e0a280d300b7ed77edc51597bca2b7184914376b6f"),
    ("stepup --schedule up1.txt --edge 1,5,7,8 --explain", 0,
     "f5ed0889ee0761451a8c69eb938b772d98b010c3431b1c907f8814829849c599",
     "838a4e0ee95c62c5438225f078da6209f81faf17246deff54c6baab4e406d5fb"),
    ("stepup --schedule up1b.txt --edge 1,5,6,8 --explain", 0,
     "ff88052440261a32d2b7d4d755daad88355c07e874bec36aef386703cf4a8d04",
     "ea1293c25f354ec7560621b8505dc6f94fffe260045c3bd58a07f71ce3379bdf"),
    ("stepup --schedule up2.txt --edge 1,5,6,7 --explain", 0,
     "b466eb11102d66af7eb7052eed27803dedadc7b9c1091e174cc75077261811ca",
     "9413b1f77e98c386a23b26eea312c8fc9ce17e350bad042cc2a9e16020d11c94"),
    ("stepup --schedule up2.txt --edge 1,2,3,4 --explain", 0,
     "fd99d96bbbf03a51afb4058c8e1d4878b5c20abd9788379ea38b5d60a1604e91",
     "45a4631a15ab99642d5c2048f02dbbe6dc9f16461229f4381e99017b80409ed5"),
    ("preset --name cor-five-colours --seed 3 --samples 20", 0,
     "9211896a254a054b274275da0552d0f3bfff9c388ca9e4783d47c3f79c6ff9dd",
     "45a25aadd3664faccbd4eebc5853d2716257bba14df8ebdabd08241691ba1a61"),
    ("preset --name cor-three-three --seed 3 --samples 20", 0,
     "538968e6f200a9ac18dd8095800eef1c50cacd2ba7778e29c8075f29e67b2717",
     "2e5da1148dfe3d662201bce845699e4afea6eae82803162ce10d88789fd351c9"),
    ("hedgehog lift --random-base 2 8 6 1 --k 3 --edge 1,2,3", 0,
     "b139d1bedad20cc86ce082e8c2c966231913bd78786c11f933999e7aff27660a",
     "6da5ef111f19cb18e8a2d6539f65249b37ae128f524009f1da796124d1d23492"),
    ("burr-erdos --n 4 --check exhaustive", 0,
     "88bdde5ae0912c57a456ccace4263f5799d20fa3bd01aebfe3a6523909dac388",
     "d7afdd750533c85f849de5be81822ee6087e40adbf5d1e78d41527dc7206b37a"),
    ("hedgehog find-mono --random-base 3 81 2 5 --t 3", 0,
     "e7b753938d81505ea36f471a0321c7604760bb64ddd5b9460d4c12a7d4701399",
     "a2005b0b35a2071bac54cb1e01d40fad570aec7b3d5ada658b1474d5f0a22219"),
    ("hedgehog find-mono --colouring parts27.txt --t 3", 0,
     "294df0b5bd71653450197dff610d32bce581d86df09cbe28927a7a79e3cdf6ef",
     "4a42702d53333964455a8d08098cbded715b6e303957b0b016fb80e7b94f5251"),
    ("hedgehog piercing --hypergraph h12.txt --subset 1,13", 0,
     "aa1c46ab3d71539393d3333aebc90eb25c04a24ee1ba9eddb5766f1089f1b40f",
     "d95e3a9693d0d0e4903448d3e81e8b355ed56b46df795bad644a3d699cf10146"),
    ("burr-erdos --n 8 --check sampled --sample 3000 --seed 5", 0,
     "d08cdaa6774078655b1e41e399eb1afe3e42bf8f4e4b325346bd4176584e0754",
     "50712a273759642cd1242a602dd9fe0203ad53fc157a7d513959880daa991f94"),
    ("preset --name hedgehog-lower", 0,
     "728cf214702317be41ba7e26951ca15874cb5b5d081859d7c14c155a08ea9801",
     "1001538e2d06e49fea0ad5d4b2dffe12e628c7ed960d8d182c7a468ced5342de"),
    ("preset --name lemma-k5-13", 0,
     "7f3a0b4386ce207d2798ec582a15ebc08e4fa9b8233b5223caeb37d5235b9649",
     "0555fc5fc199929f7c7d2db3c9e5b853a08f7ac38080899a09707bbe0404c5a8"),
    # extraction: homogeneous, tag L, and the longest homogeneous witness
    # on gen-sk output
    ("extract --seq-file seq.txt --left 2,1 --right 1,2", 0,
     "1ef7fdb1efd4fb17b1cf79c44b75d13fc79370da3650301e0e1cac91a7eb52b8",
     "d674e4b2d4287e45ff0fc05135c55b589786ae9b92c0cb56e6d647dfea7f98b6"),
    ("extract --seq-file seq.txt --left 1 --right 1,2", 0,
     "2c928df24f0be26af930694335ec8527c735b5a6c8eb520a35284f7c84cd5f83",
     "235ee3c237df90c76025040c4a8df41c6e12cb18c40ff2293821d99d23d3c0e4"),
    ("extract --seq-file sk3.txt --left 2,3,1 --right 1,3,2", 0,
     "131ec258364caad47ec78c0694b9669fd1b30b31a0442a5bbfaf340b50c9ee25",
     "f9385e3f218f48d9ec5c1afd522b29d768dbed5915466a001a8b4b76f117eccc"),
    ("separated --seq-file seq.txt --perm 2,1", 0,
     "2fc32cd384e1e512ef2090fe0257646708fecfb7b6b372e4774361ba239af5bb",
     "9bb6cac2f5342034a41ec6cf1c77f2cf942323b1eff54e7d2c73319741237eed"),
    # exact oracle: four lex-least witnesses and one non-existence answer
    ("exact-oracle --k 2 --n 5 --q 2 --t 3 --p 2", 0,
     "398e9c6a89ddb8af34363434369ed9a7b5e6ec8b837eb4e60924433d654720a2",
     "29cec8d51ba6354f7550ea849f50fb484f630b8abb41bbe54386e69e0c9d4b24"),
    ("exact-oracle --k 2 --n 6 --q 2 --t 3 --p 2", 1,
     "85415be9af658952abbe7e0ffa1a10d122378873caa5a4dd052dd9fb9b703b42",
     "092391bd36814ebd727dc354d4c3b0c0e2f1940597fa7e9f17b434132c137d9e"),
    ("exact-oracle --k 2 --n 7 --q 3 --t 4 --p 3", 0,
     "5a49f7c25c2f2203ebd6c816dfccc7bbd90c46f188b54339ba6d39a6e9d38a0a",
     "c302d582330d82c4b11e94fbd676d90a9752efb3da2f6b0232e7f1aa8ce7f404"),
    ("exact-oracle --k 3 --n 6 --q 2 --t 4 --p 2", 0,
     "2b09b33b233a4d489afe639249de1c0977e26f26463a811610e30d2e2e52bf0b",
     "c8b5f49e985996e0bdcb8432e3ce39070a0122570550e6bedfd6d2812bf85d68"),
    ("exact-oracle --k 3 --n 7 --q 2 --t 4 --p 2", 0,
     "dc7ea7c1a2c58abce0c9a65a63b360609ef72b1debee5693e2cee23b155e59f5",
     "9aec64753d847d6c4d8d79a343f3e7430a93a95fae9aad66de7d8fd244c7a406"),
    # validate on one witness of each kind the CLI writes
    ("validate --witness w-seq.json", 0,
     "b5a137097c49e1886236f55b31bea1646db711c894e02cf04126a80929ca58e5",
     "8de46b3d45699815eaeda4cd04ccb4574fe24c0ac808b9dc20eb2fcd9db8515d"),
    ("validate --witness w-sep.json", 0,
     "436ddb5092b7c140da6a9ecb86f21891189471306e94397b3bef7584430f9691",
     "f98ec6c6b2f87dea27d46378c69311848d8485ba8c70ee07f7b4648165be5d1e"),
    ("validate --witness w-rv.json", 0,
     "f2bc6e9ac37a57d9f624dbc981c592f00abecb6051742b3b82712a40b1a13df1",
     "33c8ad6be19d0300717e8d59330f4e62d1e89cbc16eabe72d300859d854116b1"),
    ("validate --witness w-emb.json", 0,
     "601ee53b089231ec17643140e9af91d0307858e677a001e01f924b585ed63ee5",
     "713902ce2c1dda87f9744432c28ba12420f9e2e4a15232722779c003e52225b0"),
]

IDS = [g[0] for g in GOLDEN]

# the colouring that --schedule builds, lifted to uniformity 5: the
# report's colouring spec records the lift as its last step
LIFTED = ("verify --schedule up2-16.txt --t 7 --p 3", 1, {
    "json": "cb1cb418a434c67480022ec653797e78596c7c1d32c224a908bd77d1bffca67c",
    "text": "2262c54f4ba9e2b05a5afbc86909976bd31e0bb8be2ba09c728f8c8b11905874",
})

# sha256 of the witness table that exact-oracle --export writes, per
# instance "k n q t p"
ORACLE_TABLES = {
    "2 5 2 3 2": "78dc1f97b0f655a952cca38cff1cb524610272dd976071c8ec840737c237a90b",
    "2 7 3 4 3": "432a9f7cc078ad95ee203bcc03bbbd000fba0eb77759487ec314b08936ae5d29",
    "3 6 2 4 2": "884f8896718edea2cf42d26006286fbbb8bdbf1bfa8a865056a4a4615076e702",
    "3 7 2 4 2": "d5ce4786488db0df0665742e0d8c6a5d93f6e75f38465d4849d103f738cefbc5",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    assert main(["burr-erdos", "--n", "12", "--export", "h12.txt"]) == 0
    capsys.readouterr()
    assert main(["gen-sk", "--k", "3", "--format", "text"]) == 0
    (tmp_path / "sk3.txt").write_text(capsys.readouterr().out)
    for name, argv in WITNESSES.items():
        main(argv.split() + ["--format", "json", "--output", name])
        assert (tmp_path / name).exists()
    return tmp_path


def _digest(argv, fmt, capsys):
    """Exit code and sha256 of stdout followed by the ``--output`` file."""
    args = argv.split() + ["--format", fmt]
    got = main(args)
    out = capsys.readouterr().out
    if "--output" in args:
        out += Path(args[args.index("--output") + 1]).read_text()
    return got, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest, _text", GOLDEN, ids=IDS)
def test_golden_report(argv, code, digest, _text, workdir, capsys):
    assert _digest(argv, "json", capsys) == (code, digest)


@pytest.mark.parametrize("argv, code, _json, digest", GOLDEN, ids=IDS)
def test_golden_text_report(argv, code, _json, digest, workdir, capsys):
    assert _digest(argv, "text", capsys) == (code, digest)


@pytest.mark.parametrize("argv, code", [g[:2] for g in GOLDEN], ids=IDS)
def test_golden_output_file_matches_stdout(argv, code, workdir, capsys):
    # --output FILE gets the bytes stdout would get, and stdout gets none
    args = argv.split() + ["--format", "json"]
    if "--output" in args:
        i = args.index("--output")
        del args[i:i + 2]
    assert main(args) == code
    out = capsys.readouterr().out
    assert main(args + ["--output", "report.out"]) == code
    assert capsys.readouterr().out == ""
    assert Path("report.out").read_bytes() == out.encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_golden_lifted_verify(fmt, workdir, capsys, monkeypatch):
    argv, code, digests = LIFTED
    load = cli._load_schedule_colouring
    monkeypatch.setattr(
        cli, "_load_schedule_colouring", lambda args: lift_colouring(load(args), 5)
    )
    assert _digest(argv, fmt, capsys) == (code, digests[fmt])


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_golden_lifted_schedule(fmt, workdir, capsys):
    # a schedule file ending in "lift 4 5" gives the same report, apart from
    # the schedule path in its config
    argv, code, digests = LIFTED
    assert main(argv.replace("up2-16", "up2-16-lift").split() + ["--format", fmt]) == code
    out = capsys.readouterr().out.replace("up2-16-lift.txt", "up2-16.txt")
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


@pytest.mark.parametrize("instance, digest", ORACLE_TABLES.items(), ids=list(ORACLE_TABLES))
def test_golden_oracle_table(instance, digest, tmp_path, capsys):
    flags = [f"--{name}={value}" for name, value in zip("knqtp", instance.split())]
    table = tmp_path / "witness.txt"
    assert main(["exact-oracle", *flags, "--export", str(table)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(table.read_bytes()).hexdigest() == digest
