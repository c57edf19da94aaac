"""Golden CLI reports: fixed-seed invocations whose JSON output must stay
byte-identical across refactors.  Each digest is the sha256 of the report
that ``main`` writes to stdout with ``--format json``, run in a directory
holding the three schedule files below (relative paths keep the embedded
config stable)."""

import hashlib

import pytest

from ramseykit.cli import main

SCHEDULES = {
    "up1.txt": "base random 3 6 3 42\nup1 3 5\n",
    "up1b.txt": "base random 3 6 3 42\nup1b 3 5\n",
    "up2.txt": "base random 2 6 3 42\nup2 2 2\n",
}

GOLDEN = [
    # failing serial verify: histogram and count up to the least violation
    ("verify --random-base 2 9 2 3 --t 4 --p 2", 1,
     "16440f3f0edd40266faf7eafdd6a970b2ae4aeab74850bcaa6dfa4c58bdc0bb3"),
    ("verify --random-base 3 10 3 7 --t 6 --p 3 --workers 2", 0,
     "10043836664f391be1e61c21df98e96026988e01103a7ff5befd8e7ec8cea4c7"),
    ("verify --schedule up1.txt --t 8 --p 3 --sample 200 --seed 7", 0,
     "2174fdc517352822d7890bc9f180cc6fe22aea797cd96501934a40d5a01effe9"),
    # explain cases: increasing, decreasing, class, permutation tag, sentinel
    ("stepup --schedule up1.txt --edge 1,2,4,8 --explain", 0,
     "34d97b1d82ec254347f6b08d351d54fed078561b1f3f89b04763547e30e0b785"),
    ("stepup --schedule up1.txt --edge 1,5,7,8 --explain", 0,
     "f5ed0889ee0761451a8c69eb938b772d98b010c3431b1c907f8814829849c599"),
    ("stepup --schedule up1b.txt --edge 1,5,6,8 --explain", 0,
     "ff88052440261a32d2b7d4d755daad88355c07e874bec36aef386703cf4a8d04"),
    ("stepup --schedule up2.txt --edge 1,5,6,7 --explain", 0,
     "b466eb11102d66af7eb7052eed27803dedadc7b9c1091e174cc75077261811ca"),
    ("stepup --schedule up2.txt --edge 1,2,3,4 --explain", 0,
     "fd99d96bbbf03a51afb4058c8e1d4878b5c20abd9788379ea38b5d60a1604e91"),
    ("preset --name cor-five-colours --seed 3 --samples 20", 0,
     "9211896a254a054b274275da0552d0f3bfff9c388ca9e4783d47c3f79c6ff9dd"),
    ("preset --name cor-three-three --seed 3 --samples 20", 0,
     "538968e6f200a9ac18dd8095800eef1c50cacd2ba7778e29c8075f29e67b2717"),
    ("hedgehog lift --random-base 2 8 6 1 --k 3 --edge 1,2,3", 0,
     "b139d1bedad20cc86ce082e8c2c966231913bd78786c11f933999e7aff27660a"),
    ("burr-erdos --n 4 --check exhaustive", 0,
     "88bdde5ae0912c57a456ccace4263f5799d20fa3bd01aebfe3a6523909dac388"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(argv, code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in SCHEDULES.items():
        (tmp_path / name).write_text(text)
    got = main(argv.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
