"""End-to-end command-line behaviour: exit codes, file formats, replayable
reports, and witness re-validation through the validate subcommand."""

import json

import pytest

from ramseykit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern(capsys):
    code, out, _ = run(capsys, "pattern", "--seq", "5 9 2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pattern"] == ["2", "3", "1"]
    assert doc["schema"] == 1


def test_gen_sk_prints_plain_sequence(capsys):
    code, out, _ = run(capsys, "gen-sk", "--k", "2")
    assert code == 0
    assert out.strip() == "1 3 2 7 4 6 5"


def test_exact_oracle_exit_codes(capsys):
    code, out, _ = run(
        capsys, "exact-oracle", "--k", "2", "--t", "3", "--q", "2", "--p", "2",
        "--n", "6",
    )
    assert code == 1
    assert "no rainbow colouring exists" in out
    code, out, _ = run(
        capsys, "exact-oracle", "--k", "2", "--t", "3", "--q", "2", "--p", "2",
        "--n", "5",
    )
    assert code == 0


def test_bad_parameters_exit_2(capsys):
    code, _, err = run(
        capsys, "verify", "--t", "3", "--p", "2"
    )  # no colouring source
    assert code == 2 and "error" in err
    for workers in ("0", "-1"):
        code, _, err = run(
            capsys, "verify", "--random-base", "2", "5", "2", "1", "--t", "3",
            "--p", "2", "--workers", workers,
        )
        assert code == 2 and "workers" in err


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "seq.txt"
    bad.write_text("1 2 x\n")
    code, _, err = run(capsys, "pattern", "--seq-file", str(bad))
    assert code == 2
    assert "seq.txt" in err and "1" in err
    # right edge count for K_4, but edge 3 9 leaves the universe
    table = tmp_path / "c.txt"
    table.write_text("2 4 1\n1 2 b1\n1 3 b1\n1 4 b1\n2 3 b1\n2 4 b1\n3 9 b1\n")
    code, _, err = run(capsys, "verify", "--colouring", str(table), "--t", "3", "--p", "2")
    assert code == 2
    assert "c.txt:7:" in err


def test_extract_witness_validates(tmp_path, capsys):
    wit = tmp_path / "wit.json"
    code, _, _ = run(
        capsys, "extract", "--seq", "4 1 5 2 3 1 5", "--left", "2 1",
        "--right", "1 2", "--format", "json", "--output", str(wit),
    )
    assert code == 0
    code, out, _ = run(capsys, "validate", "--witness", str(wit))
    assert code == 0 and "checks out" in out


def test_tampered_witness_fails_validation(tmp_path, capsys):
    wit = tmp_path / "wit.json"
    run(
        capsys, "extract", "--seq", "4 1 5 2 3 1 5", "--left", "2 1",
        "--right", "1 2", "--format", "json", "--output", str(wit),
    )
    doc = json.loads(wit.read_text())
    doc["indices"] = ["1", "3"]
    wit.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--witness", str(wit))
    assert code == 1


def test_malformed_witness_exit_2(tmp_path, capsys):
    spec = {"type": "random", "k": "2", "n": "5", "q": "2", "seed": "1"}
    docs = [
        {"witness_kind": "rainbow-violation"},  # missing fields
        {"witness_kind": "rainbow-violation", "colouring": spec,
         "violating_set": 5, "p": "2"},  # ill-typed set
        ["not", "an", "object"],
    ]
    for i, doc in enumerate(docs):
        wit = tmp_path / f"w{i}.json"
        wit.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--witness", str(wit))
        assert code == 2
        assert f"w{i}.json" in err and "malformed witness" in err
        assert len(err.strip().splitlines()) == 1


def test_schedule_verify_and_witness_roundtrip(tmp_path, capsys):
    sched = tmp_path / "tower.txt"
    sched.write_text("base random 3 6 3 42\nup1 3 5\n")
    rep = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "verify", "--schedule", str(sched), "--t", "8", "--p", "3",
        "--sample", "60", "--seed", "7", "--format", "json",
        "--output", str(rep),
    )
    doc = json.loads(rep.read_text())
    assert doc["coverage"] == "sampled"
    assert "disclaimer" in doc
    assert doc["config"]["seed"] == "7"


def test_verify_failure_witness_validates(tmp_path, capsys):
    # a 1-colouring cannot span 2 colours; the violation witness re-checks
    base = tmp_path / "mono.txt"
    lines = ["2 4 1"]
    import itertools

    for e in itertools.combinations(range(1, 5), 2):
        lines.append(f"{e[0]} {e[1]} b1")
    base.write_text("\n".join(lines) + "\n")
    rep = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "verify", "--colouring", str(base), "--t", "3", "--p", "2",
        "--format", "json", "--output", str(rep),
    )
    assert code == 1
    code, out, _ = run(capsys, "validate", "--witness", str(rep))
    assert code == 0 and "violating" in out


def test_reports_replay_bit_identically(tmp_path, capsys):
    args = [
        "search-random", "--k", "2", "--n", "6", "--q", "3", "--t", "4",
        "--p", "3", "--seed", "5", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_stepup_explain(tmp_path, capsys):
    sched = tmp_path / "tower.txt"
    sched.write_text("base random 3 6 3 42\nup1 3 5\n")
    code, out, _ = run(
        capsys, "stepup", "--schedule", str(sched), "--edge", "1 2 4 8",
        "--explain", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["colour"] == "b3*1"
    assert doc["trace"]["case"] == "increasing"


def test_delta_subcommand(tmp_path, capsys):
    vf = tmp_path / "verts.txt"
    vf.write_text("m=3\n0\n1\n2\n4\n")
    code, out, _ = run(capsys, "delta", "--vertex-file", str(vf), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["deltas"] == ["1", "2", "3"]
    assert doc["unique_and_max"] is True


def test_hedgehog_build_and_degeneracy(tmp_path, capsys):
    hfile = tmp_path / "h.txt"
    code, _, _ = run(
        capsys, "hedgehog", "build", "--t", "3", "--k", "3", "--s", "2",
        "--export", str(hfile),
    )
    assert code == 0
    code, out, _ = run(capsys, "hedgehog", "degeneracy", "--hypergraph", str(hfile))
    assert code == 0 and "degeneracy: 1" in out


def test_find_mono_embedding_validates(tmp_path, capsys):
    emb = tmp_path / "emb.json"
    code, _, _ = run(
        capsys, "hedgehog", "find-mono", "--random-base", "3", "81", "2", "11",
        "--t", "3", "--format", "json", "--output", str(emb),
    )
    assert code == 0
    code, out, _ = run(capsys, "validate", "--witness", str(emb))
    assert code == 0 and "embedding checks out" in out


def test_burr_erdos_small_check(capsys):
    code, out, _ = run(capsys, "burr-erdos", "--n", "4", "--check", "exhaustive")
    assert code == 0
    assert "passed: True" in out


def test_separated_subcommand(capsys):
    code, out, _ = run(
        capsys, "separated", "--seq", "3 0 1 0 2", "--perm", "2 1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["witnesses"]["2 1"] == ["1", "3"]
    code, _, _ = run(capsys, "separated", "--seq", "1 2", "--perm", "1 2")
    assert code == 1


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_BUDGET", "10")
    sched = tmp_path / "t.txt"
    sched.write_text("base random 3 6 3 42\nup1 3 5\n")
    code, _, err = run(
        capsys, "verify", "--schedule", str(sched), "--t", "8", "--p", "3"
    )
    assert code == 2 and "budget" in err.lower()


def test_hedgehog_lift_and_piercing(tmp_path, capsys):
    base = tmp_path / "base.txt"
    run(
        capsys, "search-random", "--k", "2", "--n", "8", "--q", "6", "--t", "4",
        "--p", "3", "--seed", "1", "--export", str(base),
    )
    code, out, _ = run(
        capsys, "hedgehog", "lift", "--colouring", str(base), "--k", "3",
        "--edge", "1 2 3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["set_size"] == "3"
    assert doc["colour"].startswith("{")


def test_hedgehog_burr_erdos_alias(capsys):
    code, out, _ = run(capsys, "hedgehog", "burr-erdos", "--n", "4")
    assert code == 0 and "host_parts: 1" in out


def test_exported_colouring_reverifies(tmp_path, capsys):
    base = tmp_path / "base.txt"
    code, _, _ = run(
        capsys, "search-random", "--k", "3", "--n", "10", "--q", "3", "--t", "6",
        "--p", "3", "--seed", "7", "--export", str(base),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "--colouring", str(base), "--t", "6", "--p", "3"
    )
    assert code == 0


def test_preset_runs(capsys):
    code, out, _ = run(
        capsys, "preset", "--name", "hedgehog-lower", "--seed", "2024",
        "--samples", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    stages = doc["stages"]
    assert stages[-1]["passed"] is True

    code, out, _ = run(
        capsys, "preset", "--name", "lemma-k5-13", "--seed", "2024",
        "--samples", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stages"][1]["count"] == "0"
    assert doc["stages"][-1]["passed"] is True

    code, _, err = run(capsys, "preset", "--name", "nope")
    assert code == 2
