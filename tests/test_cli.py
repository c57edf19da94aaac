"""End-to-end command-line behaviour: exit codes, file formats, replayable
reports, and witness re-validation through the validate subcommand."""

import json
import pathlib
import shlex
import time

import pytest

from ramseykit import cli, hedgehog, rainbow, stepup
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


def test_exact_oracle_searches_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1,035 edges, one search level each: more than Python's default
    # recursion limit of 1,000 frames
    table = tmp_path / "witness.txt"
    code, out, err = run(
        capsys, "exact-oracle", "--k", "2", "--n", "46", "--q", "2", "--t", "45",
        "--p", "2", "--export", str(table),
    )
    assert code == 0 and err == "" and "a rainbow colouring exists" in out
    witness = stepup.parse_tabulated(table.read_text())
    assert witness.num_vertices == 46
    assert rainbow.verify_rainbow(witness, 45, 2).passed


def test_bad_parameters_exit_2(tmp_path, capsys):
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
    sched = tmp_path / "tower.txt"
    sched.write_text("base random 3 6 3 42\nup1 3 5\n")
    wrong_k = tmp_path / "wrong-k.txt"
    wrong_k.write_text("base random 3 6 3 42\nup2 5 2\n")
    big_base = tmp_path / "big-base.txt"
    big_base.write_text("base random 3 2000 2 1\nup1 3 5\n")
    hyp = tmp_path / "h.txt"
    run(capsys, "hedgehog", "build", "--export", str(hyp))
    burr = tmp_path / "burr-erdos-8.txt"
    run(capsys, "burr-erdos", "--n", "8", "--export", str(burr))
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    verify = ["verify", "--random-base", "2", "6", "2", "1", "--t", "3", "--p", "2"]
    cases = [
        # one bad token in each integer-list flag
        (["stepup", "--schedule", str(sched), "--edge", "1,2,x,8"], "--edge"),
        (["extract", "--seq", "3 1 2", "--left", "2 x", "--right", "1 2"], "--left"),
        (["extract", "--seq", "3 1 2", "--left", "2 1", "--right", "1,y"], "--right"),
        (["separated", "--seq", "3 1 2", "--perm", "2 z"], "--perm"),
        (["hedgehog", "piercing", "--hypergraph", str(hyp), "--subset", "1 q"],
         "--subset"),
        # piercing subsets with a vertex outside the hypergraph or named twice
        (["hedgehog", "piercing", "--hypergraph", str(burr), "--subset", "999"],
         "vertex 999 of A is not a vertex"),
        (["hedgehog", "piercing", "--hypergraph", str(burr), "--subset", "0"],
         "vertex 0 of A is not a vertex"),
        (["hedgehog", "piercing", "--hypergraph", str(burr), "--subset", "1 1"],
         "vertex 1 appears more than once"),
        (["pattern", "--seq", "1,2"], "--seq"),
        # empty extraction patterns, whatever the sequence length
        (["extract", "--seq", "1 2 3 4", "--left", "", "--right", ""],
         "pattern must be non-empty"),
        (["extract", "--seq", "1 2 3 4", "--left", "", "--right", "1 2"],
         "pattern must be non-empty"),
        (["extract", "--seq", " ".join(map(str, range(20))), "--left", "2 1",
          "--right", ""], "pattern must be non-empty"),
        # a schedule step whose k is not the current uniformity
        (["stepup", "--schedule", str(wrong_k)], "step 1 (up2)"),
        # flags a hedgehog action needs but the hedgehog parser cannot require
        (["hedgehog", "degeneracy"], "--hypergraph"),
        (["hedgehog", "piercing", "--subset", "1"], "--hypergraph"),
        (["hedgehog", "piercing", "--hypergraph", str(hyp)], "--subset"),
        # sample counts below 1
        (verify + ["--sample", "0"], "trials"),
        (verify + ["--sample", "-5"], "trials"),
        # sampling t-sets from fewer than t vertices
        (["verify", "--random-base", "2", "8", "2", "1", "--t", "10", "--p", "2",
          "--sample", "5"], "t = 10 exceeds n = 8"),
        (["burr-erdos", "--n", "4", "--check", "sampled", "--sample", "-3"], "trials"),
        (["burr-erdos", "--n", "4", "--check", "sampled", "--sample", "0"], "trials"),
        # reports and exports into a missing directory
        (["pattern", "--seq", "1 2", "--output", missing], "no-such-dir"),
        (["burr-erdos", "--n", "4", "--export", missing], "no-such-dir"),
        (["hedgehog", "build", "--export", missing], "no-such-dir"),
        (["search-random", "--k", "2", "--n", "6", "--q", "3", "--t", "4",
          "--p", "3", "--seed", "5", "--export", missing], "no-such-dir"),
        (["exact-oracle", "--k", "2", "--n", "5", "--q", "2", "--t", "3",
          "--p", "2", "--export", missing], "no-such-dir"),
        # empty palettes, no attempts, and a family member above the size limit
        (["exact-oracle", "--k", "2", "--n", "5", "--q", "0", "--t", "3",
          "--p", "2"], "q must be positive"),
        # p below 1 also when n < t leaves no t-set to check
        (["exact-oracle", "--k", "2", "--n", "3", "--q", "2", "--t", "4",
          "--p", "0"], "p must be positive"),
        (["search-random", "--k", "2", "--n", "6", "--q", "0", "--t", "4",
          "--p", "3"], "q must be positive"),
        (["search-random", "--k", "2", "--n", "6", "--q", "3", "--t", "4",
          "--p", "3", "--attempts", "0"], "max_attempts must be positive"),
        (["gen-sk", "--k", "40"], "above the limit"),
        # sizes that would build a table or hypergraph above the limits
        (["verify", "--random-base", "3", "2000", "2", "1", "--t", "3", "--p", "2"],
         "C(2000, 3) edges are above the limit"),
        (["verify", "--schedule", str(big_base), "--t", "3", "--p", "2"],
         "C(2000, 3) edges are above the limit"),
        (["hedgehog", "find-mono", "--random-base", "3", "2000", "2", "1"],
         "C(2000, 3) edges are above the limit"),
        (["search-random", "--k", "3", "--n", "100000", "--q", "2", "--t", "4",
          "--p", "2"], "C(100000, 3) edges are above the limit"),
        (["exact-oracle", "--k", "2", "--n", "2000", "--q", "2", "--t", "3",
          "--p", "2"], "above the limit"),
        (["exact-oracle", "--k", "1", "--n", "2000", "--q", "2", "--t", "3",
          "--p", "2"], "C(2000, 3) t-sets are above the limit"),
        # a palette above the limit, refused before it is listed
        (["verify", "--random-base", "2", "5", "1000000000", "1", "--t", "3",
          "--p", "2"], "q = 1000000000 colours are above the limit"),
        (["search-random", "--k", "2", "--n", "6", "--q", "1000000000", "--t", "4",
          "--p", "3"], "q = 1000000000 colours are above the limit"),
        # also when p is above what any t-set can span
        (["search-random", "--k", "2", "--n", "6", "--q", "1000000000", "--t", "4",
          "--p", "7"], "q = 1000000000 colours are above the limit"),
        (["exact-oracle", "--k", "2", "--n", "5", "--q", "1000000000", "--t", "3",
          "--p", "2"], "q = 1000000000 colours are above the limit"),
        (["burr-erdos", "--n", "2000"], "vertices are above the limit"),
        (["burr-erdos", "--n", "448"], "vertices are above the limit"),
        (["hedgehog", "build", "--t", "40", "--k", "21", "--s", "20"],
         "vertices are above the limit"),
        # preset sample counts below 1
        (["preset", "--name", "cor-five-colours", "--samples", "0"], "--samples"),
        (["preset", "--name", "cor-five-colours", "--samples", "-3"], "--samples"),
        # a body below k + 1 vertices has no (k+1)-subset, so no spine edge
        (["hedgehog", "find-mono", "--random-base", "3", "81", "2", "1", "--t", "1"],
         "t = 1 is below k + 1 = 2"),
        (["hedgehog", "find-mono", "--random-base", "3", "81", "2", "1", "--t", "0"],
         "t = 0 is below k + 1 = 2"),
        (["hedgehog", "find-mono", "--random-base", "3", "81", "2", "1", "--t", "-1"],
         "t = -1 is below k + 1 = 2"),
        # sampled preset stages charge --budget before drawing
        (["preset", "--name", "cor-five-colours", "--samples", "1000000",
          "--budget", "1000"], "budget exceeded: 1000000 sampled witnesses"),
        (["preset", "--name", "hedgehog-lower", "--samples", "1000000000",
          "--budget", "100000"], "budget exceeded: spread check of 1000000000"),
        # random search charges every attempt against one budget
        (["search-random", "--k", "2", "--n", "6", "--q", "2", "--t", "3",
          "--p", "2", "--attempts", "1000000000", "--budget", "100"],
         "budget exceeded: random search needs about 120 edge evaluations"),
        # so does sampled verify: trials times the span cost of one set
        (["verify", "--random-base", "2", "6", "2", "1", "--t", "3", "--p", "1",
          "--sample", "1000000000000", "--budget", "10"],
         "budget exceeded: sampled verification needs about 3000000000000 edge"),
        # exhaustive verify, the exact oracle's nodes, and the k = 2 find-mono
        # up-front estimate of 85680 (its threshold 27 exceeds the 15 other
        # vertices, so it runs no piercing search)
        (["verify", "--random-base", "3", "20", "2", "1", "--t", "8", "--p", "2",
          "--budget", "1000"],
         "budget exceeded: exhaustive verification needs about 7054320 edge "
         "evaluations, budget is 1000; use sampled mode"),
        (["exact-oracle", "--k", "2", "--n", "8", "--q", "3", "--t", "4", "--p",
          "3", "--budget", "1000"],
         "budget exceeded: exact oracle needs at least 1001 search nodes, "
         "budget is 1000"),
        (["hedgehog", "find-mono", "--random-base", "5", "18", "2", "1", "--t",
          "3", "--budget", "85679"],
         "budget exceeded: classifying endangered sets needs about 85680 "
         "edge evaluations, budget is 85679"),
    ]
    for argv, needle in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert needle in err and len(err.strip().splitlines()) == 1, (argv, err)
    # argparse rejects a non-integer --random-base before any handler runs
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--random-base", "2", "6", "2", "x", "--t", "3", "--p", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in err and "Traceback" not in err


def test_internal_error_exit_2(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "cmd_pattern", broken)
    code, out, err = run(capsys, "pattern", "--seq", "1 2")
    assert code == 2 and not out
    assert err == "internal error: RuntimeError: handler broke\n"


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for seq in ("5 9 2", "1 2", "3 1 2"):
        assert run(capsys, "pattern", "--seq", seq)[0] == 0
    assert run(capsys, "gen-sk", "--k", "2")[0] == 0
    assert len(built) == 1


def test_handler_patched_after_the_first_call_runs(monkeypatch, capsys):
    assert run(capsys, "pattern", "--seq", "1 2")[0] == 0
    monkeypatch.setattr(cli, "cmd_pattern", lambda args: ({"command": "patched"}, 0))
    code, out, _ = run(capsys, "pattern", "--seq", "1 2")
    assert code == 0 and "command: patched" in out


def test_no_parse_state_carries_over_between_calls(monkeypatch, tmp_path):
    seen = []

    def recording(args):
        seen.append({k: v for k, v in vars(args).items() if k != "func"})
        return None, 0

    monkeypatch.setattr(cli, "cmd_pattern", recording)
    monkeypatch.setattr(cli, "cmd_verify", recording)
    pattern = ["pattern", "--seq", "1 2"]
    verify = ["verify", "--random-base", "2", "6", "2", "1", "--t", "3", "--p", "2"]
    pairs = [
        (pattern + ["--format", "json"], pattern),
        (["--format", "json"] + pattern, pattern),
        (verify + ["--sample", "5"], verify),
        (pattern + ["--output", str(tmp_path / "out.txt")], pattern),
        (verify + ["--workers", "2"], verify),
        (["--workers", "2"] + verify, verify),
    ]
    for first, second in pairs:
        assert main(first) == 0 and main(second) == 0
        fresh = vars(cli.build_parser().parse_args(second))
        del fresh["func"]
        assert seen[-1] == fresh and seen[-2] != fresh, first


def test_argparse_error_leaves_the_parser_usable(capsys):
    good = ("pattern", "--seq", "5 9 2", "--format", "json")
    want = run(capsys, *good)
    assert want[0] == 0 and not want[2]
    for bad in (["pattern", "--no-such-flag"], ["gen-sk", "--k", "x"], ["gen-sk"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2 and "Traceback" not in capsys.readouterr().err
        assert run(capsys, *good) == want


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
    # a malformed colour token is located too
    table.write_text("2 4 1\n1 2 b1\n1 3 q7\n1 4 b1\n2 3 b1\n2 4 b1\n3 4 b1\n")
    code, _, err = run(capsys, "verify", "--colouring", str(table), "--t", "3", "--p", "2")
    assert code == 2
    assert "c.txt:3:" in err and "q7" in err
    # one located line for each kind of file, comments and blank lines skipped
    sched = ["stepup", "--schedule"]
    verify = ["verify", "--t", "3", "--p", "2", "--colouring"]
    degeneracy = ["hedgehog", "degeneracy", "--hypergraph"]
    cases = [
        (sched, "# no base\nbase\nup1 3 5\n", 2),
        (sched, "base random a 5 3 1\n", 1),
        (sched, "up1 3 5\n\nbase random 3 6 3 42\n", 3),
        (verify, "# k n q\n0 3 1\n", 2),
        (verify, "# k n q\n2 3 1000000000\n", 2),
        (degeneracy, "3 1000000000 0\n", 1),
        (degeneracy, "3 4 2\n1 2 3\n3 2 1  # the same edge\n", 3),
        (degeneracy, "3 4 2\n1 2 2\n1 2 3\n", 2),
        (["pattern", "--seq-file"], "5 3 # first\n\n8 x 9\n", 3),
    ]
    for argv, text, line in cases:
        bad.write_text(text)
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 2 and not out, text
        assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1, err


def test_search_random_says_whether_none_is_certain(capsys):
    # a 4-set spans at most C(4, 3) = 4 edges, so none of 6 colours spans 5
    search = ["search-random", "--format", "json", "--k"]
    code, out, _ = run(capsys, *search, "3", "--n", "100", "--q", "6", "--t", "4",
                       "--p", "5")
    doc = json.loads(out)
    assert code == 1 and doc["found"] is False
    assert doc["note"] == ("no 4-set can span 5 colours, so none exists; "
                           "nothing was drawn")
    # every 2-colouring of K_6 has a monochromatic triangle, so the attempts run out
    code, out, _ = run(capsys, *search, "2", "--n", "6", "--q", "2", "--t", "3",
                       "--p", "2", "--attempts", "3")
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["note"] == "exhausted attempts; this is a report, not a proof"


def test_incomplete_search_exits_2(monkeypatch, capsys):
    # a search that ran out of attempts has verified nothing: exit 2, not 1
    monkeypatch.setattr(cli.rainbow, "search_random_rainbow", lambda *a, **kw: None)
    code, out, err = run(capsys, "preset", "--name", "cor-five-colours")
    assert code == 2 and not out
    assert err == "incomplete (base): random base not found\n"


def test_find_mono_vertex_colouring_exits_2(monkeypatch, capsys):
    # a forged danger map puts vertex 1 in 19 endangered pairs of each
    # colour, above 2k*t^(k+1) = 18 at t = 3
    forged = {(1, v): ("base", 1) for v in range(2, 21)}
    forged.update({(1, v): ("base", 2) for v in range(21, 40)})
    monkeypatch.setattr(hedgehog, "_pair_danger", lambda *args: forged)
    code, out, err = run(
        capsys, "hedgehog", "find-mono", "--random-base", "3", "40", "2", "1",
        "--t", "3",
    )
    assert code == 2 and not out
    assert err.startswith("incomplete (vertex-colouring): vertex 1 ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_extract_witness_validates(tmp_path, capsys):
    wit = tmp_path / "wit.json"
    code, _, _ = run(
        capsys, "extract", "--seq", "4 1 5 2 3 1 5", "--left", "2 1",
        "--right", "1 2", "--format", "json", "--output", str(wit),
    )
    assert code == 0
    code, out, _ = run(capsys, "validate", "--witness", str(wit))
    assert code == 0 and "checks out" in out


def test_long_extract_is_linear_and_validates(tmp_path, capsys):
    # |L| + |R| = 5 takes the same linear path as |L| + |R| = 4
    seq = tmp_path / "down.txt"
    seq.write_text(" ".join(map(str, range(50_000, 0, -1))) + "\n")
    wit = tmp_path / "wit.json"
    start = time.perf_counter()
    code, _, _ = run(
        capsys, "extract", "--seq-file", str(seq), "--left", "2 3 1",
        "--right", "1 2", "--format", "json", "--output", str(wit),
    )
    assert code == 0 and time.perf_counter() - start < 5
    assert json.loads(wit.read_text())["indices"] == [str(i) for i in range(1, 50_001)]
    code, out, _ = run(capsys, "validate", "--witness", str(wit))
    assert code == 0 and "checks out" in out


def readme_usage_lines():
    """The logical lines of the README's command-line usage block."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [line for line in block.splitlines() if line.strip()
            and not line.lstrip().startswith("#")]


def test_readme_usage_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_usage_lines()
    assert sum(line.startswith("ramseykit ") for line in lines) == 14
    for line in lines:
        argv = shlex.split(line, comments=True)
        if argv[0] == "printf":
            fmt, redirect, path = argv[1:]
            assert redirect == ">", line
            (tmp_path / path).write_text(fmt.replace("\\n", "\n"))
            continue
        assert argv[0] == "ramseykit", line
        code, _, err = run(capsys, *argv[1:])
        assert code == (1 if "# exit 1" in line else 0), (line, err)


def test_tampered_witness_fails_validation(tmp_path, capsys):
    wit = tmp_path / "wit.json"
    run(
        capsys, "extract", "--seq", "4 1 5 2 3 1 5", "--left", "2 1",
        "--right", "1 2", "--format", "json", "--output", str(wit),
    )
    doc = json.loads(wit.read_text())
    emb = tmp_path / "emb.json"
    run(
        capsys, "hedgehog", "find-mono", "--random-base", "3", "20", "2", "1",
        "--t", "3", "--format", "json", "--output", str(emb),
    )
    emb = json.loads(emb.read_text())
    # the embedding cut down to a 2-vertex body with its one spine edge
    body = emb["body"][:2]
    spine = [e for e in emb["edges"] if e["subset"] == body]
    forged = [
        {**emb, "body": body, "edges": spine},
        {**doc, "indices": ["1", "3"]},
        # 1 3 2 is max-induced in 1 3 2 but lacks the left property
        {**doc, "sequence": ["1", "3", "2"], "kind": "L", "left": ["1", "3", "2"],
         "indices": ["1", "2", "3"], "values": ["1", "3", "2"]},
        # a one-entry copy of a stored left that is not the --left of the run
        {**doc, "kind": "L", "indices": ["1"], "values": ["4"], "left": ["1"]},
        # a top-level colour that the edges do not have
        {**emb, "colour": "b2" if emb["colour"] == "b1" else "b1"},
        # one edge: no command writes p-colour witnesses, so validate
        # knows no such kind
        {"witness_kind": "p-colour-witness",
         "colouring": {"type": "random", "k": "2", "n": "5", "q": "2", "seed": "1"},
         "vertices": ["1", "2"], "edges": [{"edge": ["1", "2"], "colour": "b1"}]},
    ]
    for bad in forged:
        wit.write_text(json.dumps(bad))
        code, out, err = run(capsys, "validate", "--witness", str(wit))
        assert code == 1 and "valid: False" in out and not err


def test_malformed_witness_exit_2(tmp_path, capsys):
    spec = {"type": "random", "k": "2", "n": "5", "q": "2", "seed": "1"}
    docs = [
        {"witness_kind": "rainbow-violation"},  # missing fields
        {"witness_kind": "rainbow-violation", "colouring": spec,
         "violating_set": 5, "p": "2"},  # ill-typed set
        ["not", "an", "object"],
        # a random colouring spec above the size limit
        {"witness_kind": "rainbow-violation", "colouring": {**spec, "n": "3000"},
         "violating_set": ["1", "2"], "p": "2", "config": {"t": "2"}},
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
    # forged: a 2-vertex set spans one colour too, but t is 3
    doc = json.loads(rep.read_text())
    rep.write_text(json.dumps({**doc, "violating_set": ["1", "2"]}))
    code, out, err = run(capsys, "validate", "--witness", str(rep))
    assert code == 1 and "2 distinct vertices, not t = 3" in out and not err



@pytest.mark.parametrize("forge", [
    # a seventh entry repeating a vertex of the 6-set
    lambda doc: {**doc, "violating_set": doc["violating_set"] + doc["violating_set"][:1]},
    # colours that the set does not re-colour to
    lambda doc: {**doc, "violating_colours": ["b9"]},
    # a run with p = 2, which the stored 2-colour set does not violate
    lambda doc: {**doc, "config": {**doc["config"], "p": "2"}},
], ids=["repeated-vertex", "stored-colours", "configured-p"])
def test_forged_rainbow_violation_fails_validation(forge, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "verify", "--random-base", "3", "10", "2", "5", "--t", "6",
        "--p", "3", "--format", "json", "--output", str(rep),
    )
    assert code == 1
    code, out, _ = run(capsys, "validate", "--witness", str(rep))
    assert code == 0 and "valid: True" in out
    rep.write_text(json.dumps(forge(json.loads(rep.read_text()))))
    code, out, err = run(capsys, "validate", "--witness", str(rep))
    assert code == 1 and "valid: False" in out and not err

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
    # a huge declared width is only a number: the values are checked by
    # their bit lengths, and a value past the width is refused at its line
    for m in (1 << 64, 10**12):
        vf.write_text(f"m={m}\n1\n2\n4\n")
        code, out, err = run(capsys, "delta", "--vertex-file", str(vf))
        assert (code, err) == (0, "") and "deltas: 2 3" in out
    vf.write_text("m=3\n3\n8\n")
    code, _, err = run(capsys, "delta", "--vertex-file", str(vf))
    assert code == 2 and "verts.txt:3: value 8 out of range for width 3" in err
    # a repeated value and a header-only file name the file and the line
    for text, needle in [
        ("m=4\n3\n5\n5\n", "verts.txt:4: vertex value 5 repeats the one on line 3"),
        ("m=4\n", "verts.txt:1: no vertex values after the header"),
    ]:
        vf.write_text(text)
        code, out, err = run(capsys, "delta", "--vertex-file", str(vf))
        assert (code, out) == (2, "") and needle in err
        assert len(err.strip().splitlines()) == 1



def test_delta_self_check_charges_budget(tmp_path, capsys):
    # the self-check compares C(3, 2) = 3 pairs of vertices
    vf = tmp_path / "verts.txt"
    vf.write_text("m=3\n0\n1\n2\n")
    code, out, err = run(capsys, "delta", "--vertex-file", str(vf), "--budget", "1")
    assert (code, out) == (2, "")
    assert err == ("budget exceeded: delta self-check needs 3 delta evaluations, "
                   "budget is 1\n")
    code, out, _ = run(capsys, "delta", "--vertex-file", str(vf), "--budget", "3")
    assert code == 0 and "unique_and_max: True" in out

def test_hedgehog_build_and_degeneracy(tmp_path, capsys):
    hfile = tmp_path / "h.txt"
    code, _, _ = run(
        capsys, "hedgehog", "build", "--t", "3", "--k", "3", "--s", "2",
        "--export", str(hfile),
    )
    assert code == 0
    code, out, _ = run(capsys, "hedgehog", "degeneracy", "--hypergraph", str(hfile))
    assert code == 0 and "degeneracy: 1" in out
    # the largest legal header: 10^5 isolated vertices peel in one pass
    hfile.write_text("3 100000 0\n")
    code, out, _ = run(capsys, "hedgehog", "degeneracy", "--hypergraph", str(hfile))
    assert code == 0 and "degeneracy: 0" in out


def test_find_mono_embedding_validates(tmp_path, capsys):
    emb = tmp_path / "emb.json"
    code, _, _ = run(
        capsys, "hedgehog", "find-mono", "--random-base", "3", "81", "2", "11",
        "--t", "3", "--format", "json", "--output", str(emb),
    )
    assert code == 0
    code, out, _ = run(capsys, "validate", "--witness", str(emb))
    assert code == 0 and "embedding checks out" in out


def test_find_mono_smallest_body_validates(tmp_path, capsys):
    # t = k + 1 = 2: one spine edge through the body pair
    emb = tmp_path / "emb.json"
    code, _, _ = run(
        capsys, "hedgehog", "find-mono", "--random-base", "3", "81", "2", "1",
        "--t", "2", "--format", "json", "--output", str(emb),
    )
    assert code == 0 and len(json.loads(emb.read_text())["edges"]) == 1
    code, out, _ = run(capsys, "validate", "--witness", str(emb))
    assert code == 0 and "embedding checks out" in out


def test_burr_erdos_small_check(capsys):
    code, out, _ = run(capsys, "burr-erdos", "--n", "4", "--check", "exhaustive")
    assert code == 0
    assert "passed: True" in out


def test_separated_subcommand(tmp_path, capsys):
    code, out, _ = run(
        capsys, "separated", "--seq", "3 0 1 0 2", "--perm", "2 1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["witnesses"]["2 1"] == ["1", "3"]
    wit = tmp_path / "sep.json"
    wit.write_text(out)
    code, out, _ = run(capsys, "validate", "--witness", str(wit))
    assert code == 0 and "1 separated realizations check out" in out
    # forged: no realizations at all, and a key that is not a permutation
    # (positions 1 and 3 of 1 5 1 do have the pattern 1 1)
    forged = [
        ({**doc, "witnesses": {}}, "no separated realizations"),
        ({**doc, "sequence": ["1", "5", "1"], "witnesses": {"1 1": ["1", "3"]}},
         "not a permutation"),
    ]
    for bad, needle in forged:
        wit.write_text(json.dumps(bad))
        code, out, err = run(capsys, "validate", "--witness", str(wit))
        assert code == 1 and needle in out and not err
    # not found: exit 1 with a report that holds no witness
    code, out, _ = run(
        capsys, "separated", "--seq", "1 2", "--perm", "1 2", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 1 and doc["found"] is False
    assert "witness_kind" not in doc and "witnesses" not in doc


def test_budget_env_override(capsys, monkeypatch):
    """Only ``--budget`` sets the work budget; the environment does not."""
    verify = ["verify", "--random-base", "2", "6", "2", "1", "--t", "4", "--p", "2"]
    assert run(capsys, *verify)[0] == 0
    code, _, err = run(capsys, *verify, "--budget", "10")
    assert code == 2 and "budget is 10" in err
    monkeypatch.setenv("RAMSEY_BUDGET", "10")
    assert run(capsys, *verify)[0] == 0
    monkeypatch.setenv("RAMSEY_BUDGET", "abc")
    code, out, err = run(capsys, "pattern", "--seq", "1 2")
    assert code == 0 and "pattern: 1 2" in out and not err


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


def test_preset_runs(capsys, monkeypatch):
    # the spread stage reuses the base search's report: one exhaustive
    # verify per attempt and none after
    calls = []
    verify = rainbow.verify_rainbow

    def counting(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(rainbow, "verify_rainbow", counting)
    code, out, _ = run(
        capsys, "preset", "--name", "hedgehog-lower", "--seed", "2024",
        "--samples", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    stages = doc["stages"]
    assert stages[-1]["passed"] is True
    assert len(calls) == int(stages[0]["attempts"])

    calls.clear()
    code, out, _ = run(
        capsys, "preset", "--name", "lemma-k5-13", "--seed", "2024",
        "--samples", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stages"][1]["count"] == "0"
    assert doc["stages"][-1]["passed"] is True
    assert len(calls) == int(doc["stages"][0]["attempts"])

    code, _, err = run(capsys, "preset", "--name", "nope")
    assert code == 2
