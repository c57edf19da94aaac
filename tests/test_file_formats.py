"""Input files: every parser either returns an object or raises
FileFormatError, on arbitrary text and on valid files with one token or one
line dropped, duplicated or replaced.  Replacement tokens are at most five
characters long, so no header declares more than 99,999 colours, vertices
or edges; headers above ``MAX_DECLARED`` are refused at their line."""

import argparse
import contextlib
import io
import tracemalloc

import pytest

from hypothesis import example, given, settings, strategies as st

from ramseykit import cli, delta, hedgehog, stepup
from ramseykit.errors import MAX_DECLARED, FileFormatError


def _pattern_seq_file(text, path):
    """``pattern --seq-file``: exit 0, or exit 2 with one located line."""
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["pattern", "--seq-file", str(path)])
    if code != 0:
        assert code == 2 and err.getvalue().startswith(f"error: {path}:"), err.getvalue()
        raise FileFormatError(err.getvalue())


VALID = {
    "schedule": (stepup.parse_schedule,
                 "base random 3 6 3 42\nup1 3 5  # doubling\n\nup2 4 10\nlift 8 9\n"),
    "tabulated": (stepup.parse_tabulated,
                  stepup.format_tabulated(stepup.random_colouring(2, 4, 3, 1))
                  + "# {b1,b2} and b3*1 are colours too\n"),
    "vertices": (delta.parse_vertex_file, "# widths\nm=5\n3 9\n31  # top\n"),
    "hypergraph": (hedgehog.parse_hypergraph,
                   hedgehog.format_hypergraph(hedgehog.burr_erdos_pair(4)[0])),
    "sequence": (_pattern_seq_file, "5 3 8 1 # first\n9 2 7 4\n\n6 10 3 5\n"),
}

TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["#", "base", "random", "file", "up1", "up2", "lift",
                     "m=3", "m=", "b1", "c2", "b3*1", "{b1,b2}", "b²", "x"]),
    st.text(max_size=5),
)


def _parse(kind, text, tmp_path_factory):
    """Parse ``text`` as ``kind``: True if it parses, False on FileFormatError."""
    parse, _ = VALID[kind]
    try:
        parse(text, tmp_path_factory.getbasetemp() / "in.txt")
    except FileFormatError:
        return False
    return True


def _mutate(text, unit, op, index, new):
    if unit == "line":
        items = text.splitlines()
    else:
        items = [(i, tok) for i, line in enumerate(text.splitlines()) for tok in line.split()]
    at = index % len(items)
    if op == "drop":
        del items[at]
    elif op == "duplicate":
        items.insert(at, items[at])
    else:
        items[at] = new if unit == "line" else (items[at][0], new)
    if unit == "line":
        return "\n".join(items) + "\n"
    lines = [[] for _ in text.splitlines()]
    for i, tok in items:
        lines[i].append(tok)
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def test_valid_samples_parse(tmp_path_factory):
    for kind, (_, text) in VALID.items():
        assert _parse(kind, text, tmp_path_factory), kind


def test_sequence_file_spans_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(VALID["sequence"][1])
    args = argparse.Namespace(seq=None, seq_file=str(path))
    assert cli._sequence_arg(args) == (5, 3, 8, 1, 9, 2, 7, 4, 6, 10, 3, 5)


@settings(max_examples=300, deadline=None)
@example("schedule", "base\n")
@example("schedule", "base random a 5 3 1\n")
@example("tabulated", "0 3 1\n")
@example("tabulated", "2 3 1\n1 2 b²\n")
@example("hypergraph", "3 4 2\n1 2 3\n3 2 1\n")
@example("tabulated", "2 3 1000000000\n")
@example("tabulated", "999999999 1000000000 2\n")
@example("tabulated", "50000 100000 2\n")
@example("hypergraph", "3 1000000000 0\n")
@given(st.sampled_from(sorted(VALID)), st.text())
def test_arbitrary_text_parses_or_fails_located(tmp_path_factory, kind, text):
    _parse(kind, text, tmp_path_factory)


@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from(sorted(VALID)),
    st.sampled_from(["token", "line"]),
    st.sampled_from(["drop", "duplicate", "replace"]),
    st.integers(0, 10**6),
    TOKENS,
)
def test_mutated_file_parses_or_fails_located(tmp_path_factory, kind, unit, op,
                                               index, new):
    _parse(kind, _mutate(VALID[kind][1], unit, op, index, new), tmp_path_factory)


@pytest.mark.parametrize("kind, header, name", [
    ("tabulated", "2 3 1000000000", "q"),
    ("tabulated", "3 1000000000 2", "n"),
    ("tabulated", "999999999 1000000000 2", "k"),
    ("hypergraph", "3 1000000000 0", "nv"),
])
def test_oversized_header_refused_at_its_line(tmp_path, kind, header, name):
    path = tmp_path / "in.txt"
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as exc:
            VALID[kind][0](f"# header\n{header}\n", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(f"{path}:2: header declares {name} = ")
    assert str(exc.value).endswith(f"above the limit {MAX_DECLARED}")
    assert peak < 10**6


def test_edge_count_checked_without_the_full_binomial():
    # C(10^5, 5*10^4) has about 30,000 digits; the check stops past the cap
    with pytest.raises(FileFormatError, match=r":1: table has 0 edges, expected more than"):
        stepup.parse_tabulated("50000 100000 2\n", "in.txt")
    with pytest.raises(FileFormatError, match=r":1: table has 1 edges, expected 6$"):
        stepup.parse_tabulated("2 4 3\n1 2 b1\n", "in.txt")
