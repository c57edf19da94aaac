"""Bit-vector vertices and delta sequences against bit-level oracles."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import delta as dl
from ramseykit import seqpat as sp
from ramseykit.errors import FileFormatError, ParameterError, PreconditionError

B = dl.BinVertex


def oracle_delta(a, b, width):
    """Highest differing coordinate by explicit bit scan."""
    for i in range(width, 0, -1):
        if (a >> (i - 1)) & 1 != (b >> (i - 1)) & 1:
            return i
    raise AssertionError("equal values")


def test_delta_examples():
    assert dl.delta(B(0, 4), B(1, 4)) == 1
    assert dl.delta(B(5, 3), B(6, 3)) == 2
    assert B(5, 3) < B(6, 3)
    assert dl.delta(B(6, 3), B(5, 3)) == 2  # symmetric


def test_delta_errors():
    with pytest.raises(ParameterError):
        dl.delta(B(3, 4), B(3, 4))
    with pytest.raises(ParameterError):
        dl.delta(B(1, 3), B(1, 4))
    with pytest.raises(ParameterError):
        B(8, 3)


@given(st.integers(0, 1023), st.integers(0, 1023))
def test_delta_matches_bit_scan(a, b):
    if a == b:
        return
    assert dl.delta(B(a, 10), B(b, 10)) == oracle_delta(a, b, 10)


def test_ordering_law_exhaustive_up_to_width_10():
    # coordinate order equals integer order: all pairs, every width <= 10
    # (widths below the largest embed by padding with zero bits, but the
    # raw-value helper makes the full check cheap anyway)
    for m in range(1, 11):
        for a in range(1 << m):
            for b in range(a + 1, 1 << m):
                d = dl.delta_bits(a, b)
                assert ((a >> (d - 1)) & 1) < ((b >> (d - 1)) & 1)
    # and through the vertex objects at one width
    for a in range(1 << 6):
        for b in range(1 << 6):
            if a == b:
                continue
            d = dl.delta(B(a, 6), B(b, 6))
            assert (((a >> (d - 1)) & 1) < ((b >> (d - 1)) & 1)) == (a < b)


def test_wide_vertices():
    m = 200  # beyond two machine words
    v = B(1 << 150, m)
    w = B((1 << 150) | 1, m)
    assert dl.delta(v, w) == 1
    assert dl.delta(B(0, m), v) == 151
    # the range check reads bit lengths and never builds 2^width, so huge
    # widths cost nothing; 2^64 bits would not fit any address space
    for m in (1 << 64, 10**12):
        assert dl.delta(B(5, m), B(6, m)) == 2


def test_delta_sequence_examples():
    ds = dl.delta_sequence_of_ints((0, 1, 2, 4), 3)
    assert ds.deltas == (1, 2, 3)
    assert len(dl.delta_sequence_of_ints((9,), 4)) == 0
    full = dl.delta_sequence_of_ints(range(16), 4)
    assert full.deltas.count(4) == 1
    with pytest.raises(ParameterError):
        dl.delta_sequence_of_ints((3, 3), 4)
    with pytest.raises(ParameterError):
        dl.delta_sequence_of_ints((4, 2), 4)


def test_check_unique_and_max():
    assert dl.check_unique_and_max(dl.delta_sequence_of_ints(range(16), 4))
    assert sp.unique_maximum_property((1, 2, 1))
    assert not sp.unique_maximum_property((1, 1))
    rng = random.Random(9)
    for _ in range(2000):
        vals = sorted(rng.sample(range(1 << 10), rng.randint(2, 50)))
        assert dl.check_unique_and_max(dl.delta_sequence_of_ints(vals, 10))


def test_realize_max_induced_examples():
    ds = dl.delta_sequence_of_ints((0, 1, 2, 4), 3)
    out = dl.realize_max_induced(ds, (1, 2, 3))
    assert [v.value for v in out] == [0, 1, 2, 4]
    out = dl.realize_max_induced(ds, (1, 3))
    assert tuple(dl.delta(a, b) for a, b in zip(out, out[1:])) == (1, 3)
    bad = dl.delta_sequence_of_ints((0, 3, 4, 5), 3)  # deltas (2, 3, 1)
    with pytest.raises(PreconditionError):
        dl.realize_max_induced(bad, (1, 3))


def test_realize_separated_examples():
    ds = dl.delta_sequence_of_ints((0, 1, 2, 4), 3)
    out = dl.realize_separated(ds, (1, 3))
    assert [v.value for v in out] == [0, 1, 2, 4]
    assert (dl.delta(out[0], out[1]), dl.delta(out[2], out[3])) == (1, 3)
    out = dl.realize_separated(ds, (2,))
    assert [v.value for v in out] == [1, 2]
    with pytest.raises(PreconditionError):
        dl.realize_separated(ds, (1, 2))


def random_max_induced_indices(rng, deltas):
    ix = [rng.randint(1, len(deltas))]
    for _ in range(rng.randint(0, 5)):
        cands = [
            j
            for j in range(ix[-1] + 1, len(deltas) + 1)
            if max(deltas[ix[-1] - 1 : j]) == max(deltas[ix[-1] - 1], deltas[j - 1])
        ]
        if not cands:
            break
        ix.append(rng.choice(cands))
    return ix


def test_realize_random_trials():
    rng = random.Random(21)
    for _ in range(2000):
        vals = sorted(rng.sample(range(1 << 12), rng.randint(2, 40)))
        ds = dl.delta_sequence_of_ints(vals, 12)
        ix = random_max_induced_indices(rng, ds.deltas)
        out = dl.realize_max_induced(ds, ix)
        got = tuple(dl.delta(a, b) for a, b in zip(out, out[1:]))
        assert got == tuple(ds.deltas[i - 1] for i in ix)
        assert all(a.value < b.value for a, b in zip(out, out[1:]))
        assert {v.value for v in out} <= set(vals)

        six = [rng.randint(1, len(ds))]
        while len(six) < 4 and six[-1] + 2 <= len(ds):
            six.append(rng.randint(six[-1] + 2, len(ds)))
        out = dl.realize_separated(ds, six)
        got = tuple(dl.delta(out[2 * s], out[2 * s + 1]) for s in range(len(six)))
        assert got == tuple(ds.deltas[i - 1] for i in six)
        assert all(a.value < b.value for a, b in zip(out, out[1:]))


def test_exhaustive_small_subsets_have_both_properties():
    # every sorted vertex list of size <= 4 from a width-4 universe
    for size in (2, 3, 4):
        for combo in itertools.combinations(range(16), size):
            ds = dl.delta_sequence_of_ints(combo, 4)
            assert dl.check_unique_and_max(ds), combo


def test_delta_classes_count_every_subset():
    for m in range(1, 6):
        for length in range(0, 6):
            brute = {}
            if length <= 4:
                for combo in itertools.combinations(range(1 << m), length + 1):
                    ds = tuple(map(dl.delta_bits, combo, combo[1:]))
                    brute[ds] = brute.get(ds, 0) + 1
            got = {}
            for ds, n in dl.delta_classes(length, m):
                assert ds not in got and n > 0, (length, m, ds)
                got[ds] = n
            assert sum(got.values()) == math.comb(1 << m, length + 1)
            if length <= 4:
                assert got == brute, (length, m)
    # more deltas than 2^m vertices allow: nothing, without a search
    assert list(dl.delta_classes(64, 6)) == []
    with pytest.raises(ParameterError):
        dl.delta_classes(-1, 3)


def test_vertex_file_roundtrip_and_errors():
    assert dl.parse_vertex_file("m=5\n3\n9\n31\n") == (B(3, 5), B(9, 5), B(31, 5))
    with pytest.raises(FileFormatError):
        dl.parse_vertex_file("0\n1\n")  # missing header
    with pytest.raises(FileFormatError):
        dl.parse_vertex_file("m=3\n9\n")  # out of range
    with pytest.raises(FileFormatError):
        dl.parse_vertex_file("")
    # a repeat is refused where it repeats, naming the earlier line
    cases = [
        ("m=4\n3\n5\n5\n", "v.txt:4: vertex value 5 repeats the one on line 3"),
        ("m=4\n1 2\n2\n", "v.txt:3: vertex value 2 repeats the one on line 2"),
        # a header with no values is refused at the header line
        ("# widths\nm=4\n# none\n", "v.txt:2: no vertex values after the header"),
    ]
    for text, message in cases:
        with pytest.raises(FileFormatError) as exc:
            dl.parse_vertex_file(text, path="v.txt")
        assert str(exc.value) == message
