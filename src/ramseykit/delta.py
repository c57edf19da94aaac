"""Bit-vector vertices, highest-differing-coordinate sequences, and the
constructive conversion of subsequence witnesses back into vertex witnesses.

A vertex of the doubled universe is an element of {0,1}^m.  Coordinate
``i`` (1-based, ``i`` in 1..m) is the i-th least significant bit of the
vertex value, so the coordinate order ``v < w  iff  v and w differ highest
at coordinate d and v_d < w_d`` coincides with integer order on the values
(tested exhaustively).  Widths are explicit; mixing widths is an error,
not a coercion.  Python integers are arbitrary precision, so widths of
2^7 coordinates and beyond (vertices of twice-doubled universes) need no
special representation.

Vertex-set files carry an ``m=<width>`` header line followed by at least
one decimal vertex value, one per line, none repeated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

from .errors import (
    DEFAULT_BUDGET,
    FileFormatError,
    ParameterError,
    PreconditionError,
    charge,
    ints,
    records,
)
from . import seqpat

__all__ = [
    "BinVertex",
    "DeltaSeq",
    "delta",
    "delta_bits",
    "delta_sequence",
    "delta_sequence_of_ints",
    "check_unique_and_max",
    "delta_classes",
    "realize_max_induced",
    "realize_separated",
    "parse_vertex_file",
]


@total_ordering
@dataclass(frozen=True)
class BinVertex:
    """A vertex of {0,1}^m, stored as an integer in [0, 2^m)."""

    value: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ParameterError("width must be positive")
        # compare bit lengths: 1 << width would build a width-bit integer
        if not (self.value >= 0 and self.value.bit_length() <= self.width):
            raise ParameterError(
                f"value {self.value} out of range for width {self.width}"
            )

    def _check_same_width(self, other: "BinVertex"):
        if self.width != other.width:
            raise ParameterError(
                f"mixed widths {self.width} and {other.width}"
            )

    def __lt__(self, other: "BinVertex") -> bool:
        self._check_same_width(other)
        return self.value < other.value

    def __repr__(self) -> str:
        return f"BinVertex({self.value}, m={self.width})"


def delta_bits(a: int, b: int) -> int:
    """Highest differing coordinate of two same-width vertex values."""
    if a == b:
        raise ParameterError("delta of equal vertices is undefined")
    return (a ^ b).bit_length()


def delta(v: BinVertex, w: BinVertex) -> int:
    """Highest coordinate at which ``v`` and ``w`` differ (in 1..m)."""
    v._check_same_width(w)
    return delta_bits(v.value, w.value)


@dataclass(frozen=True)
class DeltaSeq:
    """Sorted distinct host vertices together with their consecutive deltas."""

    vertices: tuple[BinVertex, ...]
    deltas: tuple[int, ...]

    @property
    def width(self) -> int:
        return self.vertices[0].width

    def __len__(self) -> int:
        return len(self.deltas)


def delta_sequence(vertices) -> DeltaSeq:
    """Consecutive-delta sequence of a strictly increasing vertex list."""
    vs = tuple(vertices)
    if not vs:
        raise ParameterError("at least one vertex is required")
    for a, b in zip(vs, vs[1:]):
        a._check_same_width(b)
        if not a.value < b.value:
            raise ParameterError(
                f"vertices must be strictly increasing, got {a.value} before {b.value}"
            )
    return DeltaSeq(
        vertices=vs,
        deltas=tuple(delta(a, b) for a, b in zip(vs, vs[1:])),
    )


def delta_sequence_of_ints(values, width: int) -> DeltaSeq:
    """Convenience constructor from raw integer vertex values."""
    return delta_sequence(BinVertex(v, width) for v in values)


def check_unique_and_max(ds: DeltaSeq, budget: int = DEFAULT_BUDGET) -> bool:
    """Self-test oracle for the two structural facts about delta sequences.

    Checks that (a) every interval of the delta sequence attains its
    maximum exactly once and (b) for every pair of host vertices the delta
    equals the maximum of the consecutive deltas between them.  For a plain
    sequence, where only (a) is checkable, use
    :func:`seqpat.unique_maximum_property`.  Before checking, the budget
    is charged the C(n, 2) delta evaluations of (b) for n host vertices;
    more than ``budget`` raises BudgetExceededError.
    """
    vs = ds.vertices
    n = len(vs)
    work = math.comb(n, 2)
    charge(work, budget, f"delta self-check needs {work} delta evaluations")
    seq = ds.deltas
    if not seqpat.unique_maximum_property(seq):
        return False
    for i in range(n):
        running = 0
        for j in range(i + 1, n):
            running = max(running, seq[j - 1])
            if delta(vs[i], vs[j]) != running:
                return False
    return True


def delta_classes(length: int, m: int):
    """Every achievable delta sequence of ``length`` consecutive deltas of a
    ``(length + 1)``-subset of ``[0, 2^m)``, with the number of subsets
    that realize it.

    Yields ``(deltas, count)`` pairs; the counts sum to
    ``C(2^m, length + 1)``.  By the two delta facts a sequence has a unique
    maximum ``D``, at some position ``j``, and the subsets realizing it
    agree above coordinate ``D`` (``2^(m-D)`` choices), have coordinate
    ``D`` equal to 0 left of the gap and 1 right of it, and below ``D``
    realize the left and right parts independently in ``[0, 2^(D-1))``:
    ``count = 2^(m-D) * count(left, D-1) * count(right, D-1)``, and the
    empty sequence (a single vertex) counts ``2^m``.
    """
    if length < 0 or m < 0:
        raise ParameterError("length and width must be non-negative")
    return _delta_classes(length, m)


def _delta_classes(length, m):
    if length.bit_length() > m:  # more than 2^m vertices: no subset
        return
    if length == 0:
        yield (), 1 << m
        return
    for top in range(1, m + 1):
        scale = 1 << (m - top)
        for j in range(length):
            for left, n_left in _delta_classes(j, top - 1):
                for right, n_right in _delta_classes(length - 1 - j, top - 1):
                    yield left + (top,) + right, scale * n_left * n_right


def realize_max_induced(ds: DeltaSeq, ix) -> tuple[BinVertex, ...]:
    """Vertices whose consecutive deltas equal the chosen delta subsequence.

    ``ix`` must be a max-induced index set of the delta sequence; the
    returned ``len(ix) + 1`` host vertices ``w_1 < ... < w_{t+1}`` satisfy
    ``delta(w_s, w_{s+1}) = deltas[ix[s]]`` exactly.  The witness is the
    canonical one: start at the first chosen position's left vertex and,
    at each later position, step to the gap's right vertex when the delta
    grows and stay at the chosen position's left vertex otherwise.  Other
    valid witnesses exist; callers must check the delta equalities, not
    vertex identity.
    """
    seq = ds.deltas
    ix = seqpat._as_indices(ix, len(seq))
    if not ix:
        raise ParameterError("index set must be non-empty")
    if not seqpat.is_max_induced(seq, ix):
        raise PreconditionError(f"{ix} is not max-induced in {seq}")
    vs = ds.vertices
    out = [vs[ix[0] - 1]]
    for s in range(1, len(ix)):
        if seq[ix[s - 1] - 1] < seq[ix[s] - 1]:
            out.append(vs[ix[s - 1]])  # right endpoint of the previous gap
        else:
            out.append(vs[ix[s] - 1])
    out.append(vs[ix[-1]])
    return tuple(out)


def realize_separated(ds: DeltaSeq, ix) -> tuple[BinVertex, ...]:
    """Consecutive host pairs realizing a separated delta subsequence.

    For each chosen position ``i`` the pair ``(v_i, v_{i+1})`` is emitted;
    separation makes the 2t vertices strictly increasing, and each pair's
    delta is the chosen value by definition.
    """
    seq = ds.deltas
    ix = seqpat._as_indices(ix, len(seq))
    if not ix:
        raise ParameterError("index set must be non-empty")
    for a, b in zip(ix, ix[1:]):
        if b <= a + 1:
            raise PreconditionError(f"{ix} is not separated: {b} <= {a} + 1")
    vs = ds.vertices
    out = []
    for i in ix:
        out.append(vs[i - 1])
        out.append(vs[i])
    return tuple(out)


def parse_vertex_file(text: str, path=None) -> tuple[BinVertex, ...]:
    """Parse an ``m=`` headed vertex-set file into distinct vertices."""
    rows = records(text)
    if not rows:
        raise FileFormatError("empty vertex file", path=path)
    headerline, head = rows[0]
    head = " ".join(head)
    width = ints(head[2:].split(), "width", path, headerline) if head[:2] == "m=" else ()
    if len(width) != 1:
        raise FileFormatError(
            "expected 'm=<width>' header before vertex values",
            path=path,
            line=headerline,
        )
    out = []
    first_line: dict[int, int] = {}  # vertex value -> the line it is first on
    for lineno, toks in rows[1:]:
        for v in ints(toks, "vertex value", path, lineno):
            if v in first_line:
                raise FileFormatError(
                    f"vertex value {v} repeats the one on line {first_line[v]}",
                    path=path,
                    line=lineno,
                )
            first_line[v] = lineno
            try:
                out.append(BinVertex(v, width[0]))
            except ParameterError as exc:
                raise FileFormatError(str(exc), path=path, line=lineno) from None
    if not out:
        raise FileFormatError(
            "no vertex values after the header", path=path, line=headerline
        )
    return tuple(out)
