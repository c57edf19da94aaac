"""Lazily evaluable edge colourings, the two doubling constructions and
the set-valued lift.

Vertex universes are always ``1..n`` (1-based).  A doubled universe has
``2^n`` vertices; vertex ``v`` of it corresponds to the bit vector of
``v - 1``, so the coordinate order of the delta machinery coincides with
integer order on vertex labels and the deltas of an edge are themselves
vertices of the base universe.

Colour identifiers are structured tuples (never packed integers) so that
towers of constructions keep full provenance:

* ``("base", i)``    -- colour i of a ground colouring,
* ``("class", i)``   -- the colour assigned to pattern class i,
* ``("prod", c, t)`` -- base colour ``c`` crossed with an integer tag,
* ``("set", (...))`` -- a set of base colours (used by lifted colourings).

The shapes are disjoint and tuples compare lexicographically, which gives
the canonical total order used for palettes and reports.

Schedule files hold one step per line (``up1 k p``, ``up1b k p``,
``up2 k p``, ``lift s k``), optionally preceded by a ``base ...`` line
describing the ground colouring (``base random <k> <n> <q> <seed>`` or
``base file <path>``).  Tabulated colourings export as a ``k n q`` header
followed by one ``v1 ... vk colour`` line per edge; lazy colourings export
their base description plus schedule instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import weakref
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import MAX_BUILT, MAX_DECLARED, FileFormatError, ParameterError
from .errors import check_declared, ints, records
from . import delta, seqpat

__all__ = [
    "colour_str",
    "parse_colour",
    "Colouring",
    "TabulatedColouring",
    "random_colouring",
    "PatternClassPartition",
    "partition_patterns",
    "SteppedPlusOne",
    "SteppedDouble",
    "step_up_1",
    "step_up_1b",
    "step_up_2",
    "tower_compose",
    "parse_schedule",
    "format_tabulated",
    "parse_tabulated",
    "WitnessReport",
    "witness_p_colours",
    "sweep_reachable_colours",
]


# ---------------------------------------------------------------------------
# Colour identifiers
# ---------------------------------------------------------------------------

def colour_str(c) -> str:
    """Compact text form: b3, c2, b3*1, {b1,b2}."""
    kind = c[0]
    if kind == "base":
        return f"b{c[1]}"
    if kind == "class":
        return f"c{c[1]}"
    if kind == "prod":
        inner = colour_str(c[1])
        if c[1][0] == "prod":
            inner = f"({inner})"
        return f"{inner}*{c[2]}"
    if kind == "set":
        return "{" + ",".join(colour_str(x) for x in c[1]) + "}"
    raise ParameterError(f"unknown colour shape {c!r}")


def parse_colour(text: str):
    """Inverse of :func:`colour_str`."""
    s = text.strip()
    pos = 0

    def err(msg):
        raise FileFormatError(f"bad colour {text!r}: {msg}")

    def parse_atom():
        nonlocal pos
        if pos >= len(s):
            err("unexpected end")
        ch = s[pos]
        if ch == "(":
            pos += 1
            inner = parse_expr()
            if pos >= len(s) or s[pos] != ")":
                err("missing ')'")
            pos += 1
            return inner
        if ch == "{":
            pos += 1
            items = []
            while True:
                items.append(parse_expr())
                if pos < len(s) and s[pos] == ",":
                    pos += 1
                    continue
                break
            if pos >= len(s) or s[pos] != "}":
                err("missing '}'")
            pos += 1
            return ("set", tuple(items))
        if ch in "bc":
            pos += 1
            start = pos
            while pos < len(s) and s[pos].isdecimal():
                pos += 1
            if start == pos:
                err("missing index")
            idx = int(s[start:pos])
            return ("base", idx) if ch == "b" else ("class", idx)
        err(f"unexpected {ch!r}")

    def parse_expr():
        nonlocal pos
        node = parse_atom()
        while pos < len(s) and s[pos] == "*":
            pos += 1
            start = pos
            while pos < len(s) and s[pos].isdecimal():
                pos += 1
            if start == pos:
                err("missing tag")
            node = ("prod", node, int(s[start:pos]))
        return node

    node = parse_expr()
    if pos != len(s):
        err(f"trailing {s[pos:]!r}")
    return node


# ---------------------------------------------------------------------------
# Colourings
# ---------------------------------------------------------------------------

class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` and keeps it.
    ``fill`` is a bound method whose colouring is held weakly, so that no
    reference cycle keeps a dropped colouring and its memos alive."""

    __slots__ = ("owner", "func")

    def __init__(self, fill):
        self.owner = weakref.ref(fill.__self__)
        self.func = fill.__func__

    def __missing__(self, key):
        value = self[key] = self.func(self.owner(), key)
        return value


class Colouring:
    """Total deterministic map from k-subsets of 1..n to colour ids."""

    kind = "abstract"
    # the ``(name, k, p)`` schedule step that derived this colouring
    step = None

    def __init__(self, uniformity: int, num_vertices: int):
        if uniformity < 1:
            raise ParameterError("uniformity must be positive")
        if num_vertices < uniformity:
            raise ParameterError("universe smaller than the uniformity")
        self.uniformity = uniformity
        self.num_vertices = num_vertices
        # the colours span() reads, each computed once: keyed by edge here,
        # by what the edge colour depends on in a stepped colouring
        self._colour_memo = _Memo(self._colour)

    def check_edge(self, edge) -> tuple[int, ...]:
        e = tuple(sorted(edge))
        if len(e) != self.uniformity or len(set(e)) != len(e):
            raise ParameterError(
                f"edge {tuple(edge)} is not a {self.uniformity}-subset"
            )
        if e[0] < 1 or e[-1] > self.num_vertices:
            raise ParameterError(
                f"edge {e} outside universe 1..{self.num_vertices}"
            )
        return e

    def colour(self, edge):
        return self._colour(self.check_edge(edge))

    def _colour(self, e):
        raise NotImplementedError

    def _edges(self):
        """Every edge, in lexicographic order."""
        return itertools.combinations(range(1, self.num_vertices + 1), self.uniformity)

    def edge_colours(self):
        """The colour of every edge, edges in lexicographic order."""
        return map(self._colour, self._edges())

    def span(self, ts):
        """Colours of the edges inside ``ts``, a sorted tuple of distinct
        vertices of the universe (not re-checked).  Each edge is coloured
        once per colouring, on first read; later reads are dict lookups."""
        edges = itertools.combinations(ts, self.uniformity)
        return set(map(self._colour_memo.__getitem__, edges))

    def span_cost(self, t: int) -> tuple[int, str]:
        """Work that :meth:`span` does for one t-set, and its unit."""
        return math.comb(t, self.uniformity), "edge evaluations"

    def classes(self, t: int):
        """``(least member, count)`` per class of t-sets that span the same
        colours by construction, the counts summing to C(n, t); ``None``
        when the colouring has no such classes."""
        return None

    def palette_codes(self):
        """``(colours, codes)``: the edge of lexicographic rank r has colour
        ``colours[codes[r]]``; ``None`` above MAX_BUILT edges.  The codes
        come from one :meth:`edge_colours` pass, kept on the instance, and
        ``colours`` lists the colours used in order of first use."""
        if _comb_upto(self.num_vertices, self.uniformity, MAX_BUILT) > MAX_BUILT:
            return None
        return self._palette_codes

    @functools.cached_property
    def _palette_codes(self):
        index = {}
        codes = [index.setdefault(c, len(index)) for c in self.edge_colours()]
        return tuple(index), _pack(codes, len(index))

    def palette(self) -> tuple:
        """Declared colour space, canonically ordered; reachable colours
        are always a subset."""
        return self._sorted_palette

    @functools.cached_property
    def _sorted_palette(self) -> tuple:
        return tuple(sorted(self._palette()))

    def _palette(self):
        raise NotImplementedError

    @property
    def budget(self) -> int:
        return len(self.palette())

    def explain(self, edge) -> dict:
        e = self.check_edge(edge)
        return {"kind": self.kind, "edge": e, "colour": colour_str(self._colour(e))}


def _comb_upto(n: int, k: int, cap: int) -> int:
    """``C(n, k)`` for ``0 <= k <= n`` when it is at most ``cap``, else
    ``cap + 1``.  The running product ``C(n - r + i, i)`` grows with ``i``,
    so it stops before forming a number much above ``cap``."""
    r = min(k, n - k)
    c = 1
    for i in range(1, r + 1):
        c = c * (n - r + i) // i
        if c > cap:
            return cap + 1
    return c


def _pack(codes, size: int):
    """Palette indices below ``size`` as ``bytes`` up to 256 colours, else
    an ``array('I')``."""
    return bytes(codes) if size <= 256 else array("I", codes)


def _check_built(what: str, n: int, k: int) -> None:
    """Refuse a table of the C(n, k) ``what`` when it would hold more than
    MAX_BUILT of them, before any of it is built."""
    if _comb_upto(n, k, MAX_BUILT) > MAX_BUILT:
        raise ParameterError(f"C({n}, {k}) {what} are above the limit {MAX_BUILT}")


class TabulatedColouring(Colouring):
    """Colouring stored as palette indices, one per edge in lexicographic
    order: edge e has colour ``colours[codes[rank(e)]]``.

    A colouring built from a mapping ``table`` of edges to colours checks
    that it colours every k-subset from the palette, keeps its codes and
    drops the mapping.  :meth:`span` reads edges by rank, remembering only
    the edges it has read.  A colouring drawn from a ``seed`` is of kind
    ``random-seeded``, any other of kind ``tabulated``.
    """

    def __init__(self, uniformity, num_vertices, table, colours, seed=None,
                 codes=None):
        super().__init__(uniformity, num_vertices)
        self._colours = tuple(colours)
        self.seed = seed
        if codes is None:
            codes = self._codes_of(table)
        self.codes = codes

    def _codes_of(self, table):
        cap = max(len(table), MAX_DECLARED)
        expected = _comb_upto(self.num_vertices, self.uniformity, cap)
        if len(table) != expected:
            raise ParameterError(
                f"table has {len(table)} edges, expected "
                + (f"{expected}" if expected <= cap else f"more than {cap}")
            )
        index = {c: i for i, c in enumerate(self._colours)}
        codes = []
        for e in self._edges():
            if e not in table:
                raise ParameterError(f"table has no colour for edge {e}")
            i = index.get(table[e])
            if i is None:
                raise ParameterError(
                    f"edge {e} has colour {table[e]!r}, which is not in the palette"
                )
            codes.append(i)
        return _pack(codes, len(index))

    @property
    def kind(self):
        return "tabulated" if self.seed is None else "random-seeded"

    @functools.cached_property
    def _ranks(self):
        return _rank_tables(self.uniformity, self.num_vertices)

    def _colour(self, e):
        return self._colours[self.codes[sum(map(list.__getitem__, self._ranks, e))]]

    def edge_colours(self):
        return map(self._colours.__getitem__, self.codes)

    def palette_codes(self):
        return self._colours, self.codes

    def _palette(self):
        return self._colours


def _lex_rank(c, n: int) -> int:
    """0-based rank of the sorted set ``c`` among the |c|-subsets of 1..n
    in lexicographic order: C(n, k) - 1 minus the sets that come after it,
    which agree with ``c`` before position i and exceed it at i."""
    k = len(c)
    return math.comb(n, k) - 1 - sum(math.comb(n - v, k - i) for i, v in enumerate(c))


@functools.lru_cache(maxsize=64)
def _rank_tables(k: int, n: int) -> tuple[list[int], ...]:
    """Per-position terms of :func:`_lex_rank` for the k-subsets of 1..n:
    a sorted edge e has rank ``sum(tables[i][e[i]] for i in range(k))``."""
    tables = [[-math.comb(n - v, k - i) for v in range(n + 1)] for i in range(k)]
    last = math.comb(n, k) - 1
    tables[0] = [last + x for x in tables[0]]
    return tuple(tables)


def _check_palette(q: int) -> None:
    """Refuse a palette of q colours before it is listed."""
    if q < 1:
        raise ParameterError("q must be positive")
    if q > MAX_BUILT:
        raise ParameterError(f"q = {q} colours are above the limit {MAX_BUILT}")


@functools.lru_cache(maxsize=None)
def _byte_draw(q: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments turning the top bytes of 32-bit words
    into ``getrandbits(q.bit_length())`` draws below q, for q < 256: a
    table mapping each byte to its top q.bit_length() bits, and the bytes
    whose draw is q or more."""
    shift = 8 - q.bit_length()
    keep = bytes(b >> shift for b in range(256))
    drop = bytes(b for b in range(256) if b >> shift >= q)
    return keep, drop


def random_colouring(k: int, n: int, q: int, seed: int) -> TabulatedColouring:
    """Uniformly random q-colouring of the k-subsets of 1..n, seed-reproducible.

    Edge e, in lexicographic order, gets ``("base", 1 + rng.randrange(q))``
    from ``rng = random.Random(seed)``.  The draw is the rejection loop
    behind ``randrange(q)``: ``getrandbits(q.bit_length())`` until the value
    is below q.  Each such draw is the top bits of one 32-bit word of the
    generator, so for q < 256 the words are drawn in bulk and one
    ``bytes.translate`` shifts their top bytes and drops the rejected ones.
    """
    _check_palette(q)
    _check_built("edges", n, k)
    m = math.comb(n, k)
    getrandbits = random.Random(seed).getrandbits
    bits = q.bit_length()
    if q < 256:
        keep, drop = _byte_draw(q)
        codes = b""
        while len(codes) < m:
            words = ((m - len(codes)) << bits) // q + 32
            top = getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            codes += top.translate(keep, drop)
        codes = codes[:m]
    else:
        codes = array("I")
        for _ in range(m):
            r = getrandbits(bits)
            while r >= q:
                r = getrandbits(bits)
            codes.append(r)
    colours = [("base", i) for i in range(1, q + 1)]
    return TabulatedColouring(k, n, None, colours, seed=seed, codes=codes)


def _sample_set(rng, n, t):
    """t distinct vertices of 1..n, sorted: the draw of every seeded
    sampler.  Up to 2^30 vertices it is
    ``tuple(sorted(rng.sample(range(1, n + 1), t)))``; beyond, where
    random.sample(range(...)) would overflow, repeated randrange draws."""
    if n <= 1 << 30:
        return tuple(sorted(rng.sample(range(1, n + 1), t)))
    got: set[int] = set()
    while len(got) < t:
        got.add(1 + rng.randrange(n))
    return tuple(sorted(got))


# ---------------------------------------------------------------------------
# Pattern class partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternClassPartition:
    """All length-k patterns split into p classes for the +1 construction.

    Classes 1..p-2 each contain a designated permutation with the left
    interval property and one with the right property; class p-1 is the
    singleton of the increasing permutation and class p of the decreasing
    one.  ``class_index`` maps every length-k pattern to its 1-based class.
    """

    k: int
    p: int
    classes: tuple[frozenset, ...]
    left_reps: tuple[tuple, ...]
    right_reps: tuple[tuple, ...]
    class_index: dict = field(compare=False, hash=False)


def partition_patterns(k: int, p: int) -> PatternClassPartition:
    """Deterministic partition feasible exactly when 3 <= p <= Catalan(k).

    Working classes are seeded with the non-monotone permutations having
    both interval properties (there are 2^(k-1) - 2 of them); further
    classes pair a left-only with a right-only permutation.  Remaining
    patterns, ties included, are appended round-robin.
    """
    if p < 3:
        raise ParameterError("p must be at least 3")
    if k < 2:
        raise ParameterError("k must be at least 2")
    rights = seqpat.enumerate_right_property_perms(k)
    catalan = len(rights)
    if p > catalan:
        raise ParameterError(
            f"p = {p} exceeds the Catalan bound C_{k} = {catalan}"
        )
    lefts = set(seqpat.enumerate_left_property_perms(k))
    rights = set(rights)
    increasing = tuple(range(1, k + 1))
    decreasing = tuple(range(k, 0, -1))
    monotone = {increasing, decreasing}

    both = sorted((lefts & rights) - monotone)
    left_only = sorted(lefts - rights)
    right_only = sorted(rights - lefts)

    w = p - 2
    classes: list[set] = []
    left_reps: list[tuple] = []
    right_reps: list[tuple] = []
    for i in range(w):
        if i < len(both):
            seed = both[i]
            classes.append({seed})
            left_reps.append(seed)
            right_reps.append(seed)
        else:
            j = i - len(both)
            # feasibility is guaranteed by p <= Catalan(k)
            lp, rp = left_only[j], right_only[j]
            classes.append({lp, rp})
            left_reps.append(lp)
            right_reps.append(rp)

    used = set().union(*classes) | monotone
    leftover = [q for q in seqpat.all_patterns(k) if q not in used]
    for idx, q in enumerate(sorted(leftover)):
        classes[idx % w].add(q)

    all_classes = [frozenset(c) for c in classes]
    all_classes.append(frozenset({increasing}))
    all_classes.append(frozenset({decreasing}))

    index = {}
    for i, cls in enumerate(all_classes, start=1):
        for q in cls:
            index[q] = i

    return PatternClassPartition(
        k=k,
        p=p,
        classes=tuple(all_classes),
        left_reps=tuple(left_reps),
        right_reps=tuple(right_reps),
        class_index=index,
    )


# ---------------------------------------------------------------------------
# The doubling constructions
# ---------------------------------------------------------------------------

def _edge_deltas(vertices) -> tuple[int, ...]:
    """Consecutive deltas of sorted distinct vertices (vertex v is the bit
    vector of v - 1).  The formula of :func:`delta.delta_bits` is inlined:
    this runs for every edge and every verified set."""
    values = [v - 1 for v in vertices]
    return tuple([(a ^ b).bit_length() for a, b in zip(values, values[1:])])


def _least_with_deltas(ds) -> tuple[int, ...]:
    """The lexicographically least sorted vertices whose consecutive deltas
    are ``ds``, a sequence with a unique maximum on every interval (the
    inverse of :func:`_edge_deltas` on least members).  The first vertex
    is the bit vector 0, and each next one is its predecessor with
    coordinate d set and every coordinate below d cleared.  Coordinate d
    of the predecessor is 0: only a step of delta d sets it, and the unique
    maximum forbids a second one before a larger delta clears it."""
    x = 0
    out = [1]
    for d in ds:
        x = x >> d << d | 1 << (d - 1)
        out.append(x + 1)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _edge_delta_getters(t, k):
    """One getter per k-subset of the positions 0..t-1 of a t-set: given
    the flat table ``top[i*t + j]`` of the deltas between positions i < j,
    it returns the delta sequence of the edge at those positions."""
    getters = []
    for pos in itertools.combinations(range(t), k):
        idx = [a * t + b for a, b in zip(pos, pos[1:])]
        if len(idx) == 1:  # itemgetter of one index returns no tuple
            getters.append(lambda top, i=idx[0]: (top[i],))
        else:
            getters.append(itemgetter(*idx))
    return tuple(getters)


class _Stepped(Colouring):
    """A colouring of the edges of a doubled universe by their delta
    sequences alone, through ``colour_of_deltas``.

    The delta between positions i < j of a vertex set is the largest of
    the set's own consecutive deltas between them, so the colours spanned
    by the set are a function of its delta sequence: :meth:`span` computes
    them once per distinct sequence, from a table of those range maxima.
    """

    def __init__(self, uniformity, num_vertices):
        super().__init__(uniformity, num_vertices)
        self._colour_memo = _Memo(self._dispatch_colour)
        self._span_memo = _Memo(self._span_of_deltas)

    def _dispatch_colour(self, key):
        return self._dispatch(key)[1]

    def _colour(self, e):
        return self.colour_of_deltas(_edge_deltas(e))

    def span(self, ts):
        return self._span_memo[_edge_deltas(ts)]

    def _span_of_deltas(self, ds):
        t = len(ds) + 1
        top = [0] * (t * t)
        for i in range(t - 1):
            m = 0
            for j in range(i + 1, t):
                if ds[j - 1] > m:
                    m = ds[j - 1]
                top[i * t + j] = m
        keys = {g(top) for g in _edge_delta_getters(t, self.uniformity)}
        return frozenset(map(self.colour_of_deltas, keys))

    def span_cost(self, t: int) -> tuple[int, str]:
        return 1, "set lookups"

    def classes(self, t: int):
        """One class per delta sequence of :func:`delta.delta_classes`, its
        least member from :func:`_least_with_deltas`."""
        for ds, count in delta.delta_classes(t - 1, self.base.num_vertices):
            yield _least_with_deltas(ds), count

    def palette_codes(self):
        # a span is one lookup per delta sequence: the per-set scan is cheaper
        return None


class SteppedPlusOne(_Stepped):
    """Colouring of the (k+1)-subsets of 1..2^n built from one of K_n^(k).

    Edges whose delta sequence is strictly monotone inherit the base colour
    of their delta set (crossed with a direction tag in the product
    variant); all other edges are coloured by the class of their delta
    pattern.  In the aliased variant the class colours are identified with
    the first p-2 base colours, keeping the budget at q.
    """

    def __init__(self, base: Colouring, partition: PatternClassPartition, aliased: bool):
        if partition.k != base.uniformity:
            raise ParameterError(
                f"partition built for k={partition.k}, base uniformity is "
                f"{base.uniformity}"
            )
        if aliased and base.budget < partition.p - 2:
            raise ParameterError(
                f"aliasing needs at least p-2 = {partition.p - 2} base "
                f"colours, base has {base.budget}"
            )
        super().__init__(base.uniformity + 1, 1 << base.num_vertices)
        self.base = base
        self.partition = partition
        self.aliased = aliased
        self.kind = "stepped-up-1b" if aliased else "stepped-up-1"
        self.step = ("up1b" if aliased else "up1", partition.k, partition.p)
        # the construction forces its colour count on vertex sets of size
        # t**(16**k + 1); witness reports name the count as their target
        self.forced_colours = partition.p - 2 if aliased else partition.p

    def colour_of_deltas(self, ds: tuple[int, ...]):
        return self._colour_memo[ds]

    def _dispatch(self, ds):
        """``(case, colour)`` of a delta sequence: increasing, decreasing,
        or the pattern class of the sequence."""
        if all(a < b for a, b in zip(ds, ds[1:])):
            c = self.base.colour(ds)
            return "increasing", c if self.aliased else ("prod", c, 1)
        if all(a > b for a, b in zip(ds, ds[1:])):
            c = self.base.colour(tuple(reversed(ds)))
            return "decreasing", c if self.aliased else ("prod", c, 2)
        i = self.partition.class_index[seqpat.pattern_of(ds)]
        return f"class {i}", (
            self.base.palette()[i - 1] if self.aliased else ("class", i)
        )

    def _palette(self):
        if self.aliased:
            return self.base.palette()
        out = [("class", i) for i in range(1, self.partition.p - 1)]
        for c in self.base.palette():
            out.append(("prod", c, 1))
            out.append(("prod", c, 2))
        return out

    def explain(self, edge) -> dict:
        e = self.check_edge(edge)
        ds = _edge_deltas(e)
        case, colour = self._dispatch(ds)
        info = {
            "kind": self.kind,
            "edge": e,
            "deltas": ds,
            "case": case,
            "colour": colour_str(colour),
        }
        if case in ("increasing", "decreasing"):
            info["base"] = self.base.explain(sorted(ds))
        return info

    def _targets(self):
        """``(label, patterns)`` per forced colour: each pattern class (its
        left and right representatives first), then the two monotone
        directions unless they alias a class."""
        part = self.partition
        targets = []
        for i in range(1, part.p - 1):
            ordered = [part.left_reps[i - 1], part.right_reps[i - 1]]
            ordered += sorted(q for q in part.classes[i - 1] if q not in ordered)
            targets.append((f"class {i}", ordered))
        if not self.aliased:
            targets.append(("increasing", [tuple(range(1, part.k + 1))]))
            targets.append(("decreasing", [tuple(range(part.k, 0, -1))]))
        return targets

    def _realize(self, ds, pattern):
        ix = seqpat.contains_max_induced(ds.deltas, pattern)
        return None if ix is None else delta.realize_max_induced(ds, ix)

    def _fallback(self, label, host):
        length, wit = seqpat.longest_homogeneous_max_induced(host)
        return {"reason": "homogeneous", "missing": label, "delta_indices": wit,
                "delta_values": tuple(host[i - 1] for i in wit),
                "host_deltas": host, "length": length}

    def _fallback_holds(self, b, host) -> bool:
        patterns = dict(self._targets()).get(b.get("missing"), ())
        ix = b.get("delta_indices", ())
        return (
            b.get("reason") == "homogeneous"
            and bool(patterns)
            and tuple(b.get("host_deltas", ())) == host
            and b.get("length") == len(ix)
            and seqpat.check_sequence_witness(host, "homogeneous", ix, (), ()) is None
            and tuple(b.get("delta_values", ())) == seqpat.subsequence(host, ix)
            and all(seqpat.contains_max_induced(host, q) is None for q in patterns)
        )


class SteppedDouble(_Stepped):
    """Colouring of the 2k-subsets of 1..2^n built from one of K_n^(k).

    Only the odd-position deltas of an edge matter: when they are distinct
    and form one of the first p permutations (lexicographic one-line
    order), the edge gets the base colour of the delta set crossed with
    the permutation's index; every other edge gets the fixed sentinel
    (first base colour, tag 1), which keeps the budget at p*q.
    """

    def __init__(self, base: Colouring, p: int):
        k = base.uniformity
        if p < 1:
            raise ParameterError("p must be positive")
        if p > math.factorial(k):
            raise ParameterError(f"p = {p} exceeds k! = {math.factorial(k)}")
        super().__init__(2 * k, 1 << base.num_vertices)
        self.base = base
        self.p = p
        self.kind = "stepped-up-2"
        self.step = ("up2", k, p)
        # forced on vertex sets of size t**(k + 2)
        self.forced_colours = p
        self._perm_index = {
            perm: i
            for i, perm in enumerate(
                itertools.permutations(range(1, k + 1)), start=1
            )
        }

    def colour_of_deltas(self, ds: tuple[int, ...]):
        return self._colour_memo[ds[0::2]]

    def colour_of_odd_deltas(self, odds: tuple[int, ...]):
        return self._colour_memo[odds]

    def _dispatch(self, odds):
        """``(case, colour)`` of the odd-position deltas: the permutation
        tag of their pattern, or the sentinel."""
        i = self._perm_index.get(seqpat.pattern_of(odds))
        if i is None or i > self.p:
            return "sentinel", ("prod", self.base.palette()[0], 1)
        return f"permutation {i}", (
            "prod", self.base.colour(tuple(sorted(odds))), i
        )

    def _palette(self):
        return [
            ("prod", c, i)
            for c in self.base.palette()
            for i in range(1, self.p + 1)
        ]

    def explain(self, edge) -> dict:
        e = self.check_edge(edge)
        ds = _edge_deltas(e)
        odds = ds[0::2]
        case, colour = self._dispatch(odds)
        return {
            "kind": self.kind,
            "edge": e,
            "deltas": ds,
            "odd_deltas": odds,
            "case": case,
            "colour": colour_str(colour),
        }

    def _targets(self):
        """``(permutation, [permutation])`` for each of the first p."""
        perms = itertools.permutations(range(1, self.base.uniformity + 1))
        return [(perm, [perm]) for perm in itertools.islice(perms, self.p)]

    def _realize(self, ds, perm):
        ix = seqpat.contains_separated_permutation(ds.deltas, perm)
        return None if ix is None else delta.realize_separated(ds, ix)

    def _fallback(self, perm, host):
        return {"reason": "separated-missing", "permutation": perm,
                "distinct_deltas": len(set(host))}

    def _fallback_holds(self, b, host) -> bool:
        perm = b.get("permutation")
        return (
            b.get("reason") == "separated-missing"
            and perm in [label for label, _ in self._targets()]
            and b.get("distinct_deltas") == len(set(host))
            and seqpat.contains_separated_permutation(host, perm) is None
        )


def step_up_1(base: Colouring, partition: PatternClassPartition) -> SteppedPlusOne:
    """Product-colour doubling step; budget 2q + p - 2."""
    return SteppedPlusOne(base, partition, aliased=False)


def step_up_1b(base: Colouring, partition: PatternClassPartition) -> SteppedPlusOne:
    """Colour-preserving doubling step; budget stays q (needs q >= p-2)."""
    return SteppedPlusOne(base, partition, aliased=True)


def step_up_2(base: Colouring, p: int) -> SteppedDouble:
    """Uniformity-doubling step; budget p*q (needs p <= k!)."""
    return SteppedDouble(base, p)


# ---------------------------------------------------------------------------
# Lifting to set colours
# ---------------------------------------------------------------------------

class LiftedColouring(Colouring):
    """k-uniform colouring whose colours are p-sets of base colours.

    Each k-edge collects the base colours of all its s-subedges
    (p = C(k, s) of them); when fewer than p distinct colours appear the
    set is padded with the smallest missing base colours, so every colour
    id is a p-subset of the base palette and the budget is C(q, p).
    """

    def __init__(self, base: Colouring, k: int):
        s = base.uniformity
        if k <= s:
            raise ParameterError(f"lifting needs k > s, got k={k}, s={s}")
        if base.num_vertices < k:
            raise ParameterError("universe smaller than the lifted uniformity")
        p = math.comb(k, s)
        if base.budget < p:
            raise ParameterError(
                f"padding to {p} colours impossible with only "
                f"{base.budget} base colours"
            )
        super().__init__(k, base.num_vertices)
        self.base = base
        self.p = p
        self.kind = "hedgehog-lifted"
        self.step = ("lift", s, k)

    def _colour(self, e):
        # ``e`` is sorted and in range, as ``span`` requires; copy the span,
        # which a stepped base hands out of its span memo
        got = set(self.base.span(e))
        if len(got) < self.p:
            missing = (c for c in self.base.palette() if c not in got)
            got.update(itertools.islice(missing, self.p - len(got)))
        return ("set", tuple(sorted(got)))

    def _palette(self):
        return [
            ("set", combo)
            for combo in itertools.combinations(self.base.palette(), self.p)
        ]

    @property
    def budget(self) -> int:
        # C(q, p) without listing the palette, which can run to 10^7 sets
        return math.comb(self.base.budget, self.p)


def lift_colouring(base: Colouring, k: int) -> LiftedColouring:
    return LiftedColouring(base, k)


def tower_compose(base: Colouring, steps) -> Colouring:
    """Fold a schedule of doubling and lifting steps over a ground colouring.

    ``steps`` holds the ``(name, k, p)`` triples of :func:`parse_schedule`
    with name ``up1``, ``up1b`` or ``up2``, or ``("lift", s, k)`` for
    :func:`lift_colouring` to uniformity ``k``; each step's
    ``k`` (``s``) must be the uniformity it steps up from, uniformities
    and budgets are validated per step, and an infeasible schedule
    reports the failing step.
    """
    cur = base
    for pos, (name, k, p) in enumerate(steps, start=1):
        try:
            if k != cur.uniformity:
                raise ParameterError(
                    f"k = {k}, but the colouring it steps up is "
                    f"{cur.uniformity}-uniform"
                )
            if name == "up1":
                cur = step_up_1(cur, partition_patterns(k, p))
            elif name == "up1b":
                cur = step_up_1b(cur, partition_patterns(k, p))
            elif name == "up2":
                cur = step_up_2(cur, p)
            elif name == "lift":
                cur = lift_colouring(cur, p)
            else:
                raise ParameterError(f"unknown step {name!r}")
        except ParameterError as exc:
            raise ParameterError(f"schedule step {pos} ({name}): {exc}") from None
    return cur


def parse_schedule(text: str, path=None):
    """Parse a schedule file into (base_spec, raw_steps).

    ``base_spec`` is ``None`` or ``("random", k, n, q, seed)`` or
    ``("file", pathname)``; ``raw_steps`` is a list of ``(name, k, p)``.
    """
    rows = records(text)
    base_spec = None
    if rows and rows[0][1][0] == "base":
        lineno, toks = rows.pop(0)
        if toks[1:2] == ["random"] and len(toks) == 6:
            base_spec = ("random",) + ints(toks[2:], "integer", path, lineno)
        elif toks[1:2] == ["file"] and len(toks) == 3:
            base_spec = ("file", toks[2])
        else:
            raise FileFormatError(
                f"bad base line {' '.join(toks)!r}", path=path, line=lineno
            )
    steps = []
    for lineno, toks in rows:
        if toks[0] == "base":
            raise FileFormatError("base line must come first", path=path, line=lineno)
        if toks[0] not in ("up1", "up1b", "up2", "lift") or len(toks) != 3:
            raise FileFormatError(
                f"expected 'up1|up1b|up2|lift <k> <p>', got {' '.join(toks)!r}",
                path=path,
                line=lineno,
            )
        steps.append((toks[0], *ints(toks[1:], "integer", path, lineno)))
    return base_spec, steps


# ---------------------------------------------------------------------------
# Tabulated colouring files
# ---------------------------------------------------------------------------

def format_tabulated(c: TabulatedColouring) -> str:
    """The file :func:`parse_tabulated` reads, edges in lexicographic order."""
    colours, codes = c.palette_codes()
    names = [" " + colour_str(col) for col in colours]
    # the k-subsets of the labels "1".."n" come in the order of _edges()
    labels = map(str, range(1, c.num_vertices + 1))
    edges = map(" ".join, itertools.combinations(labels, c.uniformity))
    lines = [f"{c.uniformity} {c.num_vertices} {c.budget}"]
    lines += map(str.__add__, edges, map(names.__getitem__, codes))
    return "\n".join(lines) + "\n"


def parse_tabulated(text: str, path=None) -> TabulatedColouring:
    """The colouring in ``text``: a ``k n q`` header, then one line
    ``v1 ... vk colour`` per edge, in any order, with ``#`` comments and
    blank lines ignored.  The colour is in :func:`colour_str` form; every
    k-subset of 1..n must be coloured exactly once, with at most q colours.

    Errors are FileFormatError at ``path:line``.  The header is checked
    first (its token count, its integers, then the declared sizes).  Edge
    lines are checked in file order, each for: its token count, its
    vertices (the first bad token is named), a k-subset of 1..n, its colour
    and a repeated edge.  Then, at the header line, more than q colours and
    an edge count other than C(n, k).
    """
    rows = records(text)
    if not rows:
        raise FileFormatError("empty colouring file", path=path)
    headerline, head = rows[0]
    if len(head) != 3:
        raise FileFormatError("expected header 'k n q'", path=path, line=headerline)
    k, n, q = ints(head, "header value", path, headerline)
    check_declared(path, headerline, k=k, n=n, q=q)
    table = {}
    parsed = {}  # colour token -> its colour, each token parsed once
    for lineno, toks in rows[1:]:
        if len(toks) != k + 1:
            raise FileFormatError(
                f"expected {k} vertices and a colour", path=path, line=lineno
            )
        try:
            e = tuple(sorted(map(int, toks[:k])))
        except ValueError:  # let ints name the bad token
            e = tuple(sorted(ints(toks[:k], "vertex", path, lineno)))
        # e is empty only under a k = 0 header, which the colouring refuses
        if len(set(e)) != k or e and (e[0] < 1 or e[-1] > n):
            raise FileFormatError(
                f"edge {e} is not a {k}-subset of 1..{n}", path=path, line=lineno
            )
        tok = toks[k]
        col = parsed.get(tok)
        if col is None:
            try:
                col = parsed[tok] = parse_colour(tok)
            except FileFormatError as exc:
                raise FileFormatError(str(exc), path=path, line=lineno) from None
        if e in table:
            raise FileFormatError(f"duplicate edge {e}", path=path, line=lineno)
        table[e] = col
    palette = sorted(set(parsed.values()))
    if len(palette) > q:
        raise FileFormatError(
            f"{len(palette)} distinct colours exceed declared budget {q}",
            path=path,
            line=headerline,
        )
    if all(c[0] == "base" for c in palette):
        declared = [("base", i) for i in range(1, q + 1)]
        if set(palette) <= set(declared):
            palette = declared
    try:
        return TabulatedColouring(k, n, table, palette)
    except ParameterError as exc:
        raise FileFormatError(str(exc), path=path, line=headerline) from None


# ---------------------------------------------------------------------------
# Witness extraction on vertex subsets of a doubled universe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Outcome of hunting many-coloured edges inside one vertex subset.

    ``outcome`` is ``"p-colours"`` with ``edges`` holding pairwise
    distinctly coloured edges, or ``"branch"`` with ``branch`` explaining
    which case of the lemma applies instead: a set of at most k vertices
    (``too-small``), or the construction's own fallback, a homogeneous
    delta subsequence for ``up1``/``up1b`` (``homogeneous``) or a
    permutation with no separated realization for ``up2``
    (``separated-missing``).  ``target`` is the construction's forced
    colour count either way.
    """

    outcome: str
    target: int
    edges: tuple = ()
    branch: dict | None = None

    def revalidate(self, colouring: Colouring, vertices) -> bool:
        """Re-check the report against ``vertices``.

        The target must be the colouring's forced colour count.  Edges are
        re-coloured and must lie inside the set with pairwise distinct
        colours; a ``too-small`` branch needs at most k vertices; any other
        branch is re-checked by the colouring's own fallback, so a reason
        that belongs to the other construction, or to none, fails.
        """
        if not isinstance(colouring, _Stepped):
            return False
        if self.target != colouring.forced_colours:
            return False
        vs = set(vertices)
        if self.outcome == "p-colours":
            if len(self.edges) != self.target:
                return False
            seen = set()
            for edge, col in self.edges:
                if not set(edge) <= vs:
                    return False
                if colouring.colour(edge) != col:
                    return False
                seen.add(col)
            return len(seen) == self.target
        b = (self.branch if self.outcome == "branch" else None) or {}
        if len(vs) <= colouring.uniformity:
            return b.get("reason") == "too-small" and b.get("size") == len(vs)
        host = delta.delta_sequence_of_ints(
            [v - 1 for v in sorted(vs)], colouring.base.num_vertices
        ).deltas
        return colouring._fallback_holds(b, host)


def witness_p_colours(colouring: Colouring, vertices) -> WitnessReport:
    """Find edges spanning the construction's forced colour count.

    For a subset of a doubled universe, the construction lists its forced
    colours, each with the patterns that realize it: each pattern class
    (plus the two monotone directions) for ``up1``/``up1b``, each of the
    first p permutations for ``up2``.  For each colour in turn the first
    pattern found in the subset's delta sequence is lifted to an edge
    inside the subset and re-coloured through the colouring; the edges
    span pairwise distinct colours.  When some colour has no pattern at
    this scale the report carries the construction's fallback branch
    instead, and a set of at most k vertices reports ``too-small``.
    """
    if not isinstance(colouring, _Stepped):
        raise ParameterError("witness extraction needs a stepped-up colouring")
    vs = sorted(set(vertices))
    if any(v < 1 or v > colouring.num_vertices for v in vs):
        raise ParameterError("vertices outside the universe")
    target = colouring.forced_colours
    if len(vs) <= colouring.uniformity:
        return WitnessReport(
            outcome="branch", target=target,
            branch={"reason": "too-small", "size": len(vs)},
        )
    ds = delta.delta_sequence_of_ints(
        [v - 1 for v in vs], colouring.base.num_vertices
    )
    edges = []
    for label, patterns in colouring._targets():
        for q in patterns:
            hit = colouring._realize(ds, q)
            if hit is not None:
                break
        else:
            return WitnessReport(
                outcome="branch", target=target,
                branch=colouring._fallback(label, ds.deltas),
            )
        edge = tuple(w.value + 1 for w in hit)
        edges.append((edge, colouring.colour(edge)))
    if len({col for _, col in edges}) != len(edges):
        raise RuntimeError("realized edges failed to span distinct colours")
    return WitnessReport(outcome="p-colours", target=target, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Exhaustive evaluation of small doubled universes
# ---------------------------------------------------------------------------

def sweep_reachable_colours(c: Colouring, counts: bool = False):
    """Collect the colours of every edge of the universe.

    Returns ``(colours, histogram)`` where ``histogram`` maps colour ->
    edge count when ``counts`` is requested (else ``None``).  When
    :meth:`Colouring.classes` gives classes of edges, the sweep is an exact
    sum over them, one colour evaluation per class at its least member;
    any other colouring is read through :meth:`Colouring.edge_colours`.
    """
    classes = c.classes(c.uniformity)
    if classes is None:
        pairs = zip(c.edge_colours(), itertools.repeat(1))
    else:
        pairs = ((c._colour(least), n) for least, n in classes)
    hist: dict = {}
    for col, n in pairs:
        hist[col] = hist.get(col, 0) + n
    return set(hist), (hist if counts else None)
