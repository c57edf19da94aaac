"""Lazily evaluable edge colourings and the two doubling constructions.

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
``up2 k p``), optionally preceded by a ``base ...`` line describing the
ground colouring (``base random <k> <n> <q> <seed>`` or
``base file <path>``).  Tabulated colourings export as a ``k n q`` header
followed by one ``v1 ... vk colour`` line per edge; lazy colourings export
their base description plus schedule instead.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import FileFormatError, ParameterError
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
            while pos < len(s) and s[pos].isdigit():
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
            while pos < len(s) and s[pos].isdigit():
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

class Colouring:
    """Total deterministic map from k-subsets of 1..n to colour ids."""

    kind = "abstract"

    def __init__(self, uniformity: int, num_vertices: int):
        if uniformity < 1:
            raise ParameterError("uniformity must be positive")
        if num_vertices < uniformity:
            raise ParameterError("universe smaller than the uniformity")
        self.uniformity = uniformity
        self.num_vertices = num_vertices
        self._palette_cache = None

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

    def palette(self) -> tuple:
        """Declared colour space, canonically ordered; reachable colours
        are always a subset."""
        if self._palette_cache is None:
            self._palette_cache = tuple(sorted(self._palette()))
        return self._palette_cache

    def _palette(self):
        raise NotImplementedError

    @property
    def budget(self) -> int:
        return len(self.palette())

    def explain(self, edge) -> dict:
        e = self.check_edge(edge)
        return {"kind": self.kind, "edge": e, "colour": colour_str(self._colour(e))}

    def describe(self) -> str:
        return (
            f"{self.kind} colouring of the {self.uniformity}-subsets of "
            f"1..{self.num_vertices} with at most {self.budget} colours"
        )


class TabulatedColouring(Colouring):
    """Colouring stored as an explicit edge table."""

    def __init__(self, uniformity, num_vertices, table, colours, kind="tabulated", seed=None):
        super().__init__(uniformity, num_vertices)
        self.table = dict(table)
        self._colours = tuple(colours)
        self.kind = kind
        self.seed = seed
        expected = _ncr(num_vertices, uniformity)
        if len(self.table) != expected:
            raise ParameterError(
                f"table has {len(self.table)} edges, expected {expected}"
            )

    def _colour(self, e):
        return self.table[e]

    def _palette(self):
        return self._colours


def _ncr(n, k):
    import math

    return math.comb(n, k)


def random_colouring(k: int, n: int, q: int, seed: int) -> TabulatedColouring:
    """Uniformly random q-colouring of the k-subsets of 1..n, seed-reproducible."""
    if q < 1:
        raise ParameterError("q must be positive")
    rng = random.Random(seed)
    table = {
        e: ("base", 1 + rng.randrange(q))
        for e in itertools.combinations(range(1, n + 1), k)
    }
    return TabulatedColouring(
        k, n, table, [("base", i) for i in range(1, q + 1)],
        kind="random-seeded", seed=seed,
    )


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

def _edge_deltas(e) -> tuple[int, ...]:
    """Consecutive deltas of a sorted edge (vertex v is the bit vector of v - 1)."""
    values = [v - 1 for v in e]
    return tuple(map(delta.delta_bits, values, values[1:]))


class SteppedPlusOne(Colouring):
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
        # provenance only: the construction forces its colour count on
        # vertex sets of size t**(16**k + 1); never used at desk scale
        self.guarantee = {
            "forced_colours": partition.p - 2 if aliased else partition.p,
            "set_size_exponent": 16**partition.k + 1,
        }
        self._memo: dict = {}

    def colour_of_deltas(self, ds: tuple[int, ...]):
        got = self._memo.get(ds)
        if got is None:
            got = self._memo[ds] = self._dispatch(ds)[1]
        return got

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

    def _colour(self, e):
        return self.colour_of_deltas(_edge_deltas(e))

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


class SteppedDouble(Colouring):
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
        import math

        if p > math.factorial(k):
            raise ParameterError(f"p = {p} exceeds k! = {math.factorial(k)}")
        super().__init__(2 * k, 1 << base.num_vertices)
        self.base = base
        self.p = p
        self.kind = "stepped-up-2"
        # provenance only: forced on vertex sets of size t**(k + 2)
        self.guarantee = {"forced_colours": p, "set_size_exponent": k + 2}
        self._perm_index = {
            perm: i
            for i, perm in enumerate(
                itertools.permutations(range(1, k + 1)), start=1
            )
        }
        self._memo: dict = {}

    def colour_of_odd_deltas(self, odds: tuple[int, ...]):
        got = self._memo.get(odds)
        if got is None:
            got = self._memo[odds] = self._dispatch(odds)[1]
        return got

    def _dispatch(self, odds):
        """``(case, colour)`` of the odd-position deltas: the permutation
        tag of their pattern, or the sentinel."""
        i = self._perm_index.get(seqpat.pattern_of(odds))
        if i is None or i > self.p:
            return "sentinel", ("prod", self.base.palette()[0], 1)
        return f"permutation {i}", (
            "prod", self.base.colour(tuple(sorted(odds))), i
        )

    def _colour(self, e):
        return self.colour_of_odd_deltas(_edge_deltas(e)[0::2])

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


def step_up_1(base: Colouring, partition: PatternClassPartition) -> SteppedPlusOne:
    """Product-colour doubling step; budget 2q + p - 2."""
    return SteppedPlusOne(base, partition, aliased=False)


def step_up_1b(base: Colouring, partition: PatternClassPartition) -> SteppedPlusOne:
    """Colour-preserving doubling step; budget stays q (needs q >= p-2)."""
    return SteppedPlusOne(base, partition, aliased=True)


def step_up_2(base: Colouring, p: int) -> SteppedDouble:
    """Uniformity-doubling step; budget p*q (needs p <= k!)."""
    return SteppedDouble(base, p)


def tower_compose(base: Colouring, steps) -> Colouring:
    """Fold a schedule of doubling steps over a ground colouring.

    ``steps`` holds ``("up1", partition)``, ``("up1b", partition)`` or
    ``("up2", p)`` entries; uniformities and budgets are validated per
    step and an infeasible schedule reports the failing step.
    """
    cur = base
    for pos, step in enumerate(steps, start=1):
        name = step[0]
        try:
            if name == "up1":
                cur = step_up_1(cur, step[1])
            elif name == "up1b":
                cur = step_up_1b(cur, step[1])
            elif name == "up2":
                cur = step_up_2(cur, step[1])
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
    base_spec = None
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "base":
            if steps or base_spec is not None:
                raise FileFormatError(
                    "base line must come first", path=path, line=lineno
                )
            if toks[1] == "random" and len(toks) == 6:
                base_spec = ("random",) + tuple(int(x) for x in toks[2:])
            elif toks[1] == "file" and len(toks) == 3:
                base_spec = ("file", toks[2])
            else:
                raise FileFormatError(
                    f"bad base line {line!r}", path=path, line=lineno
                )
            continue
        if toks[0] not in ("up1", "up1b", "up2") or len(toks) != 3:
            raise FileFormatError(
                f"expected 'up1|up1b|up2 <k> <p>', got {line!r}",
                path=path,
                line=lineno,
            )
        try:
            k, p = int(toks[1]), int(toks[2])
        except ValueError:
            raise FileFormatError(
                f"bad integers in {line!r}", path=path, line=lineno
            ) from None
        steps.append((toks[0], k, p))
    return base_spec, steps


def build_steps(raw_steps):
    """Turn raw ``(name, k, p)`` schedule entries into composable steps."""
    out = []
    for name, k, p in raw_steps:
        if name in ("up1", "up1b"):
            out.append((name, partition_patterns(k, p)))
        else:
            out.append((name, p))
    return out


def format_schedule(base_spec, raw_steps) -> str:
    lines = []
    if base_spec is not None:
        lines.append("base " + " ".join(str(x) for x in base_spec))
    for name, k, p in raw_steps:
        lines.append(f"{name} {k} {p}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tabulated colouring files
# ---------------------------------------------------------------------------

def format_tabulated(c: TabulatedColouring) -> str:
    lines = [f"{c.uniformity} {c.num_vertices} {c.budget}"]
    for e in sorted(c.table):
        lines.append(" ".join(str(v) for v in e) + " " + colour_str(c.table[e]))
    return "\n".join(lines) + "\n"


def parse_tabulated(text: str, path=None) -> TabulatedColouring:
    lines = [l for l in text.splitlines()]
    header = None
    table = {}
    colours = set()
    headerline = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 3:
                raise FileFormatError(
                    "expected header 'k n q'", path=path, line=lineno
                )
            try:
                header = tuple(int(x) for x in toks)
            except ValueError:
                raise FileFormatError(
                    f"bad header {line!r}", path=path, line=lineno
                ) from None
            headerline = lineno
            continue
        k, n = header[0], header[1]
        if len(toks) != k + 1:
            raise FileFormatError(
                f"expected {k} vertices and a colour", path=path, line=lineno
            )
        try:
            e = tuple(sorted(int(x) for x in toks[:k]))
        except ValueError:
            raise FileFormatError(
                f"bad vertex in {line!r}", path=path, line=lineno
            ) from None
        if len(set(e)) != k or any(v < 1 or v > n for v in e):
            raise FileFormatError(
                f"edge {e} is not a {k}-subset of 1..{n}", path=path, line=lineno
            )
        col = parse_colour(toks[k])
        if e in table:
            raise FileFormatError(f"duplicate edge {e}", path=path, line=lineno)
        table[e] = col
        colours.add(col)
    if header is None:
        raise FileFormatError("empty colouring file", path=path)
    k, n, q = header
    if len(colours) > q:
        raise FileFormatError(
            f"{len(colours)} distinct colours exceed declared budget {q}",
            path=path,
            line=headerline,
        )
    palette = sorted(colours)
    if all(c[0] == "base" for c in palette):
        declared = [("base", i) for i in range(1, q + 1)]
        if set(palette) <= set(declared):
            palette = declared
    return TabulatedColouring(k, n, table, palette, kind="tabulated")


# ---------------------------------------------------------------------------
# Witness extraction on vertex subsets of a doubled universe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Outcome of hunting many-coloured edges inside one vertex subset.

    ``outcome`` is ``"p-colours"`` with ``edges`` holding pairwise
    distinctly coloured edges, or ``"branch"`` with ``branch`` explaining
    which fallback applies (too-small set, homogeneous delta subsequence,
    or a permutation with no separated realization).
    """

    outcome: str
    target: int
    edges: tuple = ()
    branch: dict | None = None

    def revalidate(self, colouring: Colouring, vertices) -> bool:
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
        b = self.branch or {}
        if b.get("reason") == "homogeneous":
            ix = b["delta_indices"]
            ds = b["delta_values"]
            return seqpat.is_homogeneous(ds) and list(ds) == [
                b["host_deltas"][i - 1] for i in ix
            ]
        return True


def witness_p_colours(colouring: Colouring, vertices) -> WitnessReport:
    """Find edges spanning the construction's forced colour count.

    For a subset of a doubled universe, realizes one edge per pattern
    class (plus the two monotone directions) or per permutation tag, all
    inside the subset, with pairwise distinct colours; each edge is
    re-evaluated through the colouring before being reported.  When some
    class or permutation has no realization at this scale the report
    carries the explaining branch instead.
    """
    if not isinstance(colouring, (SteppedPlusOne, SteppedDouble)):
        raise ParameterError("witness extraction needs a stepped-up colouring")
    vs = sorted(set(vertices))
    if any(v < 1 or v > colouring.num_vertices for v in vs):
        raise ParameterError("vertices outside the universe")
    if len(vs) <= colouring.uniformity:
        return WitnessReport(
            outcome="branch",
            target=_witness_target(colouring),
            branch={"reason": "too-small", "size": len(vs)},
        )
    ds = delta.delta_sequence_of_ints(
        [v - 1 for v in vs], colouring.base.num_vertices
    )
    if isinstance(colouring, SteppedPlusOne):
        return _witness_plus_one(colouring, ds)
    return _witness_double(colouring, ds)


def _witness_target(c):
    if isinstance(c, SteppedPlusOne):
        return c.partition.p - 2 if c.aliased else c.partition.p
    return c.p


def _edge_of(vertices) -> tuple[int, ...]:
    """Vertex labels of realized host vertices (label = value + 1)."""
    return tuple(w.value + 1 for w in vertices)


def _witness_plus_one(c: SteppedPlusOne, ds: delta.DeltaSeq):
    host = ds.deltas
    part = c.partition
    k = part.k
    targets = []
    for i in range(1, part.p - 1):
        cls = part.classes[i - 1]
        ordered = [part.left_reps[i - 1], part.right_reps[i - 1]]
        ordered += sorted(q for q in cls if q not in ordered)
        targets.append((f"class {i}", ordered))
    if not c.aliased:
        targets.append(("increasing", [tuple(range(1, k + 1))]))
        targets.append(("decreasing", [tuple(range(k, 0, -1))]))

    edges = []
    for label, patterns in targets:
        ix = None
        for q in patterns:
            ix = seqpat.contains_max_induced(host, q)
            if ix is not None:
                break
        if ix is None:
            length, wit = seqpat.longest_homogeneous_max_induced(host)
            return WitnessReport(
                outcome="branch",
                target=_witness_target(c),
                branch={
                    "reason": "homogeneous",
                    "missing": label,
                    "delta_indices": wit,
                    "delta_values": tuple(host[i - 1] for i in wit),
                    "host_deltas": host,
                    "length": length,
                },
            )
        edge = _edge_of(delta.realize_max_induced(ds, ix))
        edges.append((edge, c.colour(edge)))

    colours = {col for _, col in edges}
    if len(colours) != len(edges):
        raise RuntimeError("realized edges failed to span distinct colours")
    return WitnessReport(outcome="p-colours", target=len(edges), edges=tuple(edges))


def _witness_double(c: SteppedDouble, ds: delta.DeltaSeq):
    host = ds.deltas
    k = c.base.uniformity
    edges = []
    for i, perm in enumerate(itertools.permutations(range(1, k + 1)), start=1):
        if i > c.p:
            break
        ix = seqpat.contains_separated_permutation(host, perm)
        if ix is None:
            return WitnessReport(
                outcome="branch",
                target=c.p,
                branch={
                    "reason": "separated-missing",
                    "permutation": perm,
                    "distinct_deltas": len(set(host)),
                },
            )
        edge = _edge_of(delta.realize_separated(ds, ix))
        edges.append((edge, c.colour(edge)))
    colours = {col for _, col in edges}
    if len(colours) != len(edges):
        raise RuntimeError("realized edges failed to span distinct colours")
    return WitnessReport(outcome="p-colours", target=c.p, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Exhaustive evaluation of small doubled universes
# ---------------------------------------------------------------------------

def sweep_reachable_colours(c: Colouring, counts: bool = False):
    """Evaluate every edge of the universe and collect the colours seen.

    Returns ``(colours, histogram)`` where ``histogram`` maps colour ->
    edge count when ``counts`` is requested (else ``None``).  The stepped
    constructions factor their dispatch through the same memo tables the
    ordinary evaluator uses, which keeps the full sweep of a 2^n-vertex
    universe affordable.
    """
    n = c.num_vertices
    k = c.uniformity
    hist: dict | None = {} if counts else None

    if isinstance(c, SteppedPlusOne):
        dispatch = c.colour_of_deltas

        def key_of(e, dt):
            return tuple(dt[a][b] for a, b in zip(e, e[1:]))

    elif isinstance(c, SteppedDouble):
        dispatch = c.colour_of_odd_deltas

        def key_of(e, dt):
            return tuple(dt[e[i]][e[i + 1]] for i in range(0, k - 1, 2))

    else:
        seen = set()
        for e in itertools.combinations(range(1, n + 1), k):
            col = c._colour(e)
            seen.add(col)
            if hist is not None:
                hist[col] = hist.get(col, 0) + 1
        return seen, hist

    # delta table over 0-based vertex values
    dt = [[(a ^ b).bit_length() for b in range(n)] for a in range(n)]
    seen = set()
    memo_get = {}
    for e in itertools.combinations(range(n), k):
        key = key_of(e, dt)
        col = memo_get.get(key)
        if col is None:
            col = memo_get[key] = dispatch(key)
        if hist is not None:
            hist[col] = hist.get(col, 0) + 1
        else:
            seen.add(col)
    if hist is not None:
        seen = set(hist)
    return seen, hist
