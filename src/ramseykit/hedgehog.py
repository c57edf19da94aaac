"""Body-and-spine hypergraphs, the spread of set-valued lifted colourings,
piercing numbers, a constructive monochromatic-copy finder,
and the two-part host colouring showing that bounded degeneracy does not
bound 3-uniform Ramsey numbers linearly.

Hypergraph files: header ``r |V| |E|``, then one edge (r vertex labels)
per line.  Embedding witnesses serialize as JSON
``{"body": [...], "edges": [{"subset": [...], "private": [...],
"colour": "..."}]}``.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    MAX_DECLARED,
    FileFormatError,
    ParameterError,
    PreconditionError,
    IncompleteSearchError,
    charge,
    check_declared,
    ints,
    records,
)
from .stepup import Colouring, LiftedColouring, _comb_upto, _lex_rank, _sample_set
from .stepup import colour_str
from .stepup import lift_colouring

__all__ = [
    "Hypergraph",
    "Hedgehog",
    "build_hedgehog",
    "degeneracy",
    "peel_trace",
    "PiercingResult",
    "piercing_number",
    "LiftedColouring",
    "lift_colouring",
    "SpreadReport",
    "verify_hedgehog_spread",
    "HedgehogEmbedding",
    "find_mono_hedgehog",
    "BurrErdosHost",
    "burr_erdos_pair",
    "parse_hypergraph",
    "format_hypergraph",
]


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on explicit integer vertices."""

    r: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ParameterError("duplicate vertices")
        seen = set()
        for e in self.edges:
            if len(e) != self.r or len(set(e)) != self.r:
                raise ParameterError(f"edge {e} is not an {self.r}-set")
            if tuple(sorted(e)) != e:
                raise ParameterError(f"edge {e} is not sorted")
            if not set(e) <= vs:
                raise ParameterError(f"edge {e} uses unknown vertices")
            if e in seen:
                raise ParameterError(f"duplicate edge {e}")
            seen.add(e)


@dataclass(frozen=True)
class Hedgehog:
    """Body of t vertices plus one k-edge per s-subset of the body.

    Each spine edge owns k-s private vertices that appear in no other
    edge, so distinct edges intersect inside the body only.
    """

    t: int
    k: int
    s: int
    body: tuple[int, ...]
    spine: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (subset, privates)

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(sub + priv)) for sub, priv in self.spine)

    @property
    def vertices(self) -> tuple[int, ...]:
        out = list(self.body)
        for _, priv in self.spine:
            out.extend(priv)
        return tuple(out)

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.k, tuple(sorted(self.vertices)), tuple(sorted(self.edges)))


def build_hedgehog(t: int, k: int, s: int) -> Hedgehog:
    """Construct the body-and-spine hypergraph with parameters (t, k, s).

    The result has C(t, s) edges and t + (k-s)*C(t, s) vertices, at most
    MAX_DECLARED; the balanced variant takes s = ceil(k/2).
    """
    if not (k > s >= 1):
        raise ParameterError(f"need k > s >= 1, got k={k}, s={s}")
    if t < s:
        raise ParameterError(f"need t >= s, got t={t}, s={s}")
    if t + (k - s) * _comb_upto(t, s, MAX_DECLARED) > MAX_DECLARED:
        raise ParameterError(
            f"t + (k-s)*C(t, s) vertices are above the limit {MAX_DECLARED}"
        )
    body = tuple(range(1, t + 1))
    spine = []
    nxt = t + 1
    for sub in itertools.combinations(body, s):
        priv = tuple(range(nxt, nxt + (k - s)))
        nxt += k - s
        spine.append((sub, priv))
    return Hedgehog(t=t, k=k, s=s, body=body, spine=tuple(spine))


# ---------------------------------------------------------------------------
# Degeneracy by peeling
# ---------------------------------------------------------------------------

def peel_trace(h: Hypergraph) -> list[tuple[int, int]]:
    """Remove a minimum-incidence vertex (smallest label on ties) until no
    vertices remain; return the (vertex, incidence-at-removal) trace.

    The maximum incidence along the trace is the degeneracy.  A bucket
    queue keyed on incidence, each bucket a heap of labels, finds the next
    vertex; an entry is stale once its vertex is gone or its incidence has
    dropped, and a vertex enters each bucket at most once, so the peel
    takes O((V + rE) log V) time.
    """
    incident = {v: [] for v in h.vertices}  # edge indices at each vertex
    for i, e in enumerate(h.edges):
        for v in e:
            incident[v].append(i)
    deg = {v: len(es) for v, es in incident.items()}
    buckets = [[] for _ in range(max(deg.values(), default=0) + 1)]
    for v in sorted(deg):  # sorted lists are heaps
        buckets[deg[v]].append(v)
    dead = [False] * len(h.edges)
    trace = []
    d = 0
    while len(trace) < len(deg):
        while not buckets[d]:
            d += 1
        v = heapq.heappop(buckets[d])
        if deg[v] != d:
            continue  # stale: removed (-1) or moved to a lower bucket
        trace.append((v, d))
        deg[v] = -1
        for i in incident[v]:
            if dead[i]:
                continue
            dead[i] = True
            for u in h.edges[i]:
                if deg[u] > 0:
                    deg[u] -= 1
                    heapq.heappush(buckets[deg[u]], u)
                    d = min(d, deg[u])
    return trace


def degeneracy(h: Hypergraph) -> int:
    """Least d such that every induced subhypergraph has a vertex in at
    most d edges; computed exactly by min-incidence peeling."""
    trace = peel_trace(h)
    return max((d for _, d in trace), default=0)


# ---------------------------------------------------------------------------
# Piercing numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiercingResult:
    """Certified bounds on a piercing number, with a hitting set of size
    ``upper``; ``nodes`` counts the search nodes spent, one past the
    budget when it ran out."""

    lower: int
    upper: int
    witness: tuple[int, ...]
    exact: bool
    nodes: int = field(default=0, compare=False)

    @property
    def value(self) -> int:
        if not self.exact:
            raise BudgetExceededError(
                f"piercing number only bounded in [{self.lower}, {self.upper}], "
                "not exact"
            )
        return self.lower


def piercing_number(
    h: Hypergraph,
    a,
    budget: int = DEFAULT_BUDGET,
) -> PiercingResult:
    """Exact minimum hitting set over the edges of ``h`` containing ``a``.

    ``a`` is a vertex set with fewer than r elements.  Vertices of
    ``a`` itself are not allowed to pierce.  Branch-and-bound is exact
    within the budget; if the budget runs out the result carries certified
    bounds with ``exact=False`` instead of raising.
    """
    a = frozenset([a] if isinstance(a, int) else a)
    if len(a) >= h.r:
        raise ParameterError(f"|A| = {len(a)} must be below the uniformity {h.r}")
    rests = [frozenset(e) - a for e in h.edges if a <= set(e)]
    return _min_hitting_set(rests, budget)


def _greedy_hitting_set(sets) -> list[int]:
    """A hitting set of the frozensets ``sets``, an upper bound on their
    piercing number: repeatedly hit the most common vertex."""
    remaining = list(sets)
    greedy: list[int] = []
    while remaining:
        counts: dict[int, int] = {}
        for s in remaining:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda u: (-counts[u], u))
        greedy.append(v)
        remaining = [s for s in remaining if v not in s]
    return greedy


def _min_hitting_set(sets, budget: int) -> PiercingResult:
    sets = [frozenset(s) for s in sets]
    if not sets:
        return PiercingResult(0, 0, (), True)
    best = sorted(_greedy_hitting_set(sets))
    best_size = len(best)
    nodes = 0
    exhausted = False

    def dfs(uncovered, chosen):
        nonlocal best, best_size, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if not uncovered:
            if len(chosen) < best_size or (
                len(chosen) == best_size and sorted(chosen) < best
            ):
                best = sorted(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + 1 > best_size:
            return
        # branch on the smallest uncovered set: filtering keeps the
        # (size, sorted members) order, so it is the first one
        for v in uncovered[0][0]:
            dfs([p for p in uncovered if v not in p[1]], chosen + [v])

    keyed = ((tuple(sorted(s)), s) for s in sets)
    dfs(sorted(keyed, key=lambda p: (len(p[0]), p[0])), [])
    if exhausted:
        # lower bound: a maximal collection of pairwise disjoint sets
        lower = 0
        used: set[int] = set()
        for s in sorted(sets, key=len):
            if not (s & used):
                lower += 1
                used |= s
        return PiercingResult(lower, best_size, tuple(best), False, nodes)
    return PiercingResult(best_size, best_size, tuple(best), True, nodes)


# ---------------------------------------------------------------------------
# Spread of lifted colourings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadReport:
    """Certificate that bodies force many colours on lifted spine edges.

    For every body of t vertices the base colours it spans (at least
    p'*p + 1 by the verified rainbow property) each appear in some spine
    edge's colour set, and one set holds only p of them, so any copy on
    that body spans at least p'+1 lifted colours.  ``bodies_checked`` and
    ``min_base_span`` are read from the exhaustive base report: the t-sets
    it checked and the least span in its histogram.  Random embeddings are
    also evaluated directly.
    """

    t: int
    p_prime: int
    p: int
    bodies_checked: int
    min_base_span: int
    embeddings_checked: int
    min_lifted_span: int
    violations: tuple = ()
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_hedgehog_spread(
    lifted: LiftedColouring,
    t: int,
    p_prime: int,
    base_report,
    embeddings: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SpreadReport:
    """Certify the pigeonhole chain for every body and spot-check embeddings.

    ``base_report`` must be a passing exhaustive (t, p'*p + 1)-rainbow
    verify of the base colouring that checked all C(n, t) bodies, else
    PreconditionError is raised.  Every body's span is read from it, so
    no body is coloured again here: the spread inherits whichever kernel
    decided the base.  Then ``embeddings`` random placements with random
    disjoint private vertices are evaluated through the lifted colouring;
    each must span at least p'+1 distinct colour sets.  They are charged
    against ``budget`` before they run, C(t, s) lifted colours per
    embedding, one per spine edge, and BudgetExceededError is raised if
    the charge exceeds it.
    """
    base = lifted.base
    s = base.uniformity
    k = lifted.uniformity
    p = lifted.p
    need = p_prime * p + 1
    unverified = f"base colouring is not verified ({t}, {need})-rainbow exhaustively"
    if (not base_report.passed or base_report.coverage != "exhaustive"
            or base_report.t != t or base_report.p < need):
        raise PreconditionError(unverified)

    n = base.num_vertices
    if not s <= t <= n:  # no body spans an edge, or there is no body
        return SpreadReport(
            t=t, p_prime=p_prime, p=p, bodies_checked=0, min_base_span=0,
            embeddings_checked=0, min_lifted_span=0,
        )
    bodies = math.comb(n, t)
    if base_report.sets_checked != bodies:
        raise PreconditionError(f"{unverified}: its report checked "
                                f"{base_report.sets_checked} of {bodies} bodies")

    n_priv = (k - s) * math.comb(t, s)
    rng = random.Random(seed)
    violations = []
    min_lifted = None
    done = 0
    if t + n_priv <= n:
        work = embeddings * math.comb(t, s)
        charge(work, budget, f"spread check of {embeddings} embeddings needs "
               f"{work} lifted colours")
        for _ in range(embeddings):
            body = _sample_set(rng, n, t)
            in_body = set(body)
            pool = [v for v in range(1, n + 1) if v not in in_body]
            rng.shuffle(pool)
            pos = 0
            cols = set()
            for sub in itertools.combinations(body, s):
                priv = pool[pos : pos + (k - s)]
                pos += k - s
                cols.add(lifted.colour(tuple(sub) + tuple(priv)))
            done += 1
            if min_lifted is None or len(cols) < min_lifted:
                min_lifted = len(cols)
            if len(cols) < p_prime + 1:
                violations.append(
                    {"stage": "embedding", "body": body, "span": len(cols)}
                )
    return SpreadReport(
        t=t,
        p_prime=p_prime,
        p=p,
        bodies_checked=bodies,
        min_base_span=min(base_report.histogram),
        embeddings_checked=done,
        min_lifted_span=min_lifted if min_lifted is not None else 0,
        violations=tuple(violations),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Monochromatic balanced copies in 2-colourings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HedgehogEmbedding:
    """A monochromatic embedded copy: body, one host edge per (k+1)-subset
    of the body (with its private vertices), and the common colour."""

    body: tuple[int, ...]
    edges: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (subset, privates)
    colour: object

    def to_dict(self) -> dict:
        return {
            "body": list(self.body),
            "edges": [
                {
                    "subset": list(sub),
                    "private": list(priv),
                    "colour": colour_str(self.colour),
                }
                for sub, priv in self.edges
            ],
        }


def validate_embedding(emb: HedgehogEmbedding, colouring: Colouring, t: int) -> bool:
    """Re-check an embedding edge by edge."""
    k1 = colouring.uniformity // 2 + 1  # subsets have size k+1 for odd 2k+1
    if len(emb.body) != t:
        return False
    subs = {sub for sub, _ in emb.edges}
    if subs != set(itertools.combinations(emb.body, k1)):
        return False
    seen_priv: set[int] = set(emb.body)
    for sub, priv in emb.edges:
        if len(priv) != colouring.uniformity - k1:
            return False
        if seen_priv & set(priv):
            return False
        seen_priv |= set(priv)
        if colouring.colour(sub + priv) != emb.colour:
            return False
    return True


def find_mono_hedgehog(
    colouring: Colouring,
    t: int,
    budget: int = DEFAULT_BUDGET,
) -> HedgehogEmbedding:
    """Constructive monochromatic balanced copy in a 2-coloured K_n^(2k+1).

    Stage 1 classifies (k+1)-sets as endangered for a colour when few
    vertices pierce all their host edges of that colour (at k = 1 these
    are pair co-degrees, counted in one pass over the C(n,3) triples);
    stage 2 colours each vertex by a colour of which it lies in at most
    2k*t^(k+1) endangered sets (ties go to the first palette colour), and
    a vertex above that on both sides raises
    :class:`IncompleteSearchError` with stage ``vertex-colouring`` and
    both counts (impossible at k = 1, as the comment there shows); stage 3
    greedily finds a body avoiding endangered sets of the majority side;
    stage 4 grows the spine greedily, one fresh host edge per
    (k+1)-subset of the body, so t must be at least k + 1.
    The thresholds are guaranteed to work out only for universes of size
    t^(k+3) and beyond with t large; every one of them is checked at
    runtime and failures are reported with the failing stage.
    """
    r = colouring.uniformity
    if r % 2 != 1 or r < 3:
        raise ParameterError(f"uniformity must be odd and >= 3, got {r}")
    k = (r - 1) // 2
    if t < k + 1:
        raise ParameterError(
            f"t = {t} is below k + 1 = {k + 1}: the body has no "
            f"{k + 1}-subset, so the copy would have no edge"
        )
    n = colouring.num_vertices
    need_vertices = t + k * math.comb(t, k + 1)
    if n < need_vertices:
        raise ParameterError(
            f"universe of {n} vertices cannot hold a copy with "
            f"{need_vertices} vertices"
        )
    palette = colouring.palette()
    if len(palette) != 2:
        raise ParameterError("a 2-colouring is required")
    c_first, c_second = palette
    danger_thr = t ** (k + 1)
    peril_thr = 2 * k * t ** (k + 1)

    if k == 1:
        danger = _pair_danger(colouring, n, danger_thr, c_first, c_second)
    else:
        danger = _general_danger(colouring, n, k, danger_thr, c_first, c_second, budget)

    # vertex sides: few endangered sets of a colour at the vertex
    deg = {c_first: [0] * (n + 1), c_second: [0] * (n + 1)}
    for e, col in danger.items():
        for v in e:
            deg[col][v] += 1
    side: dict[int, object] = {}
    for v in range(1, n + 1):
        if deg[c_first][v] <= peril_thr:
            side[v] = c_first  # ties go to the first colour
        elif deg[c_second][v] <= peril_thr:
            side[v] = c_second
        else:
            # Cannot happen at k = 1: let A and B be the partners of v in
            # its endangered pairs of the first and the second colour, both
            # of more than 2t^2 vertices.  Each triple {v, a, b} adds to the
            # first-colour co-degree of {v, a} or to the second-colour one
            # of {v, b}, and endangered co-degrees are below t^2, so
            # |A|*|B| <= (t^2 - 1)(|A| + |B|), false once |A|, |B| > 2t^2.
            first, second = deg[c_first][v], deg[c_second][v]
            raise IncompleteSearchError(
                f"vertex {v} has {first} endangered sets of the first colour "
                f"and {second} of the second, both above 2k*t^(k+1) = "
                f"{peril_thr}",
                stage="vertex-colouring",
                details={"vertex": v, "first": first, "second": second},
            )

    first_side = [v for v in range(1, n + 1) if side[v] == c_first]
    if 2 * len(first_side) >= n:
        target, members = c_first, first_side
    else:
        target, members = c_second, [v for v in range(1, n + 1) if side[v] == c_second]

    # greedy body avoiding endangered sets of the target colour
    body: list[int] = []
    alive = sorted(members)
    danger_target = {e for e, col in danger.items() if col == target}
    while alive and len(body) < t:
        v = alive.pop(0)
        body.append(v)
        blocked = set()
        for e in danger_target:
            if v in e:
                blocked |= set(e) - {v}
        alive = [u for u in alive if u not in blocked]
    if len(body) < t:
        raise IncompleteSearchError(
            f"greedy body stalled at {len(body)} of {t} vertices",
            stage="body",
            details={"colour": colour_str(target), "candidates": len(members)},
        )
    body_t = tuple(body)

    # every (k+1)-subset of the body is now unendangered for the target
    # colour, so host edges of that colour are plentiful; grow the spine
    used = set(body_t)
    spine = []
    for sub in itertools.combinations(body_t, k + 1):
        priv = _find_private(colouring, sub, target, used, n, k)
        if priv is None:
            raise IncompleteSearchError(
                f"no fresh host edge of the majority colour through {sub}",
                stage="spine",
                details={"subset": sub},
            )
        used |= set(priv)
        spine.append((sub, priv))

    emb = HedgehogEmbedding(
        body=body_t,
        edges=tuple(spine),
        colour=target,
    )
    if not validate_embedding(emb, colouring, t):
        raise IncompleteSearchError(
            "constructed embedding failed re-validation",
            stage="validate",
        )
    return emb


def _pair_danger(colouring, n, thr, c1, c2):
    """Endangered pairs at uniformity 3: the piercing number of a pair in
    one colour's host edges is its co-degree in that colour.

    The c1 co-degrees come from one pass of :meth:`Colouring.edge_colours`
    over the C(n,3) triples, each read once; a pair's co-degree in c2 is
    n - 2 minus its co-degree in c1."""
    red = map(c1.__eq__, colouring.edge_colours())
    danger = {}
    for e, n1 in _co_degrees(red, n).items():
        if n1 < thr:
            danger[e] = c1
        elif n - 2 - n1 < thr:
            danger[e] = c2
    return danger


def _co_degrees(flags, n):
    """Co-degree of every pair of 1..n, pairs in lexicographic order, among
    the triples flagged true; ``flags`` holds one flag per triple of 1..n,
    triples in lexicographic order.

    The triples with least vertices a < b form a run of flags for the
    third vertices c = b+1..n.  Read as a big-endian integer with one
    w-byte lane per flag, the last lane for c = n, run (a, b) adds
    its flags to lane c of ``total[a]`` (pair (a, c)) and of ``total[b]``
    (pair (b, c)), and its count of set flags goes to lane b of
    ``total[a]`` (pair (a, b)).  So ``total[x]`` holds the co-degrees of
    the pairs (x, x+1..n), one per lane.  A co-degree is at most n - 2, so
    a lane of w bytes, 256^w > n, never carries into the next.
    """
    w = (n.bit_length() + 7) // 8
    runs = bytearray(w * math.comb(n, 3))
    runs[w - 1::w] = bytes(flags)
    one = (1).to_bytes(w, "big")
    total = [0] * n
    pos = 0
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            size = w * (n - b)
            run = runs[pos:pos + size]
            pos += size
            lanes = int.from_bytes(run, "big")
            total[a] += lanes + (run.count(one) << 8 * size)
            total[b] += lanes
    raw = b"".join(total[x].to_bytes(w * (n - x), "big") for x in range(1, n))
    counts = (int.from_bytes(raw[i:i + w], "big") for i in range(0, len(raw), w))
    return dict(zip(itertools.combinations(range(1, n + 1), 2), counts))


def _general_danger(colouring, n, k, thr, c1, c2, budget):
    """Endangered (k+1)-sets by brute force: the up-front edge estimate is
    charged first, and each piercing search draws its nodes from what is
    left of ``budget``.  A set is endangered in a colour when its piercing
    number there is below ``thr``, so no search runs when an upper bound
    already is: the n - k - 1 other vertices, which hit every host edge
    through the set, or the greedy hitting set."""
    work = math.comb(n, k + 1) * math.comb(n - k - 1, k)
    charge(work, budget, f"classifying endangered sets needs about {work} edge "
           "evaluations")
    universe = range(1, n + 1)
    if n - k - 1 < thr:
        return dict.fromkeys(itertools.combinations(universe, k + 1), c1)

    def endangered(hosts):
        nonlocal work
        if len(_greedy_hitting_set(hosts)) < thr:
            return True
        res = _min_hitting_set(hosts, budget - work)
        work += res.nodes
        charge(work, budget, f"classifying endangered sets needs at least {work} "
               "edge evaluations and piercing nodes")
        return res.value < thr

    danger = {}
    for e in itertools.combinations(universe, k + 1):
        rest = [v for v in universe if v not in e]
        hosts1 = []
        hosts2 = []
        for extra in itertools.combinations(rest, k):
            col = colouring.colour(e + extra)
            (hosts1 if col == c1 else hosts2).append(frozenset(extra))
        if endangered(hosts1):
            danger[e] = c1
        elif endangered(hosts2):  # searched only when c1 does not win
            danger[e] = c2
    return danger


def _find_private(colouring, sub, target, used, n, k):
    """Smallest fresh k-set completing ``sub`` to an edge of the target colour."""
    pool = [v for v in range(1, n + 1) if v not in used and v not in sub]
    for extra in itertools.combinations(pool, k):
        if colouring.colour(tuple(sub) + extra) == target:
            return extra
    return None


# ---------------------------------------------------------------------------
# The two-part host colouring
# ---------------------------------------------------------------------------

# the first palette colour wins danger/peril ties, so it is the red one
RED = ("base", 1)
BLUE = ("base", 2)


class BurrErdosHost(Colouring):
    """Host 2-colouring on n^3/8 vertices split into n/4 parts of n^2/2.

    A triple is red exactly when it has two vertices in one part and its
    third vertex elsewhere; triples inside a single part or meeting three
    distinct parts are blue.
    """

    def __init__(self, n: int):
        if n % 4 != 0 or n < 4:
            raise ParameterError("n must be a positive multiple of 4")
        self.n = n
        self.part_size = n * n // 2
        self.num_parts = n // 4
        super().__init__(3, self.part_size * self.num_parts)
        self.kind = "burr-erdos-host"

    def part_of(self, v: int) -> int:
        """1-based part index of a vertex."""
        return (v - 1) // self.part_size + 1

    def _colour(self, e):
        parts = [self.part_of(v) for v in e]
        distinct = len(set(parts))
        if distinct == 2:
            return RED
        return BLUE

    def _palette(self):
        return [RED, BLUE]

    def classes(self, t: int):
        """Yield ``(least member, count)`` for the t-subsets of the universe,
        one class per part profile: a partition of t into at most
        ``num_parts`` blocks of at most ``part_size`` each, the sizes of
        its nonempty parts.

        A class of block sizes a_1 >= ... >= a_r holds
        ``perm(P, r) / prod(mult!) * prod(C(S, a_i))`` sets, where P is the
        number of parts, S their size and mult the multiplicity of each
        block size; the counts sum to C(N, t).  The least member puts the
        blocks, largest first, at the lowest labels of parts 1, 2, ....
        Classes come in increasing order of their least member.
        """
        size, parts = self.part_size, self.num_parts

        def partitions(rest, most, blocks):
            if rest == 0:
                yield ()
            elif blocks:
                for a in range(min(rest, most), 0, -1):
                    for tail in partitions(rest - a, a, blocks - 1):
                        yield (a,) + tail

        for blocks in partitions(t, size, parts):
            least = tuple(
                i * size + j for i, a in enumerate(blocks) for j in range(1, a + 1)
            )
            count = math.perm(parts, len(blocks))
            for a in blocks:
                count *= math.comb(size, a)
            for mult in collections.Counter(blocks).values():
                count //= math.factorial(mult)
            yield least, count

    def _has_blue(self, s5) -> bool:
        """Whether a sorted 5-set holds a blue triple.  Five vertices either
        put three in one part or meet three parts, so its part profile
        names the candidate triples; each is re-coloured through
        :meth:`colour`, never assumed blue."""
        parts = {}
        for v in s5:
            parts.setdefault(self.part_of(v), []).append(v)
        groups = list(parts.values())
        for g in groups:
            if len(g) >= 3 and self.colour(g[:3]) == BLUE:
                return True
        return len(groups) >= 3 and self.colour([g[0] for g in groups[:3]]) == BLUE

    def scan_for_blue(self, mode="exhaustive", trials=10**6, seed=0) -> dict:
        """Check that every 5-subset (or each of ``trials`` sampled ones)
        contains a blue triple.

        Block-shape contract: the colour of a triple depends only on which
        of its vertices share a part, so the verdict of a 5-set depends only
        on its block shape, the sorted sizes of its nonempty parts.  Both
        modes check the least member of each class of :meth:`classes`, one
        per shape.  Exhaustive: on a pass ``checked`` is C(N, 5); on a
        failure the violating set is the least member of the least
        violating class and ``checked`` is its lexicographic rank + 1, as a
        set-by-set scan in lexicographic order would report.  Sampled: when
        every class passes, so does every set, and the pass reports
        ``checked`` = ``trials`` without drawing a set.  Otherwise it draws
        ``_sample_set(random.Random(seed), N, 5)`` per trial and stops at
        the first set of a failing shape, re-checked by :meth:`_has_blue`.
        The report holds ``passed``, ``mode``, ``checked``, on failure the
        ``violating_set``, and the ``seed`` of a sampled scan.
        """
        if mode not in ("exhaustive", "sampled"):
            raise ParameterError(f"unknown mode {mode!r}")
        if mode == "sampled" and trials < 1:
            raise ParameterError(f"trials = {trials}, must be at least 1")
        n = self.num_vertices
        failing = [least for least, _ in self.classes(5) if not self._has_blue(least)]
        if mode == "exhaustive":
            if failing:
                return {"passed": False, "mode": mode,
                        "checked": _lex_rank(failing[0], n) + 1,
                        "violating_set": list(failing[0]), "seed": None}
            return {"passed": True, "mode": mode, "checked": math.comb(n, 5),
                    "seed": None}
        if failing:
            def shape(s5):
                return sorted(collections.Counter(map(self.part_of, s5)).values())

            shapes = list(map(shape, failing))
            rng = random.Random(seed)
            for checked in range(1, trials + 1):
                s5 = _sample_set(rng, n, 5)
                if shape(s5) in shapes and not self._has_blue(s5):
                    return {"passed": False, "mode": mode, "checked": checked,
                            "violating_set": list(s5), "seed": seed}
        return {"passed": True, "mode": mode, "checked": trials, "seed": seed}


def burr_erdos_pair(n: int) -> tuple[Hypergraph, BurrErdosHost]:
    """The low-degeneracy 3-uniform hypergraph and its red/blue host.

    The hypergraph has an n-vertex base, one spine vertex per base pair
    plus one more, two triples tying each base pair to consecutive spine
    vertices, and all triples inside every five consecutive spine
    vertices; peeling the spine in order never meets more than 8 alive
    edges.  The host colouring on n^3/8 vertices contains no monochromatic
    copy of it.
    """
    if n % 4 != 0 or n < 4:
        raise ParameterError("n must be a positive multiple of 4")
    if n + _comb_upto(n, 2, MAX_DECLARED) + 1 > MAX_DECLARED:
        raise ParameterError(
            f"n + C(n, 2) + 1 vertices are above the limit {MAX_DECLARED}"
        )
    base = list(range(1, n + 1))
    pairs = list(itertools.combinations(base, 2))
    m = len(pairs)
    spine = [n + i for i in range(1, m + 2)]  # x_1 .. x_{m+1}
    edges = set()
    for i, (x, y) in enumerate(pairs, start=1):
        edges.add(tuple(sorted((x, y, spine[i - 1]))))
        edges.add(tuple(sorted((x, y, spine[i]))))
    for i in range(m - 3):
        five = spine[i : i + 5]
        for tri in itertools.combinations(five, 3):
            edges.add(tuple(sorted(tri)))
    h = Hypergraph(3, tuple(base + spine), tuple(sorted(edges)))
    return h, BurrErdosHost(n)


# ---------------------------------------------------------------------------
# Hypergraph files
# ---------------------------------------------------------------------------

def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.r} {len(h.vertices)} {len(h.edges)}"]
    for e in h.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str, path=None) -> Hypergraph:
    rows = records(text)
    if not rows:
        raise FileFormatError("empty hypergraph file", path=path)
    headerline, head = rows[0]
    if len(head) != 3:
        raise FileFormatError("expected header 'r |V| |E|'", path=path, line=headerline)
    r, nv, ne = ints(head, "header value", path, headerline)
    check_declared(path, headerline, nv=nv)
    edges = {}  # sorted edge -> its line
    for lineno, toks in rows[1:]:
        e = tuple(sorted(ints(toks, "vertex", path, lineno)))
        if len(e) != r or len(set(e)) != r:
            raise FileFormatError(
                f"edge {e} is not a set of {r} distinct vertices", path=path, line=lineno
            )
        if e in edges:
            raise FileFormatError(
                f"duplicate edge {e} (first on line {edges[e]})", path=path, line=lineno
            )
        edges[e] = lineno
    if len(edges) != ne:
        raise FileFormatError(
            f"header promises {ne} edges, file has {len(edges)}",
            path=path,
            line=headerline,
        )
    vertices = sorted(set(itertools.chain.from_iterable(edges)))
    if len(vertices) > nv:
        raise FileFormatError(
            f"header promises {nv} vertices, edges use {len(vertices)}",
            path=path,
            line=headerline,
        )
    if len(vertices) < nv:
        # isolated vertices are allowed; label them past the named ones
        present = set(vertices)
        extra = []
        v = 1
        while len(vertices) + len(extra) < nv:
            if v not in present:
                extra.append(v)
            v += 1
        vertices = sorted(vertices + extra)
    return Hypergraph(r, tuple(vertices), tuple(sorted(edges)))
