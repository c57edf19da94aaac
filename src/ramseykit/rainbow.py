"""Rainbow-property verification, random-colouring search, and a tiny
exact existence oracle for small complete hypergraphs.

A q-colouring of the k-subsets of 1..n is (t, p)-rainbow when every set of
t vertices spans at least p distinct edge colours.  Exhaustive
verification decides the property; sampled verification is evidence only
and every report says which of the two it performed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .errors import DEFAULT_BUDGET, ParameterError, charge
from .stepup import Colouring, TabulatedColouring, random_colouring
from .stepup import _check_built, _check_palette, _comb_upto, _pack, _rank_tables
from .stepup import _sample_set

__all__ = [
    "RainbowReport",
    "verify_rainbow",
    "search_random_rainbow",
    "exact_rainbow_exists",
    "max_span",
]


def max_span(k: int, t: int, q: int) -> int:
    """The most colours a t-set can span in a q-colouring of K_n^(k):
    ``min(q, C(t, k))``.  No colouring is (t, p)-rainbow for p above it."""
    return min(q, _comb_upto(t, k, q))


@dataclass(frozen=True)
class RainbowReport:
    """Verdict of a rainbow check, with a re-validating fail witness.

    ``coverage`` is ``"exhaustive"`` or ``"sampled"``; sampled runs carry
    their seed and trial count and prove nothing.  On failure
    ``violating_set`` spans fewer than ``p`` colours (re-checkable), and
    exhaustive enumeration guarantees it is the lexicographically least
    such set.
    """

    passed: bool
    t: int
    p: int
    coverage: str
    violating_set: tuple | None = None
    violating_colours: tuple = ()
    histogram: dict = field(default_factory=dict)
    sets_checked: int = 0
    trials: int | None = None
    seed: int | None = None


def verify_rainbow(
    colouring: Colouring,
    t: int,
    p: int,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> RainbowReport:
    """Check that every (or each sampled) t-set spans at least p colours.

    Sets are visited in lexicographic order (sampled ones in draw order),
    and the report does not depend on how their colours are found.  An
    exhaustive check runs in this process, in at most two steps.  It first
    reads ``colouring.classes(t)``, the classes of t-sets that span the
    same colours by construction (the delta classes of a stepped
    colouring, the part profiles of a Burr-Erdos host): when every class's
    least member spans at least p colours, the histogram is the sum of the
    class counts by span, and all C(n, t) sets count as checked.  At the
    first class that spans fewer, or with no classes, it scans the t-sets
    in lexicographic order up to the least violating set.  When
    ``colouring.palette_codes()`` gives codes (a tabulated colouring, or
    any other with at most MAX_BUILT edges) that scan is one depth-first
    search over vertex prefixes, :func:`_prefix_scan`, that ORs each new
    vertex's edge bits into its prefix's palette bitmask; a prefix that
    already spans every colour in use, when those are at least p, counts
    all its extensions at once.  A stepped colouring, one above MAX_BUILT
    edges, and every sampled check read each set's colours from
    ``colouring.span`` in :func:`_scan`: a stepped colouring computes a
    span once per distinct delta sequence, and any other remembers each
    edge colour it has read.  Sampling needs t <= n; exhaustively, t > n
    passes with no set checked and no edge coloured.  Before any set is
    read, the budget is charged ``colouring.span_cost`` per set, C(t, k)
    edge evaluations or one lookup for a stepped colouring, for every
    t-set or every trial, whether or not classes decide the check.
    """
    k = colouring.uniformity
    n = colouring.num_vertices
    if t < k:
        raise ParameterError(f"t = {t} below the uniformity {k}")
    if p < 1:
        raise ParameterError("p must be positive")
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    sampled = mode == "sampled"
    if sampled and trials < 1:
        raise ParameterError(f"trials = {trials}, must be at least 1")
    if sampled and t > n:
        raise ParameterError(f"t = {t} exceeds n = {n}: no {t}-set to sample")
    per_set, unit = colouring.span_cost(t)
    work = (trials if sampled else math.comb(n, t)) * per_set
    charge(work, budget, f"{mode} verification needs about {work} {unit}",
           "use fewer trials" if sampled else "use sampled mode")
    classes = None if sampled else colouring.classes(t)
    hist = None if classes is None else _class_histogram(classes, colouring.span, p)
    if hist is not None:
        violation, checked = None, math.comb(n, t)
    elif sampled:
        rng = random.Random(seed)
        sets = (_sample_set(rng, n, t) for _ in range(trials))
        violation, hist, checked = _scan(colouring, sets, p)
    else:
        # with no t-set, colour no edge for the palette codes
        coded = colouring.palette_codes() if t <= n else None
        if coded is not None:
            violation, hist, checked = _prefix_scan(coded, k, n, t, p)
        else:
            sets = itertools.combinations(range(1, n + 1), t)
            violation, hist, checked = _scan(colouring, sets, p)

    violating_set, violating_colours = violation or (None, ())
    return RainbowReport(
        passed=violation is None,
        t=t,
        p=p,
        coverage=mode,
        violating_set=violating_set,
        violating_colours=violating_colours,
        histogram=hist,
        sets_checked=checked,
        trials=trials if sampled else None,
        seed=seed if sampled else None,
    )


def _class_histogram(classes, span_of, p):
    """The span histogram of every t-set, summed over ``classes`` of
    ``(least member, count)`` by the span of each least member; ``None``
    at the first class that spans fewer than p colours."""
    hist: dict[int, int] = {}
    for least, count in classes:
        span = len(span_of(least))
        if span < p:
            return None
        hist[span] = hist.get(span, 0) + count
    return hist


def _scan(colouring, sets, p):
    """Span histogram of ``sets`` in order, stopping at the first set that
    spans fewer than p colours.

    Returns ``(violation, histogram, count)`` where ``violation`` is
    ``(set, sorted colours)`` or ``None``.
    """
    span_of = colouring.span
    hist: dict[int, int] = {}
    checked = 0
    for ts in sets:
        seen = span_of(ts)
        checked += 1
        span = len(seen)
        hist[span] = hist.get(span, 0) + 1
        if span < p:
            return (ts, tuple(sorted(seen))), hist, checked
    return None, hist, checked


def _prefix_scan(coded, k, n, t, p):
    """The :func:`_scan` result over every t-set of 1..n in lexicographic
    order, from one depth-first search over vertex prefixes.

    ``coded`` is ``(colours, codes)`` from :meth:`Colouring.palette_codes`.
    A prefix carries the bitmask of the palette codes of its edges: its
    parent's mask OR the bits of the edges that end at its last vertex v.
    Those edges' lexicographic ranks are the partial ranks of the prefix's
    (k-1)-subsets plus v's last-position term of ``_rank_tables``, and
    the partial ranks of its j-subsets, j < k, are kept per prefix.  A
    prefix of d vertices, the last v, that already spans every colour used,
    when those are at least p, adds all C(n - v, t - d) of its extensions
    to the histogram at once: each spans exactly that many colours.
    """
    colours, codes = coded
    bits = [1 << c for c in codes]
    used = set(codes)
    count = len(used)
    # with fewer than p colours in use every set violates: never saturate
    full = sum(1 << c for c in used) if count >= p else -1
    tables = _rank_tables(k, n)
    last = tables[k - 1]
    prefix = [0] * t
    hist: dict[int, int] = {}
    violation = []  # the violating set's mask, once found

    def extend(depth, vs, mask, partials):
        # the sets through prefix[:depth], whose j-subsets have partial
        # ranks partials[j], extended by each vertex of vs in turn; returns
        # the number of sets checked, up to a violation
        checked = 0
        leaf = depth + 1 == t
        edges = partials[k - 1]
        for v in vs:
            off = last[v]
            m = mask
            for r in edges:
                m |= bits[r + off]
            prefix[depth] = v
            if leaf:
                span = m.bit_count()
                hist[span] = hist.get(span, 0) + 1
                checked += 1
                if span < p:
                    violation.append(m)
                    return checked
            elif m == full:
                batch = math.comb(n - v, t - depth - 1)
                hist[count] = hist.get(count, 0) + batch
                checked += batch
            else:
                grown = [partials[0]]
                for j in range(1, k):
                    term = tables[j - 1][v]
                    grown.append(partials[j] + [r + term for r in partials[j - 1]])
                checked += extend(depth + 1, range(v + 1, n - t + depth + 3), m,
                                  grown)
                if violation:
                    return checked
        return checked

    checked = extend(0, range(1, n - t + 2), 0, [[0]] + [[]] * (k - 1))
    if not violation:
        return None, hist, checked
    seen = (colours[c] for c in range(len(colours)) if violation[0] >> c & 1)
    return (tuple(prefix), tuple(sorted(seen))), hist, checked


def search_random_rainbow(
    k: int,
    n: int,
    q: int,
    t: int,
    p: int,
    max_attempts: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
):
    """Draw seeded uniform colourings until one verifies exhaustively.

    Returns ``(colouring, report, attempts)`` on success; ``None`` after
    ``max_attempts`` failures (a report of failure, not a proof of
    non-existence).  Attempt ``i`` uses seed ``seed + i``.  Each attempt
    costs C(n, t) * C(t, k) edge evaluations against one ``budget`` for
    the whole search; BudgetExceededError is raised before an attempt
    that would exceed it.  As in :func:`exact_rainbow_exists`, when there
    are t-sets and p exceeds :func:`max_span`, none can span p colours and
    ``None`` is returned without drawing.
    """
    if t < k:
        raise ParameterError(f"t = {t} below the uniformity {k}")
    # refuse what random_colouring refuses before charging any attempt
    _check_palette(q)
    if max_attempts < 1:
        raise ParameterError("max_attempts must be positive")
    if n >= t and p > max_span(k, t, q):
        return None  # no t-set can span p colours
    _check_built("edges", n, k)
    per_attempt = math.comb(n, t) * math.comb(t, k)
    for attempt in range(max_attempts):
        work = (attempt + 1) * per_attempt
        charge(work, budget, f"random search needs about {work} edge "
               f"evaluations by attempt {attempt + 1}")
        colouring = random_colouring(k, n, q, seed=seed + attempt)
        report = verify_rainbow(colouring, t, p, mode="exhaustive", budget=budget)
        if report.passed:
            return colouring, report, attempt + 1
    return None


# ---------------------------------------------------------------------------
# Exact existence oracle
# ---------------------------------------------------------------------------

def exact_rainbow_exists(
    k: int,
    n: int,
    q: int,
    t: int,
    p: int,
    budget: int = DEFAULT_BUDGET,
):
    """Complete search: does any (t, p)-rainbow q-colouring of K_n^(k) exist?

    Returns ``(exists, witness)`` where the witness is a
    :class:`TabulatedColouring` or ``None``.  Edges are assigned in
    lexicographic order and new colours are introduced in increasing
    order, so the first solution found is the lexicographically least one.
    Symmetry breaking keeps that solution: the first n - k + 1 edges are
    the star {1..k-1} + {j}, j = k..n, which every permutation of k..n
    maps onto itself.  Relabelled, any rearrangement of the star's colours
    is part of another solution, so the least solution colours the star in
    contiguous blocks 1^a1 2^a2 ... with a1 >= a2 >= ...; on the star the
    search allows only the next new colour or a repeat of the previous
    edge's colour that keeps the current block no longer than the last.

    The search forward-checks (Haralick & Elliott, Artificial Intelligence
    14, 1980) on colour bitmasks.  Each edge keeps a domain, the bitmask of
    the colours it may still take, and a colour outside it is skipped.  A
    t-set is checked once its second-to-last edge is coloured, from the OR
    of its coloured edges' bits: at least p colours leave it be, fewer than
    p - 1 prune the branch, and exactly p - 1 remove those colours from its
    last edge's domain, pruning when that empties.  So the last edge's
    domain decides the t-set exactly.  A trail undoes the domain cuts on
    backtracking.  Only branches with no solution are pruned, so the least
    solution is still the first found.  The depth-first search runs on an
    explicit stack, one level per edge, so its depth is not bounded by
    Python's recursion limit.  ``budget`` counts the nodes of this pruned
    search: one per edge level entered.

    When p exceeds q or C(t, k), no t-set can span p colours and the answer
    is no without a search.  An instance that would list more than
    MAX_BUILT colours, edges or t-sets raises ParameterError.
    """
    if t < k:
        raise ParameterError(f"t = {t} below the uniformity {k}")
    _check_palette(q)
    if p < 1:
        raise ParameterError("p must be positive")
    if n < t:
        return True, None  # no t-sets to violate anything
    if p > max_span(k, t, q):
        return False, None  # no t-set can span p colours
    _check_built("edges", n, k)
    _check_built("t-sets", n, t)

    m = math.comb(n, k)
    tables = _rank_tables(k, n)

    # a t-set is checked when its second-to-last edge is coloured, against
    # its last edge and the rest of its edges, coloured by then; with p = 1
    # every t-set passes, and with p >= 2 it has at least two edges
    watch: list[list[tuple]] = [[] for _ in range(m)]
    if p > 1:
        for ts in itertools.combinations(range(1, n + 1), t):
            idxs = [sum(tab[v] for tab, v in zip(tables, e))
                    for e in itertools.combinations(ts, k)]
            watch[idxs[-2]].append((idxs[-1], idxs[:-2]))

    star = n - k + 1
    domain = [(1 << (q + 1)) - 2] * m  # bit c set: colour c still allowed
    bits = [0] * m  # 1 << the colour of each coloured edge
    colours = [0] * m
    trail: list[int] = []  # an edge and its previous domain, per domain cut
    # per depth: the colours left to try, the least last, and the trail
    # length, colours used and star block lengths on entry
    todo: list[list[int]] = [[]] * m
    entry: list[tuple] = [()] * m
    nodes = 0
    # last, run: lengths of the previous and the current star block; both
    # start at m so that the first block may grow to any length
    depth, used, last, run = 0, 0, m, m
    descend = True
    while True:
        if descend:
            if depth == m:
                break
            nodes += 1
            if nodes > budget:
                charge(nodes, budget, f"exact oracle needs at least {nodes} search nodes")
            if depth >= star:
                choices = range(min(q, used + 1), 0, -1)
            else:
                choices = [used + 1] if used < q else []
                if run < last:
                    choices.append(colours[depth - 1])
            dom = domain[depth]
            todo[depth] = [c for c in choices if dom >> c & 1]
            entry[depth] = (len(trail), used, last, run)
        mark, used, last, run = entry[depth]
        while len(trail) > mark:
            old = trail.pop()
            domain[trail.pop()] = old
        left = todo[depth]
        if not left:
            depth -= 1
            if depth < 0:
                return False, None
            descend = False
            continue
        c = left.pop()
        colours[depth] = c
        bits[depth] = span_c = 1 << c
        descend = True
        for end, rest in watch[depth]:
            span = span_c
            for i in rest:
                span |= bits[i]
            have = span.bit_count()
            if have >= p:
                continue
            # the last edge adds at most one colour, and it must be new
            dom = domain[end]
            cut = dom & ~span
            if have < p - 1 or not cut:
                descend = False
                break
            if cut != dom:
                trail += (end, dom)
                domain[end] = cut
        if descend:
            last, run = (run, 1) if c > used else (last, run + 1)
            used = max(used, c)
            depth += 1

    palette = [("base", i) for i in range(1, q + 1)]
    codes = _pack([c - 1 for c in colours], q)
    return True, TabulatedColouring(k, n, None, palette, codes=codes)
