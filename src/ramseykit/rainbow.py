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
import os
import random
from dataclasses import dataclass, field

from .errors import DEFAULT_BUDGET, ParameterError, charge
from .stepup import Colouring, TabulatedColouring, random_colouring
from .stepup import _check_built, _check_palette, _comb_upto, _rank_tables
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
    workers: int = 1,
) -> RainbowReport:
    """Check that every (or each sampled) t-set spans at least p colours.

    Sets are visited in lexicographic order (sampled ones in draw order),
    and the report does not depend on how their colours are found.  When
    ``colouring.palette_codes()`` gives codes (a tabulated colouring, or
    any other with at most MAX_BUILT edges), an exhaustive check is a
    depth-first scan over vertex prefixes that ORs each new vertex's edge
    bits into its prefix's palette bitmask; a prefix that already spans
    every colour in use, when those are at least p, counts all its
    extensions at once.  A stepped colouring, one above MAX_BUILT edges,
    and every sampled check read each set's colours from
    ``colouring.span``: a stepped colouring computes a span once per
    distinct delta sequence, and any other remembers each edge colour it
    has read.  Sampling needs t <= n; exhaustively, t > n passes with no
    set checked.  Before any set is read, the budget is charged
    ``colouring.span_cost`` per set, C(t, k) edge evaluations or one lookup
    for a stepped colouring, for every t-set or every trial.

    ``workers`` must be at least 1 and is capped at the CPU count.
    ``workers > 1`` splits an exhaustive enumeration across processes by
    least vertex and replays the parts in order up to the first violation,
    so the report (verdict, witness, histogram and ``sets_checked``)
    equals the serial run's.
    """
    k = colouring.uniformity
    n = colouring.num_vertices
    if t < k:
        raise ParameterError(f"t = {t} below the uniformity {k}")
    if p < 1:
        raise ParameterError("p must be positive")
    if workers < 1:
        raise ParameterError(f"workers = {workers}, must be at least 1")
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
    if not sampled:
        firsts = range(1, n - t + 2)
        workers = min(workers, os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            jobs = [(colouring, t, p, firsts[i::workers]) for i in range(workers)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = [x for chunk in pool.map(_scan_firsts, jobs) for x in chunk]
        else:
            parts = _scan_firsts((colouring, t, p, firsts))
        violation, hist, checked = _replay(parts)
    else:
        rng = random.Random(seed)
        sets = (_sample_set(rng, n, t) for _ in range(trials))
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


def _scan_firsts(args):
    """Scan the t-sets by least vertex, one ``(first, _scan result)`` part
    per least vertex in ``firsts``, up to the first violating part.  A
    colouring with palette codes is scanned by :func:`_prefix_scanner`,
    any other set by set through ``span``."""
    colouring, t, p, firsts = args
    if not firsts:  # no t-set here: colour no edge for the palette codes
        return []
    n = colouring.num_vertices
    coded = colouring.palette_codes()
    if coded is not None:
        scan = _prefix_scanner(coded, colouring.uniformity, n, t, p)
    else:
        def scan(first):
            rests = itertools.combinations(range(first + 1, n + 1), t - 1)
            return _scan(colouring, map((first,).__add__, rests), p)
    parts = []
    for first in firsts:
        part = scan(first)
        parts.append((first, part))
        if part[0] is not None:
            break
    return parts


def _prefix_scanner(coded, k, n, t, p):
    """The :func:`_scan` result over the t-sets with a given least vertex,
    from a depth-first search over vertex prefixes in lexicographic order.

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
    violation = []  # the violating set's mask, once found

    def extend(depth, vs, mask, partials, hist):
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
                                  grown, hist)
                if violation:
                    return checked
        return checked

    def scan(first):
        hist: dict[int, int] = {}
        violation.clear()
        checked = extend(0, (first,), 0, [[0]] + [[]] * (k - 1), hist)
        if not violation:
            return None, hist, checked
        seen = (colours[c] for c in range(len(colours)) if violation[0] >> c & 1)
        return (tuple(prefix), tuple(sorted(seen))), hist, checked

    return scan


def _replay(parts):
    """Merge per-least-vertex parts in vertex order, up to and including
    the first part that holds a violation: the serial scan's result."""
    hist: dict[int, int] = {}
    checked = 0
    violation = None
    for _, (violation, h, count) in sorted(parts, key=lambda part: part[0]):
        checked += count
        for span, cnt in h.items():
            hist[span] = hist.get(span, 0) + cnt
        if violation is not None:
            break
    return violation, hist, checked


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

    edges = list(itertools.combinations(range(1, n + 1), k))
    m = len(edges)
    edge_index = {e: i for i, e in enumerate(edges)}

    # t-sets become checkable once their last edge is assigned
    finish_at: list[list[list[int]]] = [[] for _ in range(m)]
    for ts in itertools.combinations(range(1, n + 1), t):
        idxs = [edge_index[e] for e in itertools.combinations(ts, k)]
        finish_at[max(idxs)].append(idxs)

    star = n - k + 1
    colours = [0] * m
    nodes = 0

    def dfs(depth: int, used: int, last: int, run: int) -> bool:
        # last, run: lengths of the previous and the current star block;
        # both start at m so that the first block may grow to any length
        nonlocal nodes
        if depth == m:
            return True
        nodes += 1
        if nodes > budget:
            charge(nodes, budget, f"exact oracle needs at least {nodes} search nodes")
        if depth >= star:
            choices = range(1, min(q, used + 1) + 1)
        else:
            choices = [colours[depth - 1]] if run < last else []
            if used < q:
                choices.append(used + 1)
        for c in choices:
            colours[depth] = c
            ok = True
            for idxs in finish_at[depth]:
                if len({colours[i] for i in idxs}) < p:
                    ok = False
                    break
            blocks = (run, 1) if c > used else (last, run + 1)
            if ok and dfs(depth + 1, max(used, c), *blocks):
                return True
        colours[depth] = 0
        return False

    if dfs(0, 0, m, m):
        table = {e: ("base", colours[i]) for i, e in enumerate(edges)}
        witness = TabulatedColouring(
            k, n, table, [("base", i) for i in range(1, q + 1)]
        )
        return True, witness
    return False, None
