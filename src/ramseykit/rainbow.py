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
from fractions import Fraction

from .errors import BudgetExceededError, DEFAULT_BUDGET, ParameterError
from .stepup import Colouring, TabulatedColouring, random_colouring

__all__ = [
    "RainbowReport",
    "verify_rainbow",
    "FirstMomentParams",
    "first_moment_params",
    "expected_low_span_count",
    "search_random_rainbow",
    "exact_rainbow_exists",
]

DESK_UNIVERSE_CAP = 10**6


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
    if mode == "exhaustive":
        work = math.comb(n, t) * math.comb(t, k)
        if work > budget:
            raise BudgetExceededError(
                f"exhaustive verification needs about {work} edge "
                f"evaluations, budget is {budget}; use sampled mode",
                estimate=work,
                budget=budget,
            )
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
    elif mode == "sampled":
        rng = random.Random(seed)
        sets = (_sample_set(rng, n, t) for _ in range(trials))
        violation, hist, checked = _scan(colouring, sets, p, {})
    else:
        raise ParameterError(f"unknown mode {mode!r}")

    sampled = mode == "sampled"
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


def _scan(colouring, sets, p, cache):
    """Span histogram of ``sets`` in order, stopping at the first set that
    spans fewer than p colours.

    Returns ``(violation, histogram, count)`` where ``violation`` is
    ``(set, sorted colours)`` or ``None``; ``cache`` memoizes edge colours.
    """
    k = colouring.uniformity
    colour = colouring.colour
    hist: dict[int, int] = {}
    checked = 0
    for ts in sets:
        seen = set()
        for e in itertools.combinations(ts, k):
            c = cache.get(e)
            if c is None:
                c = cache[e] = colour(e)
            seen.add(c)
        checked += 1
        span = len(seen)
        hist[span] = hist.get(span, 0) + 1
        if span < p:
            return (ts, tuple(sorted(seen))), hist, checked
    return None, hist, checked


def _scan_firsts(args):
    """Scan the t-sets by least vertex, one ``(first, _scan result)`` part
    per least vertex in ``firsts``, up to the first violating part."""
    colouring, t, p, firsts = args
    n = colouring.num_vertices
    cache: dict = {}
    parts = []
    for first in firsts:
        rests = itertools.combinations(range(first + 1, n + 1), t - 1)
        part = _scan(colouring, map((first,).__add__, rests), p, cache)
        parts.append((first, part))
        if part[0] is not None:
            break
    return parts


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


def _sample_set(rng, n, t):
    """t distinct vertices of 1..n; works for universes beyond C integer
    sizes, where random.sample(range(...)) would overflow."""
    if n <= 1 << 30:
        return tuple(sorted(rng.sample(range(1, n + 1), t)))
    got: set[int] = set()
    while len(got) < t:
        got.add(1 + rng.randrange(n))
    return tuple(sorted(got))


@dataclass(frozen=True)
class FirstMomentParams:
    """Parameters under which a uniformly random colouring is expected to
    be (t, q)-rainbow: epsilon = 1/(q*k!), threshold t0 = ceil(e*q), and
    universe size n = ceil(2^(epsilon*t^(k-1))), capped (and flagged) at
    desk scale."""

    epsilon: Fraction
    n: int
    t0: int
    capped: bool
    log2_n: Fraction


def first_moment_params(k: int, q: int, t: int, cap: int = DESK_UNIVERSE_CAP) -> FirstMomentParams:
    if k < 1 or q < 1 or t < 1:
        raise ParameterError("k, q, t must be positive")
    eps = Fraction(1, q * math.factorial(k))
    t0 = math.ceil(math.e * q)
    exponent = eps * t ** (k - 1)
    if exponent.denominator == 1:
        n = 1 << exponent.numerator
    else:
        n = math.ceil(2 ** float(exponent))
    capped = n > cap
    return FirstMomentParams(
        epsilon=eps,
        n=min(n, cap) if capped else n,
        t0=t0,
        capped=capped,
        log2_n=exponent,
    )


def expected_low_span_count(n: int, t: int, k: int, q: int) -> float:
    """Expected number of t-sets spanning fewer than q colours under a
    uniformly random q-colouring: C(n,t) * q * (1 - 1/q)^C(t,k)."""
    if n < t:
        return 0.0
    log = (
        math.lgamma(n + 1)
        - math.lgamma(t + 1)
        - math.lgamma(n - t + 1)
        + math.log(q)
        + math.comb(t, k) * math.log1p(-1.0 / q)
    )
    return math.exp(log)


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
    non-existence).  Attempt ``i`` uses seed ``seed + i``.
    """
    if t < k:
        raise ParameterError(f"t = {t} below the uniformity {k}")
    if p > q:
        return None  # q colours can never span more than q
    for attempt in range(max_attempts):
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
    shallow_depth: int | None = None,
):
    """Complete search: does any (t, p)-rainbow q-colouring of K_n^(k) exist?

    Returns ``(exists, witness)`` where the witness is a
    :class:`TabulatedColouring` or ``None``.  Edges are assigned in
    lexicographic order with two sound symmetry reductions: new colours
    must be introduced in increasing order, and at shallow depths an
    assignment is discarded when some vertex permutation maps the assigned
    prefix onto itself with a lexicographically smaller relabelled colour
    string.
    """
    if t < k:
        raise ParameterError(f"t = {t} below the uniformity {k}")
    if n < t:
        return True, None  # no t-sets to violate anything
    if p < 1:
        raise ParameterError("p must be positive")

    edges = list(itertools.combinations(range(1, n + 1), k))
    m = len(edges)
    edge_index = {e: i for i, e in enumerate(edges)}

    # t-sets become checkable once their last edge is assigned
    finish_at: list[list[list[int]]] = [[] for _ in range(m)]
    for ts in itertools.combinations(range(1, n + 1), t):
        idxs = [edge_index[e] for e in itertools.combinations(ts, k)]
        finish_at[max(idxs)].append(idxs)

    if shallow_depth is None:
        shallow_depth = min(m, k + 2)
    perms = []
    if shallow_depth > 0 and n <= 8:
        for sigma in itertools.permutations(range(1, n + 1)):
            mapped = [
                edge_index[tuple(sorted(sigma[v - 1] for v in e))] for e in edges
            ]
            if mapped[:shallow_depth] != list(range(shallow_depth)):
                # only prefix-stabilizing permutations can compare prefixes
                if not all(j < shallow_depth for j in mapped[:shallow_depth]):
                    continue
            if mapped == list(range(m)):
                continue  # identity prunes nothing
            perms.append(mapped)

    colours = [0] * m
    nodes = 0

    def recanon(prefix):
        relabel: dict[int, int] = {}
        out = []
        for c in prefix:
            if c not in relabel:
                relabel[c] = len(relabel) + 1
            out.append(relabel[c])
        return out

    def dominated(depth: int) -> bool:
        cur = colours[:depth]
        for mapped in perms:
            img = [0] * depth
            ok = True
            for i in range(depth):
                j = mapped[i]
                if j >= depth:
                    ok = False
                    break
                img[j] = colours[i]
            if ok and recanon(img) < recanon(cur):
                return True
        return False

    def dfs(depth: int, used: int) -> bool:
        nonlocal nodes
        if depth == m:
            return True
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                "exact oracle exceeded its node budget",
                estimate=nodes,
                budget=budget,
            )
        for c in range(1, min(q, used + 1) + 1):
            colours[depth] = c
            ok = True
            for idxs in finish_at[depth]:
                if len({colours[i] for i in idxs}) < p:
                    ok = False
                    break
            if ok and depth + 1 <= shallow_depth and dominated(depth + 1):
                ok = False
            if ok and dfs(depth + 1, max(used, c)):
                return True
        colours[depth] = 0
        return False

    if dfs(0, 0):
        table = {e: ("base", colours[i]) for i, e in enumerate(edges)}
        witness = TabulatedColouring(
            k, n, table, [("base", i) for i in range(1, q + 1)]
        )
        return True, witness
    return False, None
