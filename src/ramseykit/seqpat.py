"""Order patterns and structured subsequences of finite integer sequences.

Conventions used throughout the package:

* a *sequence* is any iterable of non-negative integers; functions return
  plain tuples,
* an *index set* is a strictly increasing tuple of 1-based positions into
  a host sequence (1-based to match the usual subscript convention; file
  formats state this explicitly),
* a *pattern* is the canonical form of a sequence under order equivalence:
  each value is replaced by its dense rank starting at 1, ties sharing a
  rank.  Two sequences are order-equivalent iff their patterns are equal.
  A *permutation pattern* is a pattern without ties.

A subsequence ``(a[i1], ..., a[it])`` is *max-induced* if for every pair of
consecutive chosen indices the maximum over the closed index interval
between them is attained at one of the two endpoints, and *separated* if
consecutive chosen indices differ by at least 2.

All searches are exhaustive and deterministic: whenever a witness exists,
the lexicographically least index set is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import MAX_DECLARED, ParameterError, PreconditionError

__all__ = [
    "Witness",
    "InterlacingResult",
    "pattern_of",
    "is_permutation_pattern",
    "all_patterns",
    "subsequence",
    "contains_pattern",
    "is_max_induced",
    "contains_max_induced",
    "longest_homogeneous_max_induced",
    "is_homogeneous",
    "check_sequence_witness",
    "has_left_property",
    "has_right_property",
    "has_unique_local_minimum",
    "enumerate_right_property_perms",
    "enumerate_left_property_perms",
    "gen_sk",
    "unique_maximum_property",
    "first_repeated_maximum_interval",
    "contains_separated_permutation",
    "separated_interlacing",
    "find_l_r_or_homogeneous",
]


def pattern_of(s) -> tuple[int, ...]:
    """Canonical pattern of ``s``: dense value ranks starting at 1."""
    s = tuple(s)
    ranks = {v: r for r, v in enumerate(sorted(set(s)), start=1)}
    return tuple(ranks[v] for v in s)


def is_permutation_pattern(p) -> bool:
    """True iff the pattern of ``p`` is a permutation of 1..len(p)."""
    p = pattern_of(p)
    return sorted(p) == list(range(1, len(p) + 1))


@lru_cache(maxsize=None)
def all_patterns(k: int) -> tuple[tuple[int, ...], ...]:
    """All distinct patterns of length ``k``, in lexicographic order.

    The count is the k-th Fubini (ordered Bell) number; ``k`` is capped at
    8 to keep the enumeration at desk scale.
    """
    if k < 0:
        raise ParameterError("pattern length must be non-negative")
    if k > 8:
        raise ParameterError(f"pattern enumeration capped at length 8, got {k}")
    # dense ranks, i.e. t is its own pattern; product runs in lexicographic
    # order, and at k = 0 yields the empty pattern once
    return tuple(
        t
        for t in itertools.product(range(1, k + 1), repeat=k)
        if len(set(t)) == max(t, default=0)
    )


def _as_indices(ix, n: int) -> tuple[int, ...]:
    ix = tuple(ix)
    if any(i < 1 or i > n for i in ix):
        raise ParameterError(f"indices must lie in 1..{n}: {ix}")
    if any(a >= b for a, b in zip(ix, ix[1:])):
        raise ParameterError(f"indices must be strictly increasing: {ix}")
    return ix


def subsequence(s, ix) -> tuple[int, ...]:
    """Values of ``s`` at the 1-based index set ``ix``."""
    s = tuple(s)
    return tuple(s[i - 1] for i in _as_indices(ix, len(s)))


def _order_matches(a: int, b: int, x: int, y: int) -> bool:
    return (a < b) == (x < y) and (a == b) == (x == y)


def contains_pattern(s, p):
    """Lexicographically least 1-based index set realizing pattern ``p``.

    Exhaustive depth-first search over index tuples with prefix pruning;
    returns ``None`` exactly when no subsequence of ``s`` has pattern ``p``.
    """
    s = tuple(s)
    p = pattern_of(p)
    if len(p) < 1:
        raise ParameterError("pattern must be non-empty")
    return _search_indices(s, p, max_induced=False, separated=False)


def is_max_induced(s, ix) -> bool:
    """Check the endpoint-maximum condition for every consecutive index pair."""
    s = tuple(s)
    ix = _as_indices(ix, len(s))
    for a, b in zip(ix, ix[1:]):
        if max(s[a - 1 : b]) > max(s[a - 1], s[b - 1]):
            return False
    return True


def contains_max_induced(s, p):
    """Lexicographically least max-induced index set with pattern ``p``.

    ``None`` means exhaustive non-existence.
    """
    s = tuple(s)
    p = pattern_of(p)
    if len(p) < 1:
        raise ParameterError("pattern must be non-empty")
    return _search_indices(s, p, max_induced=True, separated=False)


def contains_separated_permutation(s, sigma):
    """Lexicographically least separated index set realizing permutation ``sigma``."""
    s = tuple(s)
    sigma = pattern_of(sigma)
    if not is_permutation_pattern(sigma):
        raise ParameterError(f"{sigma} is not a permutation pattern")
    return _search_indices(s, sigma, max_induced=False, separated=True)


def _search_indices(s, p, *, max_induced: bool, separated: bool):
    n, t = len(s), len(p)
    if t > n:
        return None
    chosen: list[int] = []

    def compatible(i: int, gap: int) -> bool:
        d = len(chosen)
        for j, c in enumerate(chosen):
            if not _order_matches(s[c], s[i], p[j], p[d]):
                return False
        if chosen:
            c = chosen[-1]
            if separated and i <= c + 1:
                return False
            if max_induced and gap > max(s[c], s[i]):
                return False
        return True

    def dfs(start: int) -> bool:
        d = len(chosen)
        if d == t:
            return True
        # the loop starts right after chosen[-1]: gap = max(s[chosen[-1]..i])
        gap = s[start - 1] if chosen else 0
        for i in range(start, n - (t - d) + 1):
            if s[i] > gap:
                gap = s[i]
            if compatible(i, gap):
                chosen.append(i)
                if dfs(i + 1):
                    return True
                chosen.pop()
        return False

    if dfs(0):
        return tuple(i + 1 for i in chosen)
    return None


def is_homogeneous(s) -> bool:
    """Monotone check: non-decreasing or non-increasing."""
    s = tuple(s)
    pairs = list(zip(s, s[1:]))
    return all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)


def longest_homogeneous_max_induced(s):
    """Exact longest homogeneous max-induced subsequence of ``s``.

    Returns ``(length, index set)``; among all witnesses of maximal length
    the lexicographically least index set is returned, the non-decreasing
    one on a tie between the two directions.

    Both conditions constrain only consecutive chosen indices, so a witness
    is a chain of pairs ``i < j`` that may follow each other:

    * non-decreasing: ``j`` may follow ``i`` iff ``s[j] >= max(s[i..j])``,
      i.e. ``j`` is a weak left-to-right record of ``s[i:]``.  The records
      of ``s[i:]`` form a chain and every chain from ``i`` lies inside them,
      so the longest chain from ``i`` is ``1 +`` the one from the next
      ``j > i`` with ``s[j] >= s[i]``;
    * non-increasing: ``j`` may follow ``i`` iff ``s[i] >= max(s[i..j])``,
      i.e. ``i < j <`` the next strictly greater position.  A right-to-left
      monotone stack pops exactly the chain heads that tile that interval,
      each already the longest chain within its own tile.

    One stack pass per direction fills the chain lengths ``f`` and a greedy
    pass picks, at each step, the least position with the needed length
    that may follow the previous pick.  Time and memory are O(n).
    """
    s = tuple(s)
    n = len(s)
    if n == 0:
        raise ParameterError("sequence must be non-empty")
    best: tuple[int, tuple[int, ...]] | None = None

    for nondecreasing in (True, False):
        # f[i] = longest valid chain starting at i
        f = [1] * n
        stack: list[int] = []
        for i in range(n - 1, -1, -1):
            v = s[i]
            if nondecreasing:
                while stack and s[stack[-1]] < v:
                    stack.pop()
                if stack:
                    f[i] = f[stack[-1]] + 1
            else:
                tile = 0
                while stack and s[stack[-1]] <= v:
                    tile = max(tile, f[stack.pop()])
                f[i] = tile + 1
            stack.append(i)
        length = max(f)
        witness: list[int] = []
        prev = -1
        for need in range(length, 0, -1):
            top = s[prev] if prev >= 0 else 0  # max(s[prev..i]) as i runs
            for i in range(prev + 1, n):
                v = s[i]
                if v > top:
                    top = v
                if f[i] == need and (
                    prev < 0 or top <= (v if nondecreasing else s[prev])
                ):
                    witness.append(i)
                    prev = i
                    break
        cand = (length, tuple(i + 1 for i in witness))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


# ---------------------------------------------------------------------------
# Interval properties of patterns
# ---------------------------------------------------------------------------

def _interval_property_sweep(p, want_left: bool) -> bool:
    """O(n^2) interval check for permutation patterns (no ties)."""
    n = len(p)
    INF = float("inf")
    for a in range(n):
        mx = p[a]
        lmin, lmax = INF, -INF  # extremes of the part left of the maximum
        rmin, rmax = INF, -INF  # extremes of the part right of the maximum
        for b in range(a + 1, n):
            x = p[b]
            if x > mx:
                # everything seen so far moves to the left of the new maximum
                lmin = min(lmin, rmin, mx)
                lmax = max(lmax, rmax, mx)
                mx = x
                rmin, rmax = INF, -INF
            else:
                rmin = min(rmin, x)
                rmax = max(rmax, x)
            if want_left:
                if lmin < rmax:  # some left element below some right element
                    return False
            else:
                if lmax >= rmin:  # some left element not below some right element
                    return False
    return True


def _interval_property_general(p, want_left: bool) -> bool:
    """Definition-level check, valid for patterns with ties.

    When an interval attains its maximum more than once the condition is
    required at every maximising position.
    """
    n = len(p)
    for a in range(n):
        for b in range(a, n):
            seg = p[a : b + 1]
            mx = max(seg)
            for m, v in enumerate(seg):
                if v != mx:
                    continue
                left = seg[:m]
                right = seg[m + 1 :]
                if want_left:
                    if any(lv < rv for lv in left for rv in right):
                        return False
                else:
                    if any(lv >= rv for lv in left for rv in right):
                        return False
    return True


def has_left_property(p) -> bool:
    """Every interval: elements left of its maximum >= elements right of it."""
    p = pattern_of(p)
    if is_permutation_pattern(p):
        return _interval_property_sweep(p, want_left=True)
    return _interval_property_general(p, want_left=True)


def has_right_property(p) -> bool:
    """Every interval: elements left of its maximum < elements right of it."""
    p = pattern_of(p)
    if is_permutation_pattern(p):
        return _interval_property_sweep(p, want_left=False)
    return _interval_property_general(p, want_left=False)


def has_unique_local_minimum(p) -> bool:
    """True iff the permutation decreases up to some position, then increases."""
    p = pattern_of(p)
    if not is_permutation_pattern(p):
        raise ParameterError(f"{p} is not a permutation pattern")
    m = p.index(1)
    down = all(a > b for a, b in zip(p[: m + 1], p[1 : m + 1]))
    up = all(a < b for a, b in zip(p[m:], p[m + 1 :]))
    return down and up


_ENUM_CAP = 10


def _interval_property_perms(k: int, want_left: bool) -> tuple[tuple[int, ...], ...]:
    if k < 0:
        raise ParameterError("k must be non-negative")
    if k > _ENUM_CAP:
        raise ParameterError(f"enumeration capped at k={_ENUM_CAP}, got {k}")
    return tuple(
        p
        for p in itertools.permutations(range(1, k + 1))
        if _interval_property_sweep(p, want_left=want_left)
    )


def enumerate_right_property_perms(k: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of 1..k with the right property, lexicographically.

    The count equals the k-th Catalan number.  ``k`` is capped at desk
    scale (10).
    """
    return _interval_property_perms(k, want_left=False)


def enumerate_left_property_perms(k: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of 1..k with the left property, lexicographically."""
    return _interval_property_perms(k, want_left=True)


def gen_sk(k: int) -> tuple[int, ...]:
    """Doubling family of permutations avoiding a max-induced (2,3,1).

    ``gen_sk(k)`` is a permutation of 1..2^(k+1)-1 built recursively from
    (1,3,2): copy the previous level, put the new maximum in the middle, and
    append the previous level shifted up.  It contains no max-induced copy
    of (2,3,1) and no homogeneous max-induced subsequence longer than k+1.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    length = (1 << (k + 1)) - 1
    if length > MAX_DECLARED:
        raise ParameterError(
            f"k = {k} gives length {length}, above the limit {MAX_DECLARED}"
        )
    s = (1, 3, 2)
    for level in range(2, k + 1):
        half = 1 << level
        s = s + ((half << 1) - 1,) + tuple(a + half - 1 for a in s)
    return s


def first_repeated_maximum_interval(s):
    """A minimal interval whose maximum is attained twice, or ``None``.

    An interval attains its maximum twice iff two equal values occur with
    nothing larger between them, so a single monotonic-stack scan for the
    nearest previous greater-or-equal element decides the property in
    linear time.  Returns the 1-based inclusive pair ``(a, b)`` with the
    smallest ``b`` (then largest ``a``), or ``None`` when every interval of
    ``s`` attains its maximum exactly once.
    """
    s = tuple(s)
    stack: list[int] = []  # positions with strictly decreasing values
    for q, v in enumerate(s):
        while stack and s[stack[-1]] < v:
            stack.pop()
        if stack and s[stack[-1]] == v:
            return (stack[-1] + 1, q + 1)
        stack.append(q)
    return None


def unique_maximum_property(s) -> bool:
    """True iff every interval of ``s`` attains its maximum exactly once."""
    return first_repeated_maximum_interval(s) is None


# ---------------------------------------------------------------------------
# Separated subsequences via an interlacing chain of constant subsequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterlacingResult:
    """Separated realizations of every permutation of 1..k inside a sequence.

    ``levels[i]`` is the 1-based index set of the (i+1)-th constant
    subsequence of the chain and ``level_values[i]`` its constant value;
    values strictly increase along the chain and each level after the first
    sits inside the gaps of the previous one.  ``witnesses`` maps each
    permutation to a separated index set realizing it, drawn from the chain.
    """

    k: int
    levels: tuple[tuple[int, ...], ...]
    level_values: tuple[int, ...]
    witnesses: dict[tuple[int, ...], tuple[int, ...]]


def separated_interlacing(a, k: int) -> InterlacingResult:
    """Find every permutation of 1..k as a separated subsequence of ``a``.

    Requires the unique maximum property and ``d^(k+1) < n`` where ``d`` is
    the number of distinct values of ``a`` (checked with exact integer
    arithmetic).  The chain of constant subsequences is built by repeatedly
    taking the interval maxima between consecutive elements of the current
    level and keeping the most frequent value; level ``i`` is guaranteed
    (and checked) to have at least ``n^(1-i/(k+1))`` elements.
    """
    a = tuple(a)
    n = len(a)
    if k < 1:
        raise ParameterError("k must be at least 1")
    bad = first_repeated_maximum_interval(a)
    if bad is not None:
        raise PreconditionError(
            f"unique maximum property fails on interval {bad[0]}..{bad[1]}"
        )
    distinct = len(set(a))
    if distinct ** (k + 1) >= n:
        raise PreconditionError(
            f"cardinality bound fails: {distinct}^{k + 1} = "
            f"{distinct ** (k + 1)} >= {n} = sequence length"
        )

    # level 1: positions of the most frequent value (ties: smallest value)
    counts: dict[int, int] = {}
    for v in a:
        counts[v] = counts.get(v, 0) + 1
    v1 = min(counts, key=lambda v: (-counts[v], v))
    levels = [[i for i, v in enumerate(a) if v == v1]]
    values = [v1]

    for _ in range(k - 1):
        cur = levels[-1]
        # interval maxima between consecutive elements of the current level;
        # by the unique maximum property each is attained once, strictly
        # inside the gap, and strictly above the level's constant value
        maxima: list[int] = []
        for lo, hi in zip(cur, cur[1:]):
            pos = max(range(lo, hi + 1), key=lambda i: (a[i], -i))
            maxima.append(pos)
        if not maxima:
            raise PreconditionError("chain ran out of elements; sequence too short")
        counts = {}
        for i in maxima:
            counts[a[i]] = counts.get(a[i], 0) + 1
        vn = min(counts, key=lambda v: (-counts[v], v))
        levels.append([i for i in maxima if a[i] == vn])
        values.append(vn)

    for i, lev in enumerate(levels, start=1):
        # |level_i|^(k+1) >= n^(k+1-i), exact integer form of the bound
        if len(lev) ** (k + 1) < n ** (k + 1 - i):
            raise PreconditionError(
                f"chain level {i} has {len(lev)} elements, below the "
                f"guaranteed n^(1-{i}/{k + 1}) bound"
            )

    witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}
    for sigma in itertools.permutations(range(1, k + 1)):
        pools = [levels[r - 1] for r in sigma]
        pick = _separated_pick(pools)
        if pick is None:
            raise PreconditionError(
                f"no separated realization of {sigma} inside the chain"
            )
        witnesses[sigma] = tuple(i + 1 for i in pick)

    return InterlacingResult(
        k=k,
        levels=tuple(tuple(i + 1 for i in lev) for lev in levels),
        level_values=tuple(values),
        witnesses=witnesses,
    )


def _separated_pick(pools):
    """Lexicographically least increasing pick, one index per pool, gaps >= 2."""
    chosen: list[int] = []

    def dfs(d: int) -> bool:
        if d == len(pools):
            return True
        floor = chosen[-1] + 2 if chosen else 0
        for i in pools[d]:
            if i >= floor:
                chosen.append(i)
                if dfs(d + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if dfs(0) else None


# ---------------------------------------------------------------------------
# Extraction: a max-induced copy of L or of R, or a homogeneous max-induced
# subsequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """A tagged, independently checkable subsequence witness.

    ``kind`` is one of ``"L"``, ``"R"`` (max-induced copy of the respective
    permutation) or ``"homogeneous"``; ``indices`` is 1-based into the host
    sequence.
    """

    kind: str
    indices: tuple[int, ...]
    values: tuple[int, ...]
    pattern: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "indices": list(self.indices),
            "values": list(self.values),
            "pattern": list(self.pattern),
        }


def find_l_r_or_homogeneous(s, left_perm, right_perm) -> Witness:
    """Extract a max-induced copy of L or R, or a homogeneous witness.

    ``left_perm`` must be a non-empty permutation with the left property and
    ``right_perm`` one with the right property.  A size-1 ``L`` gives the
    copy at index 1; failing that, so does a size-1 ``R``.  Otherwise the
    witness is the exact longest homogeneous max-induced subsequence, the
    lexicographically least one of that length (see
    :func:`longest_homogeneous_max_induced`), found in O(n).

    The lemma asks a homogeneous witness for at least ``n**eps / 2``
    elements, ``eps = 4**-(|L|+|R|)``; that bound is below 1 for every
    ``n < 2**(4**(|L|+|R|))``, at least ``2**256``, so any homogeneous
    witness meets it at desk scale.  The lemma's recursive stage is not
    implemented.  The witness is re-checked before it is returned.
    """
    s = tuple(s)
    if not s:
        raise ParameterError("sequence must be non-empty")
    L = pattern_of(left_perm)
    R = pattern_of(right_perm)
    if not L or not R:
        raise ParameterError("pattern must be non-empty")
    if not is_permutation_pattern(L) or not has_left_property(L):
        raise PreconditionError(f"{L} is not a permutation with the left property")
    if not is_permutation_pattern(R) or not has_right_property(R):
        raise PreconditionError(f"{R} is not a permutation with the right property")

    if len(L) == 1:
        kind, indices = "L", (1,)
    elif len(R) == 1:
        kind, indices = "R", (1,)
    else:
        kind, indices = "homogeneous", longest_homogeneous_max_induced(s)[1]
    why = check_sequence_witness(s, kind, indices, L, R)
    if why is not None:
        raise RuntimeError(f"extraction built an invalid {kind} witness: {why}")

    values = tuple(s[i - 1] for i in indices)
    return Witness(
        kind=kind, indices=indices, values=values, pattern=pattern_of(values)
    )


def check_sequence_witness(s, kind, indices, left, right) -> str | None:
    """Why a tagged subsequence witness fails, or ``None`` when it holds.

    ``indices`` are 1-based into ``s`` and ``kind`` is ``"L"``, ``"R"`` or
    ``"homogeneous"``.  Checked in order: the indices are non-empty and in
    range, the subsequence is max-induced, and then either the tagged
    pattern (``left`` for ``L``, ``right`` for ``R``) is a permutation with
    the left or right property that the values realize, or the values are
    monotone.
    """
    s = tuple(s)
    if not indices:
        return "index set is empty"
    try:
        if not is_max_induced(s, indices):
            return "index set is not max-induced"
    except ParameterError as exc:
        return str(exc)
    values = subsequence(s, indices)
    if kind == "homogeneous":
        return None if is_homogeneous(values) else "witness is not homogeneous"
    if kind == "L":
        want, has_property, side = pattern_of(left), has_left_property, "left"
    elif kind == "R":
        want, has_property, side = pattern_of(right), has_right_property, "right"
    else:
        return f"unknown witness tag {kind!r}"
    if not is_permutation_pattern(want) or not has_property(want):
        return f"{want} is not a permutation with the {side} property"
    if pattern_of(values) != want:
        return f"pattern mismatch: {pattern_of(values)} != {want}"
    return None
