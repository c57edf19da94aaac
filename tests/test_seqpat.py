"""Sequence and pattern operations against independent brute-force oracles."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import seqpat as sp
from ramseykit.errors import MAX_DECLARED, ParameterError, PreconditionError


# --- independent oracles (definition-level, no shared code paths) ----------

def oracle_pattern(s):
    return tuple(sorted(set(s)).index(v) + 1 for v in s)


def oracle_is_max_induced(s, ix):
    for a, b in zip(ix, ix[1:]):
        block = s[a - 1 : b]
        if max(block) not in (s[a - 1], s[b - 1]):
            return False
    return True


def oracle_find(s, p, *, max_induced=False, separated=False):
    """Least index tuple realizing pattern p, by full enumeration."""
    n, t = len(s), len(p)
    for ix in itertools.combinations(range(1, n + 1), t):
        if separated and any(b <= a + 1 for a, b in zip(ix, ix[1:])):
            continue
        if max_induced and not oracle_is_max_induced(s, ix):
            continue
        if oracle_pattern([s[i - 1] for i in ix]) == tuple(p):
            return ix
    return None


def oracle_longest_homogeneous_max_induced(s):
    best = 0
    n = len(s)
    for t in range(n, 0, -1):
        for ix in itertools.combinations(range(1, n + 1), t):
            vals = [s[i - 1] for i in ix]
            mono = all(a <= b for a, b in zip(vals, vals[1:])) or all(
                a >= b for a, b in zip(vals, vals[1:])
            )
            if mono and oracle_is_max_induced(s, ix):
                return t
    return best


def reference_longest_homogeneous_dp(s):
    """The quadratic longest-chain DP over "last chosen index" that the
    library ran before its linear stack pass, as a differential reference:
    the same ``(length, lexicographically least witness)`` is expected."""
    s = tuple(s)
    n = len(s)
    rows = {}

    def gap_max(a, b):  # max(s[a..b]) from one lazily filled row per a
        if a not in rows:
            rows[a] = list(itertools.accumulate(s[a:], max))
        return rows[a][b - a]

    best = None
    for nondecreasing in (True, False):

        def chainable(i, j):
            if nondecreasing:
                return s[i] <= s[j] and gap_max(i, j) <= s[j]
            return s[i] >= s[j] and gap_max(i, j) <= s[i]

        f = [1] * n
        for i in range(n - 2, -1, -1):
            fi = 1
            for j in range(i + 1, n):
                if f[j] + 1 > fi and chainable(i, j):
                    fi = f[j] + 1
            f[i] = fi
        length = max(f)
        witness = []
        need = length
        prev = -1
        while need:
            for i in range(prev + 1, n):
                if f[i] == need and (prev < 0 or chainable(prev, i)):
                    witness.append(i)
                    prev = i
                    break
            need -= 1
        cand = (length, tuple(i + 1 for i in witness))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


def catalan(k):
    c = [1] + [0] * k
    for i in range(1, k + 1):
        c[i] = sum(c[j] * c[i - 1 - j] for j in range(i))
    return c[k]


# --- canonical patterns -----------------------------------------------------

def test_pattern_of_examples():
    assert sp.pattern_of((5, 9, 2)) == (2, 3, 1)
    assert sp.pattern_of((4, 4, 7)) == (1, 1, 2)
    assert sp.pattern_of((3, 1, 2)) == (3, 1, 2)


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=10))
def test_pattern_idempotent_and_matches_oracle(s):
    p = sp.pattern_of(s)
    assert p == oracle_pattern(s)
    assert sp.pattern_of(p) == p


def test_all_patterns_counts():
    # ordered Bell numbers
    for k, want in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
        assert len(sp.all_patterns(k)) == want


def test_all_patterns_matches_sorted_canonical_filter():
    # the enumeration that re-canonicalised each dense tuple and sorted
    def old_all_patterns(k):
        if k == 0:
            return ((),)
        found = set()
        for t in itertools.product(range(1, k + 1), repeat=k):
            if len(set(t)) == max(t):
                if sp.pattern_of(t) == t:
                    found.add(t)
        return tuple(sorted(found))

    for k in range(0, 8):
        assert sp.all_patterns(k) == old_all_patterns(k), k


# --- containment ------------------------------------------------------------

def test_contains_pattern_examples():
    assert sp.contains_pattern((2, 3, 1), (2, 3, 1)) == (1, 2, 3)
    assert sp.contains_pattern((1, 2, 3), (2, 1)) is None
    assert sp.contains_pattern((1, 3, 2, 4), (2, 3, 1)) is None


def test_max_induced_examples():
    assert not sp.is_max_induced((1, 3, 2), (1, 3))
    assert sp.is_max_induced((1, 3, 2), (1, 2))
    assert sp.is_max_induced((5, 1, 4), (1, 3))
    assert sp.contains_max_induced((1, 3, 2), (2, 3, 1)) is None
    assert sp.contains_max_induced((2, 3, 1), (2, 3, 1)) == (1, 2, 3)


def test_contains_agrees_with_enumeration_exhaustively():
    patterns = [(1, 2), (2, 1), (2, 3, 1), (1, 3, 2), (1, 1), (2, 1, 2)]
    for s in itertools.product(range(1, 4), repeat=6):
        for p in patterns:
            assert sp.contains_pattern(s, p) == oracle_find(s, p)
            assert sp.contains_max_induced(s, p) == oracle_find(
                s, p, max_induced=True
            )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=10),
    st.sampled_from([(1, 2), (2, 1), (2, 3, 1), (1, 3, 2), (2, 1, 3), (3, 1, 2)]),
)
def test_contains_agrees_with_enumeration_random(s, p):
    s = tuple(s)
    assert sp.contains_max_induced(s, p) == oracle_find(s, p, max_induced=True)
    assert sp.contains_separated_permutation(s, p) == oracle_find(
        s, p, separated=True
    )


def test_separated_examples():
    assert sp.contains_separated_permutation((1, 9, 2, 8, 3), (1, 2)) == (1, 3)
    assert sp.contains_separated_permutation((1, 2), (1, 2)) is None
    assert sp.contains_separated_permutation((3, 0, 1, 0, 2), (2, 1)) == (1, 3)


# --- longest homogeneous max-induced ----------------------------------------

def test_longest_homogeneous_examples():
    assert sp.longest_homogeneous_max_induced((5, 5, 5)) == (3, (1, 2, 3))
    assert sp.longest_homogeneous_max_induced((1, 2, 3, 4)) == (4, (1, 2, 3, 4))
    length, _ = sp.longest_homogeneous_max_induced(sp.gen_sk(2))
    assert length == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=9))
def test_longest_homogeneous_matches_subset_enumeration(s):
    s = tuple(s)
    length, witness = sp.longest_homogeneous_max_induced(s)
    assert length == oracle_longest_homogeneous_max_induced(s)
    vals = sp.subsequence(s, witness)
    assert sp.is_homogeneous(vals)
    assert sp.is_max_induced(s, witness)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
def test_longest_homogeneous_matches_quadratic_dp_with_ties(s):
    s = tuple(s)
    assert sp.longest_homogeneous_max_induced(s) == reference_longest_homogeneous_dp(s)


def _ruler(start, length):
    return [(i ^ (i + 1)).bit_length() for i in range(start, start + length)]


def _vertex_deltas(rng, width, count):
    vs = sorted(rng.sample(range(1 << width), count))
    return [(a ^ b).bit_length() for a, b in zip(vs, vs[1:])]


def test_longest_homogeneous_matches_quadratic_dp_on_structured_sequences():
    rng = random.Random(10)
    seqs = [sp.gen_sk(k) for k in range(1, 8)]
    seqs += [_ruler(rng.randrange(1 << 20), 1000), _vertex_deltas(rng, 14, 1001)]
    for s in seqs:
        assert sp.longest_homogeneous_max_induced(s) == reference_longest_homogeneous_dp(s)


def test_longest_homogeneous_witness_on_a_long_sequence():
    rng = random.Random(11)
    s = [rng.randrange(1000) for _ in range(10**5)]
    length, witness = sp.longest_homogeneous_max_induced(s)
    assert length == len(witness) >= 2
    assert sp.check_sequence_witness(s, "homogeneous", witness, (2, 1), (1, 2)) is None


# --- interval properties ----------------------------------------------------

def test_property_examples():
    assert sp.has_left_property((2, 3, 1)) and not sp.has_right_property((2, 3, 1))
    for k in range(1, 6):
        inc = tuple(range(1, k + 1))
        assert sp.has_left_property(inc) and sp.has_right_property(inc)
    assert not sp.has_left_property((1, 3, 2)) and sp.has_right_property((1, 3, 2))


def test_property_sweep_matches_definition():
    for k in range(1, 7):
        for p in itertools.permutations(range(1, k + 1)):
            assert sp._interval_property_sweep(p, True) == \
                sp._interval_property_general(p, True)
            assert sp._interval_property_sweep(p, False) == \
                sp._interval_property_general(p, False)


def test_unique_local_minimum():
    assert sp.has_unique_local_minimum((2, 1, 3))
    assert not sp.has_unique_local_minimum((1, 3, 2))
    assert sp.has_unique_local_minimum((3, 2, 1))
    with pytest.raises(ParameterError):
        sp.has_unique_local_minimum((1, 1, 2))


def test_catalan_counts_and_complement():
    for k in range(0, 9):
        got = sp.enumerate_right_property_perms(k)
        assert len(got) == catalan(k), k
        assert len(sp.enumerate_left_property_perms(k)) == catalan(k)
    rp3 = set(sp.enumerate_right_property_perms(3))
    assert set(itertools.permutations((1, 2, 3))) - rp3 == {(2, 3, 1)}


def test_property_enumerations_match_separate_filters():
    def old_enumeration(k, want_left):
        return tuple(
            p
            for p in itertools.permutations(range(1, k + 1))
            if sp._interval_property_sweep(p, want_left=want_left)
        )

    for k in range(0, 9):
        assert sp.enumerate_left_property_perms(k) == old_enumeration(k, True), k
        assert sp.enumerate_right_property_perms(k) == old_enumeration(k, False), k
    for enum in (sp.enumerate_left_property_perms, sp.enumerate_right_property_perms):
        for bad in (-1, 11):
            with pytest.raises(ParameterError):
                enum(bad)


def test_left_right_by_reversal():
    for k in range(1, 7):
        lefts = set(sp.enumerate_left_property_perms(k))
        rights = set(sp.enumerate_right_property_perms(k))
        assert lefts == {tuple(reversed(p)) for p in rights}


def test_both_properties_count_is_power_of_two():
    for k in range(1, 9):
        both = [
            p
            for p in itertools.permutations(range(1, k + 1))
            if sp.has_left_property(p) and sp.has_right_property(p)
        ]
        assert len(both) == 2 ** (k - 1)
        for p in both:
            assert sp.has_unique_local_minimum(p)


def test_no_right_property_implies_231():
    for k in range(1, 8):
        for p in itertools.permutations(range(1, k + 1)):
            if not sp.has_right_property(p):
                assert sp.contains_pattern(p, (2, 3, 1)) is not None


# --- the doubling family ----------------------------------------------------

def test_gen_sk_examples():
    assert sp.gen_sk(1) == (1, 3, 2)
    assert sp.gen_sk(2) == (1, 3, 2, 7, 4, 6, 5)
    for k in range(1, 6):
        g = sp.gen_sk(k)
        assert len(g) == 2 ** (k + 1) - 1
        assert sorted(g) == list(range(1, 2 ** (k + 1)))
    with pytest.raises(ParameterError):
        sp.gen_sk(0)
    # the longest family member within the declared-size limit, and the next
    assert len(sp.gen_sk(15)) == 2**16 - 1 <= MAX_DECLARED
    too_long = f"length 131071, above the limit {MAX_DECLARED}"
    with pytest.raises(ParameterError, match=too_long):
        sp.gen_sk(16)


def test_gen_sk_avoidance():
    for k in range(1, 6):
        g = sp.gen_sk(k)
        assert sp.contains_max_induced(g, (2, 3, 1)) is None
        length, _ = sp.longest_homogeneous_max_induced(g)
        assert length <= k + 1


def test_gen_sk_max_induced_patterns_have_right_property():
    g = sp.gen_sk(3)
    for p in itertools.permutations(range(1, 4)):
        if sp.contains_max_induced(g, p) is not None:
            assert sp.has_right_property(p)


# --- unique maximum property ------------------------------------------------

def test_unique_maximum_examples():
    assert sp.unique_maximum_property((1, 2, 1))
    assert not sp.unique_maximum_property((1, 1))
    assert sp.first_repeated_maximum_interval((1, 1)) == (1, 2)


@given(st.lists(st.integers(min_value=0, max_value=4), max_size=12))
def test_unique_maximum_matches_quadratic_oracle(s):
    def slow(seq):
        for a in range(len(seq)):
            mx = seq[a]
            for b in range(a + 1, len(seq)):
                if seq[b] > mx:
                    mx = seq[b]
                elif seq[b] == mx:
                    return False
        return True

    assert sp.unique_maximum_property(s) == slow(s)
    w = sp.first_repeated_maximum_interval(s)
    if w is not None:
        a, b = w
        block = s[a - 1 : b]
        assert block.count(max(block)) >= 2


# --- separated interlacing ---------------------------------------------------

def ruler(length):
    return tuple((i ^ (i + 1)).bit_length() for i in range(length))


def test_interlacing_on_the_full_ruler():
    a = ruler(4095)
    res = sp.separated_interlacing(a, 2)
    assert set(res.witnesses) == set(itertools.permutations((1, 2)))
    n = len(a)
    for i, lev in enumerate(res.levels, start=1):
        assert len(lev) ** 3 >= n ** (3 - i)
    for sigma, ix in res.witnesses.items():
        assert all(b > x + 1 for x, b in zip(ix, ix[1:]))
        assert sp.pattern_of(sp.subsequence(a, ix)) == sigma
    assert res.level_values == (1, 2)


def test_interlacing_guards():
    with pytest.raises(PreconditionError):
        sp.separated_interlacing((1, 2, 1), 1)  # cardinality bound fails
    with pytest.raises(PreconditionError):
        sp.separated_interlacing((1, 1, 2, 3, 4, 5, 6, 7), 1)  # repeated maximum


def test_interlacing_values_strictly_increase():
    a = ruler(2**17 - 1)
    res = sp.separated_interlacing(a, 3)
    assert list(res.level_values) == sorted(set(res.level_values))
    for sigma, ix in res.witnesses.items():
        assert sp.pattern_of(sp.subsequence(a, ix)) == sigma


# --- the extraction operation -----------------------------------------------

def revalidates(s, w, L, R):
    if not sp.is_max_induced(s, w.indices):
        return False
    vals = sp.subsequence(s, w.indices)
    if tuple(vals) != w.values:
        return False
    if w.kind == "L":
        return sp.pattern_of(vals) == sp.pattern_of(L)
    if w.kind == "R":
        return sp.pattern_of(vals) == sp.pattern_of(R)
    return sp.is_homogeneous(vals)


def test_extraction_trivial_cases():
    w = sp.find_l_r_or_homogeneous([7] * 10, (2, 1), (1, 2))
    assert w.kind == "homogeneous" and len(w.indices) == 10
    w = sp.find_l_r_or_homogeneous(range(1, 25), (2, 1), (1, 2))
    assert w.kind == "homogeneous" and len(w.indices) == 24
    # the exact longest witness, whatever |L| + |R|
    w = sp.find_l_r_or_homogeneous(range(1, 251), (2, 3, 1), (1, 2))
    assert (w.kind, w.indices) == ("homogeneous", tuple(range(1, 251)))
    w = sp.find_l_r_or_homogeneous(range(1, 61), (2, 3, 1), (1, 2))
    assert (w.kind, w.indices) == ("homogeneous", tuple(range(1, 61)))
    w = sp.find_l_r_or_homogeneous(range(1, 251), (2, 1), (1, 2))
    assert (w.kind, w.indices) == ("homogeneous", tuple(range(1, 251)))
    # a size-1 R when L is larger
    w = sp.find_l_r_or_homogeneous((3, 1, 2), (2, 1), (1,))
    assert (w.kind, w.indices) == ("R", (1,))


def test_extraction_on_the_doubling_family():
    s = sp.gen_sk(3)
    w = sp.find_l_r_or_homogeneous(s, (2, 3, 1), (1, 3, 2))
    assert w.kind in ("L", "homogeneous")
    assert revalidates(s, w, (2, 3, 1), (1, 3, 2))


def test_extraction_rejects_bad_properties(monkeypatch):
    with pytest.raises(PreconditionError):
        sp.find_l_r_or_homogeneous((1, 2, 3), (1, 3, 2), (1, 2))  # not left
    with pytest.raises(PreconditionError):
        sp.find_l_r_or_homogeneous((1, 2, 3), (2, 1), (2, 3, 1))  # not right
    for left, right in [((), (1, 2)), ((2, 1), ())]:
        with pytest.raises(ParameterError, match="pattern must be non-empty"):
            sp.find_l_r_or_homogeneous(range(20), left, right)
    # a witness that failed its re-check is raised, never returned
    monkeypatch.setattr(sp, "longest_homogeneous_max_induced", lambda s: (3, (1, 2, 3)))
    with pytest.raises(RuntimeError, match="not homogeneous"):
        sp.find_l_r_or_homogeneous((1, 3, 2, 4, 5), (2, 3, 1), (1, 2))


LEFTS = [L for n in (2, 3, 4) for L in sp.enumerate_left_property_perms(n)]
RIGHTS = [R for n in (2, 3, 4) for R in sp.enumerate_right_property_perms(n)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
    st.sampled_from(LEFTS),
    st.sampled_from(RIGHTS),
)
def test_extraction_is_the_exact_longest_homogeneous_witness(s, L, R):
    w = sp.find_l_r_or_homogeneous(s, L, R)
    assert w.kind == "homogeneous"
    assert w.indices == sp.longest_homogeneous_max_induced(s)[1]


def test_extraction_random_revalidation():
    rng = random.Random(11)
    lefts = {n: sp.enumerate_left_property_perms(n) for n in (2, 3, 4)}
    rights = {n: sp.enumerate_right_property_perms(n) for n in (2, 3, 4)}
    for _ in range(500):
        n = rng.randint(1, 60)
        s = tuple(rng.randint(0, 7) for _ in range(n))
        L = rng.choice(lefts[rng.randint(2, 4)])
        R = rng.choice(rights[rng.randint(2, 4)])
        w = sp.find_l_r_or_homogeneous(s, L, R)
        assert revalidates(s, w, L, R)
        assert sp.check_sequence_witness(s, w.kind, w.indices, L, R) is None


def test_check_sequence_witness_failures():
    s = (1, 3, 2, 5, 4)
    L, R = (2, 1), (1, 2)
    assert sp.check_sequence_witness(s, "L", (2, 3), L, R) is None
    assert sp.check_sequence_witness(s, "R", (1, 2), L, R) is None
    assert sp.check_sequence_witness(s, "homogeneous", (2, 4), L, R) is None
    cases = [
        ("L", (), L, "empty"),
        ("L", (5, 6), L, "1..5"),
        ("L", (3, 2), L, "strictly increasing"),
        ("R", (1, 3), R, "not max-induced"),
        ("homogeneous", (2, 3, 4), L, "not homogeneous"),
        ("X", (1, 2), L, "unknown witness tag"),
        # 1 3 2 is realized max-induced at 1 2 3, but lacks the left property
        ("L", (1, 2, 3), (1, 3, 2), "left property"),
        ("L", (1, 2), L, "pattern mismatch"),
    ]
    for kind, ix, left, needle in cases:
        assert needle in sp.check_sequence_witness(s, kind, ix, left, R)
