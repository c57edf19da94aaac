"""Rainbow verification, random search, and the exact existence oracle."""

import gc
import itertools
import math
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from ramseykit import rainbow as rb
from ramseykit import stepup as su
from ramseykit.errors import BudgetExceededError, ParameterError
from ramseykit.hedgehog import LiftedColouring


def pentagon():
    table = {}
    for i, j in itertools.combinations(range(1, 6), 2):
        ring = (j - i) % 5 in (1, 4)
        table[(i, j)] = ("base", 1) if ring else ("base", 2)
    return su.TabulatedColouring(2, 5, table, [("base", 1), ("base", 2)])


def mono(k, n):
    return su.TabulatedColouring(
        k,
        n,
        {e: ("base", 1) for e in itertools.combinations(range(1, n + 1), k)},
        [("base", 1)],
    )


def test_pentagon_is_3_2_rainbow():
    rep = rb.verify_rainbow(pentagon(), 3, 2)
    assert rep.passed and rep.coverage == "exhaustive"
    assert rep.sets_checked == 10
    assert rep.histogram == {2: 10}


def test_single_colour_fails_with_least_witness():
    rep = rb.verify_rainbow(mono(2, 5), 3, 2)
    assert not rep.passed
    assert rep.violating_set == (1, 2, 3)
    assert len(rep.violating_colours) == 1


def test_two_colour_rainbow_means_no_monochromatic_set():
    # spanning >= 2 of 2 colours is exactly monochromatic-freeness
    import random

    rng = random.Random(5)
    for trial in range(20):
        c = su.random_colouring(2, 6, 2, seed=trial)
        rep = rb.verify_rainbow(c, 3, 2)
        has_mono = any(
            len({c.colour(e) for e in itertools.combinations(ts, 2)}) == 1
            for ts in itertools.combinations(range(1, 7), 3)
        )
        assert rep.passed == (not has_mono)


def test_verify_guards():
    with pytest.raises(ParameterError):
        rb.verify_rainbow(pentagon(), 1, 2)
    with pytest.raises(BudgetExceededError):
        rb.verify_rainbow(mono(2, 30), 15, 2, budget=10)
    for workers in (0, -1):
        with pytest.raises(ParameterError, match="workers"):
            rb.verify_rainbow(pentagon(), 3, 2, workers=workers)


def test_sampled_mode_is_labelled_and_reproducible():
    rep1 = rb.verify_rainbow(pentagon(), 3, 2, mode="sampled", trials=40, seed=9)
    rep2 = rb.verify_rainbow(pentagon(), 3, 2, mode="sampled", trials=40, seed=9)
    assert rep1 == rep2
    assert rep1.coverage == "sampled" and rep1.seed == 9


def test_parallel_verify_matches_serial():
    c = su.random_colouring(3, 10, 3, seed=7)
    serial = rb.verify_rainbow(c, 6, 3)
    assert serial.passed
    assert rb.verify_rainbow(c, 6, 3, workers=2) == serial
    # a failing run stops at the least violation: same histogram and count
    bad = su.random_colouring(2, 9, 2, seed=3)
    serial = rb.verify_rainbow(bad, 4, 2)
    assert not serial.passed and serial.sets_checked < math.comb(9, 4)
    assert rb.verify_rainbow(bad, 4, 2, workers=2) == serial


def reference_scan(c, t, p):
    """Exhaustive scan edge by edge through ``Colouring.colour``: the
    least violating set with its sorted colours (or ``None``, ()), the span
    histogram up to it, and the number of sets checked."""
    hist, count = {}, 0
    for ts in itertools.combinations(range(1, c.num_vertices + 1), t):
        seen = {c.colour(e) for e in itertools.combinations(ts, c.uniformity)}
        count += 1
        hist[len(seen)] = hist.get(len(seen), 0) + 1
        if len(seen) < p:
            return ts, tuple(sorted(seen)), hist, count
    return None, (), hist, count


def stepped(k, n, q, seed, steps):
    return su.tower_compose(su.random_colouring(k, n, q, seed), steps)


@pytest.mark.parametrize("schedule, t, p, passed", [
    ((3, 4, 3, 11, [("up1", 3, 5)]), 6, 3, True),     # 16 vertices
    ((3, 4, 3, 12, [("up1", 3, 5)]), 7, 4, False),
    ((3, 4, 3, 11, [("up1b", 3, 5)]), 6, 2, False),
    ((2, 4, 3, 1, [("up2", 2, 2)]), 6, 2, False),
    ((2, 4, 3, 1, [("up2", 2, 2)]), 6, 1, True),
    ((3, 5, 3, 8, [("up2", 3, 4)]), 8, 3, False),     # 32 vertices
    ((3, 6, 3, 42, [("up1", 3, 5)]), 5, 3, False),    # 64 vertices
])
def test_stepped_verify_matches_edge_by_edge_scan(schedule, t, p, passed):
    c = stepped(*schedule)
    rep = rb.verify_rainbow(c, t, p)
    violating_set, colours, hist, count = reference_scan(c, t, p)
    assert rep.passed == passed == (violating_set is None)
    assert (rep.violating_set, rep.violating_colours) == (violating_set, colours)
    assert (rep.histogram, rep.sets_checked) == (hist, count)
    if not passed:
        assert count < math.comb(c.num_vertices, t)  # a partial histogram


def test_stepped_verify_budget_counts_sets():
    # a stepped span is one memo lookup per set, so the exhaustive budget
    # counts the C(16,6) = 8,008 sets, not their 15 edges each
    c = stepped(3, 4, 3, 11, [("up1", 3, 5)])
    assert rb.verify_rainbow(c, 6, 3, budget=10_000).sets_checked == 8008
    with pytest.raises(BudgetExceededError, match="8008 set lookups"):
        rb.verify_rainbow(c, 6, 3, budget=8007)
    # other kinds still charge every edge of every set
    with pytest.raises(BudgetExceededError, match="120120 edge evaluations"):
        rb.verify_rainbow(su.random_colouring(4, 16, 3, seed=0), 6, 3, budget=10_000)


def test_sampled_verify_charges_budget_before_drawing():
    # trials times span_cost: C(4, 2) = 6 edge evaluations per 4-set of a
    # tabulated colouring, one set lookup per 7-set of a stepped one
    c = su.random_colouring(2, 9, 2, seed=3)
    rep = rb.verify_rainbow(c, 4, 1, mode="sampled", trials=50, seed=1, budget=300)
    assert rep.sets_checked == 50
    with pytest.raises(BudgetExceededError, match="300 edge evaluations, budget is 299"):
        rb.verify_rainbow(c, 4, 1, mode="sampled", trials=50, seed=1, budget=299)
    up1 = stepped(3, 4, 3, 11, [("up1", 3, 5)])
    assert rb.verify_rainbow(up1, 7, 1, mode="sampled", trials=200, budget=200).passed
    with pytest.raises(BudgetExceededError, match="200 set lookups"):
        rb.verify_rainbow(up1, 7, 1, mode="sampled", trials=200, budget=199)
    with pytest.raises(BudgetExceededError):
        rb.verify_rainbow(c, 4, 1, mode="sampled", trials=10**12, budget=10)


def test_stepped_parallel_verify_matches_serial():
    for seed, t, p in ((11, 6, 3), (12, 7, 4)):
        c = stepped(3, 4, 3, seed, [("up1", 3, 5)])
        serial = rb.verify_rainbow(c, t, p)
        fresh = stepped(3, 4, 3, seed, [("up1", 3, 5)])
        assert rb.verify_rainbow(fresh, t, p, workers=2) == serial


@pytest.mark.parametrize("make, t, p", [
    (lambda: su.random_colouring(3, 10, 3, seed=7), 6, 3),
    (lambda: su.random_colouring(2, 9, 2, seed=3), 4, 2),
    (lambda: stepped(3, 4, 3, 11, [("up1", 3, 5)]), 6, 3),
    (lambda: stepped(3, 4, 3, 12, [("up1", 3, 5)]), 7, 4),
    (lambda: LiftedColouring(stepped(2, 4, 6, 1, [("up2", 2, 2)]), 5), 7, 1),
    (lambda: LiftedColouring(stepped(2, 4, 6, 1, [("up2", 2, 2)]), 5), 7, 4),
], ids=["tabulated", "tabulated-fails", "up1", "up1-fails", "lifted", "lifted-fails"])
def test_parallel_verify_after_a_serial_run_matches_serial(make, t, p):
    # the workers receive the colouring pickled with its warm memos, whose
    # fills must come back bound to the copy; exhaustive verify reads the
    # palette codes of a non-stepped colouring, so span warms the memo
    c = make()
    serial = rb.verify_rainbow(c, t, p)
    c.span(tuple(range(1, t + 1)))
    assert c._colour_memo
    copy = pickle.loads(pickle.dumps(c))
    assert dict(copy._colour_memo) == dict(c._colour_memo)
    assert copy._colour_memo.owner() is copy
    assert rb.verify_rainbow(copy, t, p) == serial
    assert rb.verify_rainbow(c, t, p, workers=2) == serial
    # no reference cycle runs through the memos: a dropped colouring is
    # freed at once, without the cycle collector
    gc.disable()
    try:
        gone = weakref.ref(c)
        del c, copy
        assert gone() is None
    finally:
        gc.enable()


class RecordingTable(su.TabulatedColouring):
    """The codes of ``base``, recording every edge it colours."""

    def __init__(self, base):
        super().__init__(base.uniformity, base.num_vertices, None, base.palette(),
                         codes=base.codes)
        self.coloured = []

    def _colour(self, e):
        self.coloured.append(e)
        return super()._colour(e)


def test_sampled_verify_colours_each_edge_it_reads_once():
    # 2,000 sampled 8-sets of C(182, 3) = 988,260 edges colour only the
    # edges inside them, each once, and build no table of the rest
    base = su.random_colouring(3, 182, 4, 1)
    c = RecordingTable(base)
    rep = rb.verify_rainbow(c, 8, 2, mode="sampled", trials=2000, seed=3)
    assert rep == rb.verify_rainbow(base, 8, 2, mode="sampled", trials=2000, seed=3)
    rng = random.Random(3)
    read = {
        e
        for _ in range(2000)
        for e in itertools.combinations(rb._sample_set(rng, 182, 8), 3)
    }
    assert len(c.coloured) == len(set(c.coloured)) == len(read)
    assert len(read) <= 2000 * math.comb(8, 3)
    assert set(c.coloured) == read


class CountingLift(LiftedColouring):
    calls = 0

    def _colour(self, e):
        self.calls += 1
        return super()._colour(e)


def test_lifted_verify_colours_each_edge_once():
    # the scan that memoized edge colours per verify call coloured each
    # distinct edge it met once; the per-instance memo does no more
    base = stepped(2, 4, 6, 1, [("up2", 2, 2)])
    c = CountingLift(base, 5)
    rep = rb.verify_rainbow(c, 7, 1)
    assert rep.passed and c.calls == math.comb(16, 5)
    assert rb.verify_rainbow(c, 7, 1) == rep and c.calls == math.comb(16, 5)
    c = CountingLift(base, 5)
    rep = rb.verify_rainbow(c, 7, 1, mode="sampled", trials=50, seed=3)
    rng = random.Random(3)
    edges = {
        e
        for _ in range(50)
        for e in itertools.combinations(rb._sample_set(rng, 16, 7), 5)
    }
    assert rep.passed and c.calls == len(edges)


def per_set_report(c, t, p):
    """The report of a literal ``_scan`` over every t-set of ``c`` through
    ``span``, in lexicographic order."""
    sets = itertools.combinations(range(1, c.num_vertices + 1), t)
    violation, hist, checked = rb._scan(c, sets, p)
    violating_set, violating_colours = violation or (None, ())
    return rb.RainbowReport(
        passed=violation is None, t=t, p=p, coverage="exhaustive",
        violating_set=violating_set, violating_colours=violating_colours,
        histogram=hist, sets_checked=checked,
    )


def coded_table(k, n, q, unused, seed):
    """A tabulated colouring that uses at most q colours of a palette of
    q + unused, listed in a shuffled order."""
    rng = random.Random(seed)
    colours = [("base", i) for i in range(1, q + unused + 1)]
    rng.shuffle(colours)
    codes = bytes(rng.randrange(q) for _ in range(math.comb(n, k)))
    return su.TabulatedColouring(k, n, None, colours, codes=codes)


def assert_prefix_scan_matches_per_set_scan(c, t, p, workers=1):
    rep = rb.verify_rainbow(c, t, p, workers=workers)
    ref = per_set_report(c, t, p)
    assert rep == ref
    assert list(rep.histogram.items()) == list(ref.histogram.items())


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 4),
    size=st.integers(0, 8),
    q=st.integers(1, 5),
    unused=st.integers(0, 3),
    depth=st.integers(0, 9),
    p=st.integers(1, 7),
    seed=st.integers(0, 10**6),
)
@example(k=1, size=0, q=1, unused=0, depth=0, p=1, seed=0)   # t = k = n
@example(k=4, size=7, q=3, unused=0, depth=0, p=1, seed=1)   # t = k
@example(k=3, size=6, q=4, unused=0, depth=6, p=4, seed=2)   # t = n
@example(k=2, size=5, q=3, unused=0, depth=6, p=2, seed=3)   # t > n
@example(k=2, size=8, q=2, unused=0, depth=3, p=3, seed=4)   # p > q
@example(k=2, size=8, q=2, unused=3, depth=3, p=2, seed=5)   # unused colours
def test_prefix_scan_matches_per_set_scan(k, size, q, unused, depth, p, seed):
    # every report field of the exhaustive prefix scan against a literal
    # per-set scan, on tabulated colourings passing and failing, including
    # palettes that declare colours no edge uses, so that saturation is at
    # the colours in use, not at the palette size
    n = k + size
    t = min(k + depth, n + 1)
    assert_prefix_scan_matches_per_set_scan(coded_table(k, n, q, unused, seed), t, p)


@settings(max_examples=12, deadline=None)
@given(
    s=st.integers(1, 2),
    n=st.integers(5, 9),
    q=st.integers(3, 5),
    depth=st.integers(0, 4),
    p=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    workers=st.sampled_from([1, 2]),
)
def test_prefix_scan_matches_per_set_scan_on_lifted_colourings(s, n, q, depth, p,
                                                               seed, workers):
    # set colours listed by one edge_colours() pass, serial and parallel
    c = LiftedColouring(su.random_colouring(s, n, q, seed), s + 1)
    t = min(s + 1 + depth, n + 1)
    assert_prefix_scan_matches_per_set_scan(c, t, p, workers=workers)


def test_prefix_scan_matches_per_set_scan_in_parallel():
    for c, t, p in ((coded_table(3, 10, 3, 2, 7), 6, 3),
                    (coded_table(2, 9, 2, 0, 3), 4, 2),
                    (coded_table(2, 12, 4, 1, 5), 5, 2)):
        assert_prefix_scan_matches_per_set_scan(c, t, p, workers=2)


def test_t_beyond_n():
    rep = rb.verify_rainbow(pentagon(), 7, 2)
    assert rep.passed and rep.sets_checked == 0 and rep.histogram == {}
    with pytest.raises(ParameterError, match="t = 7 exceeds n = 5"):
        rb.verify_rainbow(pentagon(), 7, 2, mode="sampled", trials=5)
    rep = rb.verify_rainbow(pentagon(), 5, 2, mode="sampled", trials=3)
    assert rep.passed and rep.sets_checked == 3  # t = n samples the one set


def test_search_random_rainbow():
    got = rb.search_random_rainbow(3, 10, 3, 6, 3, max_attempts=100, seed=7)
    assert got is not None
    colouring, rep, attempts = got
    assert rep.passed and attempts >= 1
    assert colouring.seed == 7 + attempts - 1
    # re-verify through a fresh instance
    again = su.random_colouring(3, 10, 3, seed=colouring.seed)
    assert rb.verify_rainbow(again, 6, 3).passed


def test_search_charges_every_attempt_against_one_budget():
    # each attempt verifies C(12, 6) = 924 sets of C(6, 2) = 15 edges
    per_attempt = 924 * 15
    got = rb.search_random_rainbow(2, 12, 3, 6, 3, max_attempts=100, seed=3)
    assert got[2] == 8
    fits = rb.search_random_rainbow(2, 12, 3, 6, 3, max_attempts=100, seed=3,
                                    budget=8 * per_attempt)
    assert fits[0].seed == got[0].seed and fits[2] == 8
    with pytest.raises(BudgetExceededError, match=f"about {8 * per_attempt} edge"):
        rb.search_random_rainbow(2, 12, 3, 6, 3, max_attempts=100, seed=3,
                                 budget=8 * per_attempt - 1)


def test_search_impossible_cases():
    assert rb.search_random_rainbow(2, 6, 1, 3, 2, max_attempts=3, seed=0) is None
    with pytest.raises(ParameterError):
        rb.search_random_rainbow(3, 10, 2, 2, 2)  # t < k


def test_search_draws_nothing_when_no_set_can_span_p(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("random_colouring called")

    monkeypatch.setattr(rb, "random_colouring", draw)
    # a 4-set spans at most C(4, 3) = 4 edges, so none of 6 colours spans 5
    assert rb.search_random_rainbow(3, 100, 6, 4, 5) is None
    assert rb.search_random_rainbow(2, 6, 1, 3, 2, budget=0) is None  # p > q
    monkeypatch.undo()
    # with no t-set at all the first colouring passes, as verify says
    colouring, report, attempts = rb.search_random_rainbow(2, 3, 2, 4, 3)
    assert report.passed and report.sets_checked == 0 and attempts == 1


def test_exact_oracle_reproduces_the_classic_bound():
    exists5, wit = rb.exact_rainbow_exists(2, 5, 2, 3, 2)
    assert exists5 and wit is not None
    assert rb.verify_rainbow(wit, 3, 2).passed
    exists6, wit6 = rb.exact_rainbow_exists(2, 6, 2, 3, 2)
    assert not exists6 and wit6 is None


def test_exact_oracle_trivial_and_monotone():
    assert rb.exact_rainbow_exists(2, 2, 2, 3, 2)[0]  # n < t
    # monotone in n over the feasible range
    prev = True
    for n in range(3, 8):
        cur, _ = rb.exact_rainbow_exists(2, n, 2, 3, 2)
        assert prev or not cur  # once false, stays false
        prev = cur
    assert [rb.exact_rainbow_exists(2, n, 2, 3, 2)[0] for n in (5, 6, 7)] == [
        True,
        False,
        False,
    ]


def reference_lex_least(k, n, q, t, p, budget):
    """Lexicographically least (t, p)-rainbow colour list of K_n^(k), by a
    search with canonical colour order and no symmetry rule; ``None`` when
    none exists, ``"over"`` past ``budget`` nodes."""
    edges = list(itertools.combinations(range(1, n + 1), k))
    index = {e: i for i, e in enumerate(edges)}
    finish_at = [[] for _ in edges]
    for ts in itertools.combinations(range(1, n + 1), t):
        idxs = [index[e] for e in itertools.combinations(ts, k)]
        finish_at[max(idxs)].append(idxs)
    colours = [0] * len(edges)
    nodes = 0

    def dfs(depth, used):
        nonlocal nodes
        if depth == len(edges):
            return True
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("reference search over budget")
        for c in range(1, min(q, used + 1) + 1):
            colours[depth] = c
            if all(len({colours[i] for i in idxs}) >= p for idxs in finish_at[depth]):
                if dfs(depth + 1, max(used, c)):
                    return True
        return False

    try:
        return list(colours) if dfs(0, 0) else None
    except BudgetExceededError:
        return "over"


@pytest.mark.parametrize("q", range(2, 7))
def test_exact_oracle_rainbow_triangles_follow_the_chromatic_index(q):
    # every triangle spans 3 colours exactly when edges that share a vertex
    # differ, so a (3, 3)-rainbow q-colouring of K_n exists exactly when
    # the chromatic index of K_n, n - 1 for even n and n for odd n, is at
    # most q; a witness is a proper edge colouring from the palette
    for n in range(3, 9):
        exists, wit = rb.exact_rainbow_exists(2, n, q, 3, 3)
        assert exists == ((n - 1 if n % 2 == 0 else n) <= q), n
        if not exists:
            assert wit is None
            continue
        colour = dict(zip(wit._edges(), wit.edge_colours()))
        assert set(colour.values()) <= set(wit.palette()) and wit.budget == q
        for v in range(1, n + 1):
            assert len({col for e, col in colour.items() if v in e}) == n - 1


def test_exact_oracle_matches_unpruned_search():
    # the star rule keeps the lex-least solution: same answer, same witness
    compared = 0
    for k in (1, 2, 3):
        for n in range(k, 7):
            for q, t in itertools.product((1, 2, 3), range(k, n + 1)):
                for p in range(1, q + 2):
                    want = reference_lex_least(k, n, q, t, p, budget=2 * 10**4)
                    if want == "over":
                        continue
                    exists, wit = rb.exact_rainbow_exists(k, n, q, t, p)
                    got = None
                    if exists:
                        edges = itertools.combinations(range(1, n + 1), k)
                        got = [wit.colour(e)[1] for e in edges]
                    assert got == want, (k, n, q, t, p)
                    compared += 1
    assert compared >= 400


def test_exact_oracle_p_beyond_q_or_edges():
    # a t-set spans at most q colours and at most C(t, k): no search needed
    for k, n, q, t, p in ((2, 7, 3, 6, 4), (3, 7, 2, 5, 3), (2, 5, 4, 2, 2)):
        assert rb.exact_rainbow_exists(k, n, q, t, p, budget=100) == (False, None)
    assert rb.exact_rainbow_exists(2, 4, 2, 5, 3, budget=100) == (True, None)  # n < t


def test_exact_oracle_budget():
    with pytest.raises(BudgetExceededError,
                       match="^exact oracle needs at least 6 search nodes, budget is 5$"):
        rb.exact_rainbow_exists(2, 7, 3, 4, 3, budget=5)
    # the star rule prunes: the n = 6 case of R(3,3) = 6 ends in 29 nodes,
    # against 174 with star blocks of any length and over 400 without
    assert not rb.exact_rainbow_exists(2, 6, 2, 3, 2, budget=100)[0]
