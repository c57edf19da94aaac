"""Rainbow verification, random search, first-moment arithmetic, and the
exact existence oracle."""

import itertools
import math
from fractions import Fraction

import pytest

from ramseykit import rainbow as rb
from ramseykit import stepup as su
from ramseykit.errors import BudgetExceededError, ParameterError


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


def test_first_moment_params():
    fm = rb.first_moment_params(3, 2, 10)
    assert fm.epsilon == Fraction(1, 12)
    fm = rb.first_moment_params(2, 2, 8)
    assert fm.n == 4 and not fm.capped
    fm = rb.first_moment_params(2, 3, 5)
    assert fm.t0 == 9
    fm = rb.first_moment_params(3, 2, 50)
    assert fm.capped and fm.n == rb.DESK_UNIVERSE_CAP


def test_expected_count_below_one_on_grid():
    # at the returned universe size the expected number of low-span sets
    # is below one for thresholds past t0
    for k, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        fm0 = rb.first_moment_params(k, q, 1)
        t = fm0.t0 + 1
        fm = rb.first_moment_params(k, q, t)
        if fm.capped:
            continue
        assert rb.expected_low_span_count(fm.n, t, k, q) < 1.0, (k, q, t)


def test_search_random_rainbow():
    got = rb.search_random_rainbow(3, 10, 3, 6, 3, max_attempts=100, seed=7)
    assert got is not None
    colouring, rep, attempts = got
    assert rep.passed and attempts >= 1
    assert colouring.seed == 7 + attempts - 1
    # re-verify through a fresh instance
    again = su.random_colouring(3, 10, 3, seed=colouring.seed)
    assert rb.verify_rainbow(again, 6, 3).passed


def test_search_impossible_cases():
    assert rb.search_random_rainbow(2, 6, 1, 3, 2, max_attempts=3, seed=0) is None
    with pytest.raises(ParameterError):
        rb.search_random_rainbow(3, 10, 2, 2, 2)  # t < k


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


def test_exact_oracle_budget():
    with pytest.raises(BudgetExceededError):
        rb.exact_rainbow_exists(2, 7, 3, 4, 3, budget=5)
