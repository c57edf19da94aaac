"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; plain ``pytest`` reports the same pass/fail status per test.  Exact
oracles and exhaustive enumerations back every check; sampled stages log
their seeds and are labelled as such.
"""

import itertools
import math
import random
import time

import pytest

from ramseykit import delta as dl
from ramseykit import hedgehog as hh
from ramseykit import rainbow as rb
from ramseykit import seqpat as sp
from ramseykit import stepup as su


def _pass(name, detail=""):
    print(f"\nACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


def catalan_by_recurrence(k):
    c = [1] + [0] * k
    for i in range(1, k + 1):
        c[i] = sum(c[j] * c[i - 1 - j] for j in range(i))
    return c[k]


def test_01_catalan_counts():
    t0 = time.monotonic()
    want = [1, 2, 5, 14, 42, 132]
    got = [len(sp.enumerate_right_property_perms(k)) for k in range(1, 7)]
    assert got == want
    assert got[1] == 2 and got[3] == 14  # the two pinned values
    for k in range(1, 7):
        assert got[k - 1] == catalan_by_recurrence(k)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass("catalan counts", f"{got} in {elapsed:.2f}s")


def test_02_doubling_family_avoidance():
    t0 = time.monotonic()
    for k in range(1, 7):  # lengths up to 2^7 - 1 = 127
        g = sp.gen_sk(k)
        assert len(g) == 2 ** (k + 1) - 1
        assert sp.contains_max_induced(g, (2, 3, 1)) is None
        length, witness = sp.longest_homogeneous_max_induced(g)
        assert length <= k + 1
        assert sp.is_max_induced(g, witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _pass("doubling family avoidance", f"k=1..6 exhaustive in {elapsed:.2f}s")


def test_03_property_equivalences():
    checked = 0
    for k in range(1, 7):
        for p in itertools.permutations(range(1, k + 1)):
            both = sp.has_left_property(p) and sp.has_right_property(p)
            assert both == sp.has_unique_local_minimum(p), p
            if not sp.has_right_property(p):
                assert sp.contains_pattern(p, (2, 3, 1)) is not None, p
            checked += 1
    _pass("interval property equivalences", f"{checked} permutations, 0 exceptions")


def test_04_extraction_soundness():
    rng = random.Random(2025)
    lefts = {n: sp.enumerate_left_property_perms(n) for n in (2, 3, 4)}
    rights = {n: sp.enumerate_right_property_perms(n) for n in (2, 3, 4)}
    t0 = time.monotonic()
    invalid = 0
    bound_checked = 0
    for _ in range(10**4):
        n = rng.randint(1, 60)
        s = tuple(rng.randint(1, 8) for _ in range(n))
        L = rng.choice(lefts[rng.randint(2, 4)])
        R = rng.choice(rights[rng.randint(2, 4)])
        w = sp.find_l_r_or_homogeneous(s, L, R)
        ok = sp.is_max_induced(s, w.indices)
        vals = sp.subsequence(s, w.indices)
        if w.kind == "L":
            ok = ok and sp.pattern_of(vals) == sp.pattern_of(L)
        elif w.kind == "R":
            ok = ok and sp.pattern_of(vals) == sp.pattern_of(R)
        else:
            ok = ok and sp.is_homogeneous(vals)
            eps = 4.0 ** (-(len(L) + len(R)))
            if math.log2(n) * eps >= 1.0:  # bound applies only at giant n
                bound_checked += 1
                ok = ok and len(w.indices) >= (n**eps) / 2.0
        if not ok:
            invalid += 1
    assert invalid == 0
    elapsed = time.monotonic() - t0
    _pass(
        "extraction soundness",
        f"10^4 sequences, 0 invalid witnesses, {bound_checked} bound checks, "
        f"{elapsed:.1f}s",
    )


def test_05_delta_machinery():
    t0 = time.monotonic()
    # exhaustive: every sorted vertex subset of size <= 6 from a width-5
    # universe satisfies the one-maximum-per-interval and spanning-maximum
    # facts (checked against raw bit arithmetic)
    table = [[(a ^ b).bit_length() for b in range(32)] for a in range(32)]
    count = 0
    for size in range(2, 7):
        for combo in itertools.combinations(range(32), size):
            ds = tuple(table[a][b] for a, b in zip(combo, combo[1:]))
            stack = []
            for v in ds:
                while stack and stack[-1] < v:
                    stack.pop()
                assert not (stack and stack[-1] == v), (combo, ds)
                stack.append(v)
            m = len(combo)
            for i in range(m):
                run = 0
                for j in range(i + 1, m):
                    if ds[j - 1] > run:
                        run = ds[j - 1]
                    assert table[combo[i]][combo[j]] == run, (combo, i, j)
            count += 1
    # the packaged checker agrees on a sample
    rng = random.Random(1)
    for _ in range(500):
        vals = sorted(rng.sample(range(32), rng.randint(2, 6)))
        assert dl.check_unique_and_max(dl.delta_sequence_of_ints(vals, 5))

    # realization postconditions on random hosts in a width-12 universe
    failures = 0
    for _ in range(10**4):
        vals = sorted(rng.sample(range(1 << 12), rng.randint(2, 40)))
        ds = dl.delta_sequence_of_ints(vals, 12)
        ix = [rng.randint(1, len(ds))]
        for _ in range(rng.randint(0, 4)):
            cands = [
                j
                for j in range(ix[-1] + 1, len(ds) + 1)
                if max(ds.deltas[ix[-1] - 1 : j])
                == max(ds.deltas[ix[-1] - 1], ds.deltas[j - 1])
            ]
            if not cands:
                break
            ix.append(rng.choice(cands))
        out = dl.realize_max_induced(ds, ix)
        if tuple(dl.delta(a, b) for a, b in zip(out, out[1:])) != tuple(
            ds.deltas[i - 1] for i in ix
        ):
            failures += 1
        six = [rng.randint(1, len(ds))]
        while len(six) < 4 and six[-1] + 2 <= len(ds):
            six.append(rng.randint(six[-1] + 2, len(ds)))
        out = dl.realize_separated(ds, six)
        if tuple(
            dl.delta(out[2 * s], out[2 * s + 1]) for s in range(len(six))
        ) != tuple(ds.deltas[i - 1] for i in six):
            failures += 1
    assert failures == 0
    elapsed = time.monotonic() - t0
    _pass(
        "delta machinery",
        f"{count} subsets exhaustively + 10^4 realizations, 100% pass, "
        f"{elapsed:.1f}s",
    )


def test_06_separated_lemma_at_scale():
    t0 = time.monotonic()
    a = tuple((i ^ (i + 1)).bit_length() for i in range(4095))
    assert len(set(a)) == 12 and 12**3 < 4095
    res = sp.separated_interlacing(a, 2)
    n = len(a)
    for i, lev in enumerate(res.levels, start=1):
        assert len(lev) ** 3 >= n ** (3 - i), (i, len(lev))
    assert set(res.witnesses) == set(itertools.permutations((1, 2)))
    for sigma, ix in res.witnesses.items():
        assert all(b > x + 1 for x, b in zip(ix, ix[1:]))
        assert sp.pattern_of(sp.subsequence(a, ix)) == sigma
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(
        "separated realizations at scale",
        f"chain {[len(l) for l in res.levels]}, {elapsed:.2f}s",
    )


def test_07_exact_oracle_sanity():
    t0 = time.monotonic()
    exists5, wit = rb.exact_rainbow_exists(2, 5, 2, 3, 2)
    exists6, _ = rb.exact_rainbow_exists(2, 6, 2, 3, 2)
    assert exists5 and not exists6
    assert rb.verify_rainbow(wit, 3, 2).passed
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _pass("exact oracle sanity", f"threshold between 5 and 6, {elapsed:.2f}s")


def _sweep_two_runs(make, counts=True):
    """Exhaustively evaluate a colouring built twice, comparing histograms."""
    a = make()
    b = make()
    seen_a, hist_a = su.sweep_reachable_colours(a, counts=counts)
    seen_b, hist_b = su.sweep_reachable_colours(b, counts=counts)
    assert seen_a == seen_b and hist_a == hist_b
    return a, seen_a, hist_a


def test_08_stepping_up_budgets():
    t0 = time.monotonic()
    base = su.random_colouring(3, 6, 3, seed=42)
    part = su.partition_patterns(3, 5)
    q, p = 3, 5

    up1, seen, hist = _sweep_two_runs(lambda: su.step_up_1(base, part))
    assert sum(hist.values()) == math.comb(64, 4)
    assert len(seen) <= 2 * q + p - 2

    _, seen1b, hist1b = _sweep_two_runs(lambda: su.step_up_1b(base, part))
    assert sum(hist1b.values()) == math.comb(64, 4)
    assert len(seen1b) <= q

    # case totality on the +1 construction
    for e in itertools.combinations(range(1, 65), 4):
        ds = su._edge_deltas(e)
        inc = all(x < y for x, y in zip(ds, ds[1:]))
        dec = all(x > y for x, y in zip(ds, ds[1:]))
        cls = part.class_index[sp.pattern_of(ds)] <= p - 2
        assert inc + dec + cls == 1

    # uniformity-doubling construction: one pass, two independent
    # evaluator instances compared edge by edge (bit-identical)
    up2a = su.step_up_2(base, 3)
    up2b = su.step_up_2(base, 3)
    dt = [[(x ^ y).bit_length() for y in range(64)] for x in range(64)]
    da = up2a.colour_of_odd_deltas
    db = up2b.colour_of_odd_deltas
    hist2: dict = {}
    for e in itertools.combinations(range(64), 6):
        key = (dt[e[0]][e[1]], dt[e[2]][e[3]], dt[e[4]][e[5]])
        ca = da(key)
        assert ca == db(key)
        hist2[ca] = hist2.get(ca, 0) + 1
    assert sum(hist2.values()) == math.comb(64, 6)
    assert len(hist2) <= 3 * q
    # the factored sweep is the evaluator's own path: spot-check edges
    rng = random.Random(99)
    for _ in range(10**4):
        e = tuple(sorted(rng.sample(range(1, 65), 6)))
        key = (dt[e[0] - 1][e[1] - 1], dt[e[2] - 1][e[3] - 1], dt[e[4] - 1][e[5] - 1])
        assert up2a.colour(e) == da(key)
    elapsed = time.monotonic() - t0
    _pass(
        "stepping-up budgets",
        f"budgets {len(seen)}<=9, {len(seen1b)}<=3, {len(hist2)}<=9; "
        f"all edges of both doubled universes, {elapsed:.0f}s",
    )


def test_09_witness_extraction_at_scale():
    t0 = time.monotonic()
    got = rb.search_random_rainbow(3, 10, 3, 6, 3, max_attempts=100, seed=7)
    assert got is not None, "no (6;3,3)-rainbow base found"
    base, report, attempts = got
    assert report.passed and report.coverage == "exhaustive"
    up2 = su.step_up_2(base, 3)
    assert up2.num_vertices == 1024 and up2.uniformity == 6

    rng = random.Random(909)
    outcomes = {"p-colours": 0, "branch": 0}
    for _ in range(10**3):
        vs = sorted(rng.sample(range(1, 1025), 200))
        rep = su.witness_p_colours(up2, vs)
        outcomes[rep.outcome] += 1
        assert rep.revalidate(up2, vs)
        if rep.outcome == "p-colours":
            assert len({c for _, c in rep.edges}) == 3
    elapsed = time.monotonic() - t0
    _pass(
        "witness extraction at scale",
        f"base found in {attempts} attempt(s); outcomes {outcomes}; "
        f"100% revalidated, {elapsed:.1f}s",
    )


def test_10_hedgehog_lifting():
    t0 = time.monotonic()
    got = rb.search_random_rainbow(2, 10, 16, 4, 4, max_attempts=50, seed=2024)
    assert got is not None, "no (4;16,4)-rainbow pair base found"
    base, report, attempts = got
    lifted = hh.lift_colouring(base, 3)
    assert lifted.p == 3  # sets of C(3,2) base colours
    spread = hh.verify_hedgehog_spread(
        lifted, 4, 1, base_report=report, embeddings=10**3, seed=77
    )
    assert spread.passed and not spread.violations
    assert spread.bodies_checked == math.comb(10, 4)
    assert spread.min_base_span >= 1 * 3 + 1
    assert spread.embeddings_checked == 10**3
    assert spread.min_lifted_span >= 2
    elapsed = time.monotonic() - t0
    _pass(
        "hedgehog lifting",
        f"{spread.bodies_checked} bodies certified, 10^3 embeddings "
        f">= {spread.min_lifted_span} colours, {elapsed:.1f}s",
    )


def test_11_monochromatic_hedgehog_finder():
    n = 81
    all_triples = list(itertools.combinations(range(1, n + 1), 3))
    palette = [("base", 1), ("base", 2)]

    def part_based(parts):
        size = n // parts
        table = {}
        for e in all_triples:
            ps = {(v - 1) // size for v in e}
            table[e] = ("base", 1) if len(ps) == 2 else ("base", 2)
        return su.TabulatedColouring(3, n, table, palette)

    adversarial = [
        su.TabulatedColouring(3, n, {e: ("base", 1) for e in all_triples}, palette),
        su.TabulatedColouring(3, n, {e: ("base", 2) for e in all_triples}, palette),
        part_based(3),
        part_based(9),
        part_based(27),
    ]
    worst = 0.0
    for seed in range(100):
        c = su.random_colouring(3, n, 2, seed=seed)
        t0 = time.monotonic()
        emb = hh.find_mono_hedgehog(c, 3)
        worst = max(worst, time.monotonic() - t0)
        assert hh.validate_embedding(emb, c, 3), seed
    for c in adversarial:
        t0 = time.monotonic()
        emb = hh.find_mono_hedgehog(c, 3)
        worst = max(worst, time.monotonic() - t0)
        assert hh.validate_embedding(emb, c, 3)
    assert worst < 60.0
    _pass(
        "monochromatic copy finder",
        f"105 colourings, all embeddings valid, worst {worst:.2f}s",
    )


def test_12_burr_erdos_construction():
    t0 = time.monotonic()
    h, host = hh.burr_erdos_pair(8)
    assert len(h.vertices) == 8 + 29 == 37
    assert hh.degeneracy(h) <= 8
    assert host.num_vertices == 64

    # every 5-subset of the host contains a blue triple (exhaustive)
    res = host.scan_for_blue(mode="exhaustive")
    assert res["passed"] and res["checked"] == math.comb(64, 5)

    # no blue triple has exactly two vertices in one part (exhaustive)
    for tri in itertools.combinations(range(1, 65), 3):
        two_in_a_part = len({host.part_of(v) for v in tri}) == 2
        assert (host.colour(tri) == hh.RED) == two_in_a_part

    # n = 12: sampled with a logged seed
    h12, host12 = hh.burr_erdos_pair(12)
    assert hh.degeneracy(h12) <= 8
    res12 = host12.scan_for_blue(mode="sampled", trials=10**7, seed=2718)
    assert res12["passed"] and res12["checked"] == 10**7
    rng = random.Random(3141)
    for _ in range(10**5):
        tri = tuple(sorted(rng.sample(range(1, host12.num_vertices + 1), 3)))
        two = len({host12.part_of(v) for v in tri}) == 2
        assert (host12.colour(tri) == hh.RED) == two
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _pass(
        "two-part host construction",
        f"C(64,5) exhaustive + 10^7 sampled at n=12 (seed 2718), "
        f"{elapsed:.0f}s",
    )
