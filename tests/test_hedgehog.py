"""Body-and-spine hypergraphs, piercing, lifting, the
monochromatic-copy finder, and the two-part host colouring."""

import collections
import dataclasses
import itertools
import math
import random

import pytest

from ramseykit import hedgehog as hh
from ramseykit import rainbow as rb
from ramseykit import report
from ramseykit import stepup as su
from ramseykit.errors import (
    BudgetExceededError,
    FileFormatError,
    IncompleteSearchError,
    ParameterError,
    PreconditionError,
)


# --- independent oracles ------------------------------------------------------

def oracle_min_hitting_set(sets):
    """Smallest hitting set by subset enumeration over candidate vertices."""
    universe = sorted(set().union(*sets)) if sets else []
    if not sets:
        return 0
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return size
    raise AssertionError("unreachable")


def oracle_degeneracy(h):
    """Max over all induced subhypergraphs of the min incidence (tiny n)."""
    best = 0
    vs = list(h.vertices)
    for size in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, size):
            subset = set(sub)
            edges = [e for e in h.edges if set(e) <= subset]
            mind = min(sum(1 for e in edges if v in e) for v in sub)
            best = max(best, mind)
    return best


# --- construction ---------------------------------------------------------------

def test_build_examples():
    h = hh.build_hedgehog(3, 3, 2)
    assert len(h.edges) == 3 and len(h.vertices) == 6
    # the balanced variant at uniformity 3 is the same object
    assert math.ceil(3 / 2) == 2


@pytest.mark.parametrize(
    "t,k,s", [(2, 3, 2), (4, 3, 2), (5, 7, 3), (8, 5, 4), (8, 7, 6), (6, 4, 2)]
)
def test_counts_and_private_vertices(t, k, s):
    h = hh.build_hedgehog(t, k, s)
    assert len(h.edges) == math.comb(t, s)
    assert len(h.vertices) == t + (k - s) * math.comb(t, s)
    hyp = h.to_hypergraph()
    body = set(h.body)
    for e, f in itertools.combinations(hyp.edges, 2):
        assert set(e) & set(f) <= body
    privs = [v for _, priv in h.spine for v in priv]
    assert len(privs) == len(set(privs))


def test_build_guards():
    with pytest.raises(ParameterError):
        hh.build_hedgehog(3, 2, 2)
    with pytest.raises(ParameterError):
        hh.build_hedgehog(1, 3, 2)


def test_hypergraph_constructor_messages():
    vs = (1, 2, 3, 4, 5)
    ok = ((1, 2, 3), (1, 2, 4), (2, 4, 5))
    cases = [
        ((1, 2, 2), (), "duplicate vertices"),
        (vs, ((1, 2),), "edge (1, 2) is not an 3-set"),
        (vs, ((1, 2, 3, 4),), "edge (1, 2, 3, 4) is not an 3-set"),
        (vs, ((1, 1, 2),), "edge (1, 1, 2) is not an 3-set"),
        (vs, ((2, 1, 3),), "edge (2, 1, 3) is not sorted"),
        (vs, ([1, 2, 3],), "edge [1, 2, 3] is not sorted"),
        (vs, (frozenset((1, 2, 3)),), "edge frozenset({1, 2, 3}) is not sorted"),
        (vs, ((1, 2, 9),), "edge (1, 2, 9) uses unknown vertices"),
        (vs, ((0, 1, 2),), "edge (0, 1, 2) uses unknown vertices"),
        (vs, ((1, 2, 3), (2, 4, 5), (1, 2, 3)), "duplicate edge (1, 2, 3)"),
        # two bad edges: the first one is named, whatever its fault
        (vs, ok + ((1, 2, 9), (3, 2, 1)), "edge (1, 2, 9) uses unknown vertices"),
        (vs, ok + ((3, 2, 1), (1, 2, 9)), "edge (3, 2, 1) is not sorted"),
        (vs, ok + ((1, 2, 3), (1, 2)), "duplicate edge (1, 2, 3)"),
        (vs, ok + ((1, 2), (1, 2, 3)), "edge (1, 2) is not an 3-set"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(ParameterError) as info:
            hh.Hypergraph(3, vertices, edges)
        assert str(info.value) == message
    h = hh.Hypergraph(3, vs, ok)
    assert h.edges == ok
    assert hh.Hypergraph(3, vs, ()).edges == ()


# --- degeneracy -----------------------------------------------------------------

def test_degeneracy_examples():
    single = hh.Hypergraph(3, (1, 2, 3), ((1, 2, 3),))
    assert hh.degeneracy(single) == 1
    for t, k in [(3, 3), (4, 3), (5, 4)]:
        assert hh.degeneracy(hh.build_hedgehog(t, k, k - 1).to_hypergraph()) == 1
    k4 = hh.Hypergraph(3, tuple(range(1, 5)), tuple(itertools.combinations(range(1, 5), 3)))
    assert hh.degeneracy(k4) == 3


def test_degeneracy_matches_induced_subgraph_definition():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(3, 7)
        all_edges = list(itertools.combinations(range(1, n + 1), 3))
        edges = tuple(sorted(rng.sample(all_edges, rng.randint(1, len(all_edges)))))
        h = hh.Hypergraph(3, tuple(range(1, n + 1)), edges)
        assert hh.degeneracy(h) == oracle_degeneracy(h)


def reference_peel_trace(h):
    """The O(V(V+E)) min-incidence peel that the bucket queue replaced."""
    alive_edges = set(h.edges)
    deg = {v: 0 for v in h.vertices}
    for e in h.edges:
        for v in e:
            deg[v] += 1
    alive = set(h.vertices)
    trace = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        trace.append((v, deg[v]))
        alive.remove(v)
        dead = [e for e in alive_edges if v in e]
        for e in dead:
            alive_edges.remove(e)
            for u in e:
                if u in alive:
                    deg[u] -= 1
    return trace


def reference_peel_incidences(h, order):
    alive_edges = set(h.edges)
    out = []
    for v in order:
        inc = [e for e in alive_edges if v in e]
        out.append((v, len(inc)))
        for e in inc:
            alive_edges.remove(e)
    return out


def random_hypergraph(rng):
    """Scattered labels, isolated vertices and dense spots, r from 2 to 4."""
    r = rng.randint(2, 4)
    labels = rng.sample(range(1, 60), rng.randint(r, 14))
    candidates = list(itertools.combinations(sorted(labels), r))
    edges = rng.sample(candidates, rng.randint(0, min(40, len(candidates))))
    return hh.Hypergraph(r, tuple(labels), tuple(sorted(edges)))


def test_peel_matches_reference_loop():
    rng = random.Random(2024)
    for _ in range(300):
        h = random_hypergraph(rng)
        assert hh.peel_trace(h) == reference_peel_trace(h)
    h, _ = hh.burr_erdos_pair(8)
    assert hh.peel_trace(h) == reference_peel_trace(h)


# --- piercing numbers -------------------------------------------------------------

def test_piercing_examples():
    h = hh.Hypergraph(3, (1, 2, 3, 4), ((1, 2, 3), (1, 2, 4)))
    res = hh.piercing_number(h, 1)
    assert res.value == 1 and res.witness == (2,)
    petals = hh.Hypergraph(
        3, tuple(range(1, 10)), tuple(sorted((1, 2 * i, 2 * i + 1) for i in range(1, 5)))
    )
    assert hh.piercing_number(petals, 1).value == 4
    # pair at uniformity 3: co-degree
    star = hh.Hypergraph(3, tuple(range(1, 6)), tuple(sorted((1, 2, w) for w in (3, 4, 5))))
    assert hh.piercing_number(star, (1, 2)).value == 3
    with pytest.raises(ParameterError):
        hh.piercing_number(star, (1, 2, 3))
    # a vertex outside the hypergraph, or one named twice, is refused by name
    h8, _ = hh.burr_erdos_pair(8)
    for a, msg in ((999, "vertex 999 of A is not"), (0, "vertex 0 of A is not"),
                   ((1, 0), "vertex 0 of A is not"),
                   ((1, 1), "vertex 1 appears more than once"),
                   ([2, 5, 2], "vertex 2 appears more than once")):
        with pytest.raises(ParameterError, match=msg):
            hh.piercing_number(h8, a)


def test_piercing_matches_enumeration():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(4, 9)
        all_edges = list(itertools.combinations(range(1, n + 1), 3))
        edges = tuple(sorted(rng.sample(all_edges, rng.randint(1, min(14, len(all_edges))))))
        h = hh.Hypergraph(3, tuple(range(1, n + 1)), edges)
        v = rng.randint(1, n)
        res = hh.piercing_number(h, v)
        rests = [set(e) - {v} for e in edges if v in e]
        assert res.value == oracle_min_hitting_set(rests)
        assert all(set(r) & set(res.witness) for r in rests)


def reference_min_hitting_set(sets, budget):
    """The piercing DFS before it sorted each set once: ``sorted(s)`` for
    every uncovered set at every node, in the pivot key and the branch."""
    sets = [frozenset(s) for s in sets]
    if not sets:
        return hh.PiercingResult(0, 0, (), True)
    remaining = list(sets)
    greedy = []
    while remaining:
        counts = {}
        for s in remaining:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda u: (-counts[u], u))
        greedy.append(v)
        remaining = [s for s in remaining if v not in s]
    best = sorted(greedy)
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
        pivot = min(uncovered, key=lambda s: (len(s), sorted(s)))
        for v in sorted(pivot):
            dfs([s for s in uncovered if v not in s], chosen + [v])

    dfs(sets, [])
    if exhausted:
        lower = 0
        used = set()
        for s in sorted(sets, key=len):
            if not (s & used):
                lower += 1
                used |= s
        return hh.PiercingResult(lower, best_size, tuple(best), False)
    return hh.PiercingResult(best_size, best_size, tuple(best), True)


def random_families():
    """400 seeded families of up to 12 sets of 1 to 4 vertices of 1..9."""
    rng = random.Random(77)
    for _ in range(400):
        universe = range(1, rng.randint(2, 10))
        yield [
            rng.sample(universe, rng.randint(1, min(4, len(universe))))
            for _ in range(rng.randint(0, 12))
        ]


def test_min_hitting_set_matches_reference_dfs():
    # same search tree: the same least witness, and the same bounds when
    # the node budget runs out part way
    for sets in random_families():
        for budget in (3, 10, 40, 10**6):
            assert hh._min_hitting_set(sets, budget) == reference_min_hitting_set(
                sets, budget
            ), (sets, budget)


def list_min_hitting_set(sets, budget):
    """The piercing DFS over lists of frozensets that the int-mask search
    replaced, node count included: each node filters its list of
    uncovered sets, kept in (size, sorted members) order, and branches on
    the members of the first."""
    sets = [frozenset(s) for s in sets]
    if not sets:
        return hh.PiercingResult(0, 0, (), True)
    best = sorted(hh._greedy_hitting_set(sets))
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
        for v in uncovered[0][0]:
            dfs([p for p in uncovered if v not in p[1]], chosen + [v])

    keyed = ((tuple(sorted(s)), s) for s in sets)
    dfs(sorted(keyed, key=lambda p: (len(p[0]), p[0])), [])
    if exhausted:
        lower = 0
        used = set()
        for s in sorted(sets, key=len):
            if not (s & used):
                lower += 1
                used |= s
        return hh.PiercingResult(lower, best_size, tuple(best), False, nodes)
    return hh.PiercingResult(best_size, best_size, tuple(best), True, nodes)


def same_piercing(got, want):
    """Equal results, ``nodes`` included, which ``==`` leaves out."""
    return got == want and got.nodes == want.nodes


def test_mask_dfs_matches_list_dfs():
    # every 1- and 2-vertex subset of the Burr-Erdos hypergraph at n = 8
    h, _ = hh.burr_erdos_pair(8)
    for size in (1, 2):
        for a in itertools.combinations(h.vertices, size):
            rests = [frozenset(e) - set(a) for e in h.edges if set(a) <= set(e)]
            want = list_min_hitting_set(rests, hh.DEFAULT_BUDGET)
            assert same_piercing(hh.piercing_number(h, a), want), a
    # random families, with budgets that run out part way and the default
    for sets in random_families():
        for budget in (3, 10, 40, hh.DEFAULT_BUDGET):
            assert same_piercing(hh._min_hitting_set(sets, budget),
                                 list_min_hitting_set(sets, budget)), (sets, budget)


def test_piercing_nodes_are_the_least_budget_that_finishes():
    rng = random.Random(23)
    for _ in range(200):
        universe = range(1, rng.randint(2, 10))
        sets = [
            rng.sample(universe, rng.randint(1, min(4, len(universe))))
            for _ in range(rng.randint(0, 12))
        ]
        full = hh._min_hitting_set(sets, hh.DEFAULT_BUDGET)
        again = hh._min_hitting_set(sets, full.nodes)
        assert again.exact and again == full and again.nodes == full.nodes
        if full.nodes:
            cut = hh._min_hitting_set(sets, full.nodes - 1)
            assert not cut.exact and cut.nodes == full.nodes


# --- lifting --------------------------------------------------------------------

def lifted_colour_oracle(base, e, p):
    """The union of the base colours on the s-subedges of ``e``, through
    checked ``colour`` calls, padded with the least missing palette colours."""
    got = {base.colour(f) for f in itertools.combinations(e, base.uniformity)}
    pad = [c for c in base.palette() if c not in got][: p - len(got)]
    return ("set", tuple(sorted(got | set(pad))))


def test_lift_colour_is_exact_union_when_spread():
    base = su.random_colouring(2, 8, 8, seed=1)
    lifted = hh.lift_colouring(base, 3)
    for e in itertools.combinations(range(1, 9), 3):
        got = {base.colour(f) for f in itertools.combinations(e, 2)}
        col = lifted.colour(e)
        assert col[0] == "set" and len(col[1]) == 3
        if len(got) == 3:
            assert set(col[1]) == got
        else:
            assert got <= set(col[1])
        assert col == lifted_colour_oracle(base, e, 3)
    # stepped bases hand out their spans from a memo, which lifting must
    # read and never pad in place
    up2 = su.step_up_2(su.random_colouring(2, 4, 6, seed=1), 2)
    tower = su.tower_compose(
        su.random_colouring(2, 3, 3, seed=4), [("up2", 2, 2), ("up1", 4, 3)]
    )
    rng = random.Random(7)
    for base, k, edges in (
        (up2, 5, list(itertools.combinations(range(1, 17), 5))),
        (tower, 6, [tuple(sorted(rng.sample(range(1, 257), 6))) for _ in range(400)]),
    ):
        lifted = hh.lift_colouring(base, k)
        p = lifted.p
        for e in edges:
            assert lifted.colour(e) == lifted_colour_oracle(base, e, p), e
            assert base.span(e) == {
                base.colour(f) for f in itertools.combinations(e, base.uniformity)
            }


def test_lift_budget_and_padding():
    base = su.random_colouring(2, 8, 4, seed=3)
    lifted = hh.lift_colouring(base, 3)
    cols = {lifted.colour(e) for e in itertools.combinations(range(1, 9), 3)}
    assert len(cols) <= math.comb(4, 3)
    mono = su.TabulatedColouring(
        2,
        8,
        {e: ("base", 1) for e in itertools.combinations(range(1, 9), 2)},
        [("base", i) for i in range(1, 5)],
    )
    ml = hh.lift_colouring(mono, 3)
    cs = {ml.colour(e) for e in itertools.combinations(range(1, 9), 3)}
    # deterministic padding gives a single set colour
    assert cs == {("set", (("base", 1), ("base", 2), ("base", 3)))}
    tiny = su.random_colouring(2, 8, 2, seed=0)
    with pytest.raises(ParameterError):
        hh.lift_colouring(tiny, 3)


def test_lift_budget_counts_colour_sets_without_listing_them():
    up2 = su.step_up_2(su.random_colouring(2, 4, 6, seed=1), 2)
    for base, k in ((su.random_colouring(2, 8, 4, seed=3), 3), (up2, 5)):
        lifted = hh.lift_colouring(base, k)
        assert lifted.budget == len(lifted.palette())
    lifted = hh.lift_colouring(su.random_colouring(2, 12, 60, seed=1), 4)

    def refuse():
        raise AssertionError("listed all C(60, 6) colour sets")

    lifted._palette = refuse
    assert lifted.budget == math.comb(60, 6) == 50063860


def test_spread_certification():
    got = rb.search_random_rainbow(2, 10, 16, 4, 4, max_attempts=50, seed=2024)
    assert got is not None
    base, rep, _ = got
    lifted = hh.lift_colouring(base, 3)
    spread = hh.verify_hedgehog_spread(lifted, 4, 1, base_report=rep,
                                       embeddings=300, seed=5)
    assert spread.passed
    assert spread.bodies_checked == 210
    assert spread.min_base_span == min(
        len(base.span(b)) for b in itertools.combinations(range(1, 11), 4)
    ) >= 4
    assert spread.min_lifted_span >= 2
    # a base that fails the verify is rejected: 3 colours never span 4
    weak = su.random_colouring(2, 10, 3, seed=0)
    with pytest.raises(PreconditionError):
        hh.verify_hedgehog_spread(hh.lift_colouring(weak, 3), 4, 1,
                                  base_report=rb.verify_rainbow(weak, 4, 4))


def test_spread_charges_each_embedding_its_lifted_colours():
    base, rep, _ = rb.search_random_rainbow(2, 10, 16, 4, 4, max_attempts=50,
                                            seed=2024)
    lifted = hh.lift_colouring(base, 3)
    # C(4, 2) = 6 spine edges per embedding
    spread = hh.verify_hedgehog_spread(lifted, 4, 1, base_report=rep,
                                       embeddings=300, seed=5, budget=1800)
    assert spread.embeddings_checked == 300
    with pytest.raises(BudgetExceededError, match="needs 1800 lifted colours"):
        hh.verify_hedgehog_spread(lifted, 4, 1, base_report=rep,
                                  embeddings=300, seed=5, budget=1799)


def test_spread_over_a_stepped_base_reads_its_class_sum():
    # up1 over a 3-uniform base on 4 vertices: 16 vertices, 4-uniform, and
    # (11, 6)-rainbow by the class sum; its 5-uniform lift has sets of
    # p = C(5, 4) = 5 base colours, so p' = 1 needs 6
    up1 = su.step_up_1(su.random_colouring(3, 4, 3, seed=1),
                       su.partition_patterns(3, 5))
    rep = rb.verify_rainbow(up1, 11, 6)
    lifted = hh.lift_colouring(up1, 5)
    spread = hh.verify_hedgehog_spread(lifted, 11, 1, base_report=rep,
                                       embeddings=0)
    assert spread.passed
    table = dict(zip(itertools.combinations(range(1, 17), 4), up1.edge_colours()))
    brute = min(
        len({table[e] for e in itertools.combinations(body, 4)})
        for body in itertools.combinations(range(1, 17), 11)
    )
    assert spread.bodies_checked == math.comb(16, 11) == 4368
    assert spread.min_base_span == brute == 6


def test_spread_charges_no_body_scan():
    base, rep, _ = rb.search_random_rainbow(2, 10, 16, 4, 4, max_attempts=50,
                                            seed=2024)
    lifted = hh.lift_colouring(base, 3)
    # the C(10, 4) = 210 bodies are read from the base report, uncharged
    spread = hh.verify_hedgehog_spread(lifted, 4, 1, base_report=rep,
                                       embeddings=0, budget=0)
    assert spread.passed and spread.bodies_checked == 210


def test_spread_requires_an_exhaustive_base_report():
    base = su.random_colouring(2, 10, 16, seed=5)
    lifted = hh.lift_colouring(base, 3)
    sampled = rb.verify_rainbow(base, 4, 4, mode="sampled", trials=3, seed=0)
    exhaustive = rb.verify_rainbow(base, 4, 4)
    # three lucky samples prove nothing: the base fails (4, 4)
    assert sampled.passed and not exhaustive.passed
    good_base, good, _ = rb.search_random_rainbow(2, 10, 16, 4, 4,
                                                  max_attempts=50, seed=2024)
    good_lift = hh.lift_colouring(good_base, 3)
    assert hh.verify_hedgehog_spread(good_lift, 4, 1, base_report=good,
                                     embeddings=0).passed
    refused = [
        (lifted, sampled),
        (lifted, exhaustive),
        # a passing report that checked one body fewer than C(10, 4)
        (good_lift, dataclasses.replace(good, sets_checked=209)),
        # a passing report on 5-sets says nothing of 4-set bodies
        (good_lift, dataclasses.replace(good, t=5)),
    ]
    for lift, rep in refused:
        with pytest.raises(PreconditionError, match="exhaustively"):
            hh.verify_hedgehog_spread(lift, 4, 1, base_report=rep, embeddings=0)


def test_spread_vacuous_when_body_below_uniformity():
    base = su.random_colouring(2, 10, 16, seed=2032)
    lifted = hh.lift_colouring(base, 3)
    rep = rb.RainbowReport(passed=True, t=1, p=4, coverage="exhaustive")
    spread = hh.verify_hedgehog_spread(lifted, 1, 1, base_report=rep)
    assert spread.bodies_checked == 0 and spread.passed


def test_spread_vacuous_when_body_exceeds_universe():
    base = su.random_colouring(2, 6, 16, 1)
    # no 7-set of 6 vertices: the exhaustive verify passes with none checked
    rep = rb.verify_rainbow(base, 7, 4)
    assert rep.passed and rep.sets_checked == 0
    spread = hh.verify_hedgehog_spread(hh.lift_colouring(base, 3), 7, 1,
                                       base_report=rep)
    assert spread.passed
    assert spread.bodies_checked == spread.embeddings_checked == 0
    assert spread.min_base_span == spread.min_lifted_span == 0


# --- monochromatic copies ----------------------------------------------------------

def part_colouring(n, parts, swap=False):
    """Red on the triples meeting exactly two parts, blue elsewhere (the
    other way round with ``swap``)."""
    size = n // parts
    two, other = (hh.BLUE, hh.RED) if swap else (hh.RED, hh.BLUE)
    table = {}
    for e in itertools.combinations(range(1, n + 1), 3):
        ps = {(v - 1) // size for v in e}
        table[e] = two if len(ps) == 2 else other
    return su.TabulatedColouring(3, n, table, [hh.RED, hh.BLUE])


class PartRule(su.Colouring):
    """The part rule computed per edge rather than read from a table, with
    a short last part when ``size`` does not divide n."""

    def __init__(self, n, size):
        super().__init__(3, n)
        self.size = size

    def _colour(self, e):
        return hh.RED if len({(v - 1) // self.size for v in e}) == 2 else hh.BLUE

    def _palette(self):
        return (hh.RED, hh.BLUE)


class CountingTable(su.TabulatedColouring):
    """A tabulated colouring that counts its checked and unchecked calls,
    its whole-universe passes and the edge colours those passes yield."""

    def __init__(self, base):
        table = dict(zip(base._edges(), base.edge_colours()))
        super().__init__(3, base.num_vertices, table, base.palette())
        self.calls = {"colour": 0, "_colour": 0, "edge_colours": 0, "yielded": 0}

    def edge_colours(self):
        self.calls["edge_colours"] += 1
        for col in super().edge_colours():
            self.calls["yielded"] += 1
            yield col

    def colour(self, edge):
        self.calls["colour"] += 1
        return super().colour(edge)

    def _colour(self, e):
        self.calls["_colour"] += 1
        return super()._colour(e)


class CountingRule(PartRule):
    """The part rule counting its checked and unchecked calls, its
    whole-universe passes and its palette-code reads."""

    def __init__(self, n, size):
        super().__init__(n, size)
        self.calls = {"colour": 0, "_colour": 0, "edge_colours": 0,
                      "palette_codes": 0}

    def colour(self, edge):
        self.calls["colour"] += 1
        return super().colour(edge)

    def _colour(self, e):
        self.calls["_colour"] += 1
        return super()._colour(e)

    def edge_colours(self):
        self.calls["edge_colours"] += 1
        return super().edge_colours()

    def palette_codes(self):
        self.calls["palette_codes"] += 1
        return super().palette_codes()


def test_find_mono_on_random_colourings():
    for seed in range(5):
        c = su.random_colouring(3, 81, 2, seed=seed)
        emb = hh.find_mono_hedgehog(c, 3)
        assert hh.validate_embedding(emb, c, 3)


def test_validate_find_mono_embedding_builds_no_table(monkeypatch):
    # whole-universe reads go through the codes and single edges through
    # their ranks, in the search and in a witness file's re-check alike
    c = su.random_colouring(3, 81, 2, seed=4)
    emb = hh.find_mono_hedgehog(c, 3)
    assert hh.validate_embedding(emb, c, 3)
    assert "table" not in vars(c)
    built = []

    def recorded(*args):
        built.append(random_colouring(*args))
        return built[-1]

    random_colouring = su.random_colouring
    monkeypatch.setattr(su, "random_colouring", recorded)
    doc = {"witness_kind": "embedding", "colouring": report.colouring_spec(c),
           "config": {"t": "3"}, **emb.to_dict()}
    assert report.validate_witness(doc) == (True, "monochromatic embedding checks out")
    assert len(built) == 1 and "table" not in vars(built[0])


def test_co_degrees_match_per_triple_counts():
    # the run-by-run co-degree pass against a per-triple count; at n = 260
    # a co-degree can reach 258, so the lanes are two bytes wide
    rng = random.Random(7)
    for n in (2, 3, 4, 9, 20):
        flags = [rng.random() < 0.5 for _ in range(math.comb(n, 3))]
        want = dict.fromkeys(itertools.combinations(range(1, n + 1), 2), 0)
        for (a, b, c), red in zip(itertools.combinations(range(1, n + 1), 3), flags):
            if red:
                want[a, b] += 1
                want[a, c] += 1
                want[b, c] += 1
        assert list(hh._co_degrees(flags, n).items()) == list(want.items())
    n = 260
    deg = hh._co_degrees(itertools.repeat(True, math.comb(n, 3)), n)
    assert set(deg.values()) == {n - 2} and len(deg) == math.comb(n, 2)
    # the triples through vertex 1 come first: co-degree n - 2 at (1, y), 1 elsewhere
    through_1 = math.comb(n - 1, 2)
    flags = itertools.chain(itertools.repeat(True, through_1),
                            itertools.repeat(False, math.comb(n, 3) - through_1))
    deg = hh._co_degrees(flags, n)
    assert all(d == (n - 2 if x == 1 else 1) for (x, _), d in deg.items())


def test_find_mono_on_adversarial_colourings():
    n = 81
    const1 = su.TabulatedColouring(
        3, n, {e: ("base", 1) for e in itertools.combinations(range(1, n + 1), 3)},
        [("base", 1), ("base", 2)],
    )
    const2 = su.TabulatedColouring(
        3, n, {e: ("base", 2) for e in itertools.combinations(range(1, n + 1), 3)},
        [("base", 1), ("base", 2)],
    )
    for c, want in ((const1, ("base", 1)), (const2, ("base", 2))):
        emb = hh.find_mono_hedgehog(c, 3)
        assert emb.colour == want
        assert hh.validate_embedding(emb, c, 3)
    emb = hh.find_mono_hedgehog(part_colouring(n, 3), 3)
    assert hh.validate_embedding(emb, part_colouring(n, 3), 3)


def test_find_mono_guards():
    with pytest.raises(ParameterError):
        hh.find_mono_hedgehog(su.random_colouring(3, 5, 2, seed=0), 3)
    with pytest.raises(ParameterError):
        hh.find_mono_hedgehog(su.random_colouring(2, 30, 2, seed=0), 3)
    with pytest.raises(ParameterError):
        hh.find_mono_hedgehog(su.random_colouring(3, 81, 3, seed=0), 3)


def test_find_mono_piercing_searches_share_one_budget():
    # k = 2: the classification is charged C(10, 3)*C(7, 2) edge evaluations
    # up front, then the nodes of every piercing search it runs against the
    # same budget.  A search runs only when the greedy hitting set is not
    # below the threshold, and the second colour's only when the first does
    # not endanger the set.  find-mono's own threshold t^3 = 27 exceeds the
    # 7 other vertices, so it searches nothing; at threshold 4 searches run
    c = su.random_colouring(5, 10, 2, seed=0)
    c1, c2 = c.palette()
    up_front = math.comb(10, 3) * math.comb(7, 2)
    need = up_front
    for e in itertools.combinations(range(1, 11), 3):
        hosts = {c1: [], c2: []}
        for extra in itertools.combinations(sorted(set(range(1, 11)) - set(e)), 2):
            hosts[c.colour(e + extra)].append(frozenset(extra))
        for col in (c1, c2):
            if len(hh._greedy_hitting_set(hosts[col])) < 4:
                break
            res = hh._min_hitting_set(hosts[col], hh.DEFAULT_BUDGET)
            need += res.nodes
            if res.value < 4:
                break
    assert need > up_front + 5000
    danger = hh._general_danger(c, 10, 2, 4, c1, c2, need)
    assert danger == eager_general_danger(c, 10, 2, 4, c1, c2)
    with pytest.raises(BudgetExceededError, match=(
            f"^classifying endangered sets needs at least {need} edge "
            f"evaluations and piercing nodes, budget is {need - 1}$")):
        hh._general_danger(c, 10, 2, 4, c1, c2, need - 1)
    # the up-front charge alone gets find-mono past classification, to a
    # body the colouring lacks
    with pytest.raises(IncompleteSearchError) as exc:
        hh.find_mono_hedgehog(c, 3, budget=up_front)
    assert exc.value.stage == "body"
    with pytest.raises(BudgetExceededError, match=(
            f"^classifying endangered sets needs about {up_front} edge "
            f"evaluations, budget is {up_front - 1}$")):
        hh.find_mono_hedgehog(c, 3, budget=up_front - 1)


def test_find_mono_decides_danger_without_piercing_searches(monkeypatch):
    # k = 2 on 18 vertices: the threshold t^3 = 27 exceeds the 15 other
    # vertices, which hit every host edge through a 3-set, so every 3-set is
    # endangered in the first colour without a search or even a greedy
    # bound, and the up-front charge is the whole budget the classification
    # needs
    c = su.random_colouring(5, 18, 2, seed=1)
    searches, greedy = [], []
    real = hh._min_hitting_set

    def counting(sets, budget):
        res = real(sets, budget)
        searches.append(res.nodes)
        return res

    monkeypatch.setattr(hh, "_min_hitting_set", counting)
    monkeypatch.setattr(hh, "_greedy_hitting_set", greedy.append)
    emb = hh.find_mono_hedgehog(c, 3, budget=math.comb(18, 3) * math.comb(15, 2))
    assert searches == [] and greedy == []
    assert emb.body == (1, 2, 3) and emb.colour == ("base", 2)
    assert emb.edges == (((1, 2, 3), (4, 7)),)
    assert hh.validate_embedding(emb, c, 3)


def test_find_mono_vertex_endangered_on_both_sides(monkeypatch):
    # impossible for true co-degrees at k = 1, so the danger map is forged:
    # vertex 1 lies in 20 first-colour and 21 second-colour endangered
    # pairs, both above 2k*t^(k+1) = 18 at t = 3
    c = su.random_colouring(3, 45, 2, seed=0)
    c1, c2 = c.palette()
    forged = {(1, v): c1 for v in range(2, 22)}
    forged.update({(1, v): c2 for v in range(22, 43)})
    monkeypatch.setattr(hh, "_pair_danger", lambda *args: forged)
    with pytest.raises(IncompleteSearchError) as exc:
        hh.find_mono_hedgehog(c, 3)
    assert exc.value.stage == "vertex-colouring"
    assert exc.value.details == {"vertex": 1, "first": 20, "second": 21}
    assert str(exc.value) == (
        "vertex 1 has 20 endangered sets of the first colour and 21 of the "
        "second, both above 2k*t^(k+1) = 18"
    )


def test_find_mono_bigger_body():
    # t=4 needs 4 + C(4,2) = 10 vertices and thresholds 16/32
    c = su.random_colouring(3, 100, 2, seed=2)
    emb = hh.find_mono_hedgehog(c, 4)
    assert hh.validate_embedding(emb, c, 4)


def danger_colourings():
    """Random colourings, part colourings with red and blue both ways
    round, and an untabulated part rule; only the random ones have empty
    danger maps."""
    colourings = [su.random_colouring(3, n, 2, seed=seed)
                  for n in (12, 20) for seed in range(4)]
    colourings += [part_colouring(27, parts, swap)
                   for parts in (3, 9) for swap in (False, True)]
    colourings.append(PartRule(23, 5))
    return colourings


def assert_pair_danger_matches_general_danger(c):
    # thresholds below, at and above the mean co-degree (n-2)/2
    n = c.num_vertices
    mean = (n - 2) // 2
    c1, c2 = c.palette()
    for thr in (mean - 2, mean, mean + 2):
        fast = hh._pair_danger(c, n, thr, c1, c2)
        slow = hh._general_danger(c, n, 1, thr, c1, c2, hh.DEFAULT_BUDGET)
        assert list(fast.items()) == list(slow.items())
        assert fast or c.kind == "random-seeded"


def test_pair_danger_matches_general_danger():
    # the k=1 fast path, on palette codes, against the hitting-set path it
    # shortcuts
    for c in danger_colourings():
        assert_pair_danger_matches_general_danger(c)


def test_pair_danger_without_palette_codes_matches_general_danger(monkeypatch):
    # above MAX_BUILT triples there are no palette codes: the flags come
    # from comparing each colour of one edge_colours pass with c1
    for c in danger_colourings():
        monkeypatch.setattr(c, "palette_codes", lambda: None)
        assert_pair_danger_matches_general_danger(c)


def eager_general_danger(c, n, k, thr, c1, c2):
    """Reference for ``_general_danger`` that pierces both colours of
    every (k+1)-set before reading either."""
    danger = {}
    universe = range(1, n + 1)
    for e in itertools.combinations(universe, k + 1):
        hosts = {c1: [], c2: []}
        rest = [v for v in universe if v not in e]
        for extra in itertools.combinations(rest, k):
            hosts[c.colour(e + extra)].append(frozenset(extra))
        t1, t2 = (hh._min_hitting_set(hosts[col], hh.DEFAULT_BUDGET).value
                  for col in (c1, c2))
        if t1 < thr:
            danger[e] = c1
        elif t2 < thr:
            danger[e] = c2
    return danger


def test_general_danger_matches_eager_piercing():
    # k = 2 on random colourings, with thresholds that endanger no set, some
    # sets of either colour, and every set
    for n, seed in ((7, 0), (8, 1), (9, 4), (10, 5)):
        c = su.random_colouring(5, n, 2, seed=seed)
        c1, c2 = c.palette()
        maps = []
        for thr in range(7):
            lazy = hh._general_danger(c, n, 2, thr, c1, c2, hh.DEFAULT_BUDGET)
            assert list(lazy.items()) == list(
                eager_general_danger(c, n, 2, thr, c1, c2).items())
            maps.append(lazy)
        assert not maps[0] and len(maps[-1]) == math.comb(n, 3)
        assert any(c2 in m.values() for m in maps)


def test_pair_danger_colours_each_triple_once():
    # a tabulated colouring hands over its palette codes: no triple's
    # colour is read, by a whole-universe pass or a per-edge path
    n = 20
    c = CountingTable(su.random_colouring(3, n, 2, seed=3))
    c1, c2 = c.palette()
    hh._pair_danger(c, n, (n - 2) // 2, c1, c2)
    assert c.calls == {"colour": 0, "_colour": 0, "edge_colours": 0, "yielded": 0}
    # an untabulated one builds its codes with one edge_colours pass, which
    # colours each triple once, and keeps them for the next call
    rule = CountingRule(n, 5)
    for _ in range(2):
        hh._pair_danger(rule, n, (n - 2) // 2, hh.RED, hh.BLUE)
    assert rule.calls == {"colour": 0, "_colour": math.comb(n, 3),
                          "edge_colours": 1, "palette_codes": 2}


# --- the two-part host ---------------------------------------------------------------

def test_burr_erdos_structure():
    h, host = hh.burr_erdos_pair(4)
    assert len(h.vertices) == 4 + 6 + 1
    assert host.num_vertices == 8 and host.num_parts == 1
    h8, host8 = hh.burr_erdos_pair(8)
    assert len(h8.vertices) == 37
    assert host8.num_vertices == 64
    assert host8.num_parts == 2 and host8.part_size == 32
    with pytest.raises(ParameterError):
        hh.burr_erdos_pair(6)


def test_burr_erdos_degeneracy():
    for n in (4, 8, 12):
        h, _ = hh.burr_erdos_pair(n)
        assert hh.degeneracy(h) <= 8, n


def test_burr_erdos_spine_order_peel_stays_at_most_8():
    for n in (4, 8):
        h, _ = hh.burr_erdos_pair(n)
        base = list(range(1, n + 1))
        spine = [v for v in h.vertices if v > n]
        out = reference_peel_incidences(h, spine + base)
        assert all(inc <= 8 for _, inc in out)


def test_host_rules():
    _, host = hh.burr_erdos_pair(8)
    # exactly-two-in-a-part is red, always
    for tri in [(1, 2, 33), (1, 33, 34), (31, 32, 64)]:
        parts = [host.part_of(v) for v in tri]
        assert len(set(parts)) == 2
        assert host.colour(tri) == hh.RED
    # inside a part, or spread over three parts, is blue
    assert host.colour((1, 2, 3)) == hh.BLUE
    _, host12 = hh.burr_erdos_pair(12)
    tri = (1, host12.part_size + 1, 2 * host12.part_size + 1)
    assert host12.colour(tri) == hh.BLUE


def test_no_blue_triple_has_exactly_two_in_one_part():
    _, host = hh.burr_erdos_pair(8)
    for tri in itertools.combinations(range(1, 65), 3):
        parts = [host.part_of(v) for v in tri]
        if len(set(parts)) == 2:
            assert host.colour(tri) == hh.RED
        else:
            assert host.colour(tri) == hh.BLUE


def reference_scan_for_blue(host, mode="exhaustive", trials=10**6, seed=0):
    """The set-by-set scan that the part-profile scan replaced."""
    n = host.num_vertices
    if mode == "exhaustive":
        sets = itertools.combinations(range(1, n + 1), 5)
    else:
        rng = random.Random(seed)
        population = range(1, n + 1)
        sets = (tuple(sorted(rng.sample(population, 5))) for _ in range(trials))
    seed = seed if mode == "sampled" else None
    checked = 0
    for s5 in sets:
        checked += 1
        parts = {}
        for v in s5:
            parts.setdefault(host.part_of(v), []).append(v)
        for g in parts.values():
            if len(g) >= 3 and host.colour(g[:3]) == hh.BLUE:
                break
        else:
            groups = list(parts.values())
            if len(groups) < 3 or host.colour([g[0] for g in groups[:3]]) != hh.BLUE:
                return {"passed": False, "mode": mode, "checked": checked,
                        "violating_set": list(s5), "seed": seed}
    return {"passed": True, "mode": mode, "checked": checked, "seed": seed}


def profile(host, s):
    return tuple(sorted(collections.Counter(map(host.part_of, s)).values(), reverse=True))


class SpreadRedHost(hh.BurrErdosHost):
    """Blue only inside one part: a 5-set with two pairs and a single in
    three parts (profile 2+2+1) has no blue triple."""

    def _colour(self, e):
        return hh.BLUE if len({self.part_of(v) for v in e}) == 1 else hh.RED


class InsideRedHost(hh.BurrErdosHost):
    """Red inside a part too: every profile without three parts fails."""

    def _colour(self, e):
        return hh.BLUE if len({self.part_of(v) for v in e}) == 3 else hh.RED


class CountingHost(hh.BurrErdosHost):
    def __init__(self, n):
        super().__init__(n)
        self.calls = 0

    def colour(self, edge):
        self.calls += 1
        return super().colour(edge)


def occupancies(t, parts):
    """Every way to put t vertices into the parts, as per-part counts."""
    if parts == 1:
        yield (t,)
        return
    for a in range(t + 1):
        for rest in occupancies(t - a, parts - 1):
            yield (a,) + rest


def test_host_class_counts():
    for n in (8, 12, 40, 400):
        host = hh.BurrErdosHost(n)
        classes = list(host.classes(5))
        assert sum(count for _, count in classes) == math.comb(host.num_vertices, 5)
        leasts = [least for least, _ in classes]
        assert leasts == sorted(leasts) and len(set(leasts)) == len(leasts)
        assert all(len(set(least)) == 5 for least in leasts)
    # each class's count from the per-part occupancies that give its profile
    for n in (8, 12, 40):
        host = hh.BurrErdosHost(n)
        want = collections.Counter()
        for occ in occupancies(5, host.num_parts):
            blocks = tuple(sorted((a for a in occ if a), reverse=True))
            want[blocks] += math.prod(math.comb(host.part_size, a) for a in occ)
        got = {profile(host, least): count for least, count in host.classes(5)}
        assert got == dict(want), n


def test_host_class_least_members_by_brute_force():
    host = hh.BurrErdosHost(8)
    want = {profile(host, least): least for least, _ in host.classes(5)}
    first = {}
    for s5 in itertools.combinations(range(1, host.num_vertices + 1), 5):
        first.setdefault(profile(host, s5), s5)
        if len(first) == len(want):
            break
    assert first == want


def test_host_sweep_sums_part_profiles():
    # one colour per part profile of a triple, against every edge's colour
    for n in (4, 8, 12):
        host = hh.BurrErdosHost(n)
        hist = dict(collections.Counter(host.edge_colours()))
        assert su.sweep_reachable_colours(host, counts=True) == (set(hist), hist)


def test_lex_rank_matches_enumeration():
    for n, k in ((9, 5), (10, 3), (7, 1), (6, 6)):
        for rank, c in enumerate(itertools.combinations(range(1, n + 1), k)):
            assert hh._lex_rank(c, n) == rank


def test_sampled_scan_matches_reference_loop():
    for n in (8, 12):
        for seed in (0, 1, 7, 2718):
            host = hh.BurrErdosHost(n)
            assert host.scan_for_blue("sampled", 3000, seed) == reference_scan_for_blue(
                host, "sampled", 3000, seed
            )


def test_sampled_scan_matches_reference_loop_on_every_host():
    # SpreadRedHost(12) at seed 11 fails at draw 2 on parts (1, 1, 2, 3, 3):
    # not the part tuple of its class's least member, but the same shape
    hosts = (hh.BurrErdosHost(8), hh.BurrErdosHost(12), hh.BurrErdosHost(16),
             SpreadRedHost(12), InsideRedHost(8), InsideRedHost(12))
    for host in hosts:
        for seed in range(20):
            for trials in (1, 7, 500, 3000):
                got = host.scan_for_blue("sampled", trials, seed)
                want = reference_scan_for_blue(host, "sampled", trials, seed)
                assert got == want, (type(host).__name__, host.n, seed, trials)


def test_passing_sampled_scan_draws_no_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing sampled scan built an RNG")

    monkeypatch.setattr(hh.random, "Random", refuse)
    got = hh.BurrErdosHost(12).scan_for_blue("sampled", 10**9, 3)
    assert got == {"passed": True, "mode": "sampled", "checked": 10**9, "seed": 3}


def test_scan_colours_once_per_part_profile():
    host = CountingHost(12)
    assert host.scan_for_blue("sampled", 20000, 5)["passed"]
    # one call per profile class, plus the fallback triple of a class
    # without 3 in a part; no sampled set is re-coloured
    assert host.calls <= 2 * len(list(host.classes(5))) <= 10
    for n in (8, 12, 40):
        host = CountingHost(n)
        assert host.scan_for_blue()["passed"]
        assert host.calls <= 2 * len(list(host.classes(5)))


def test_scan_failure_paths_match_reference_loop():
    # the least violating set of 2+2+1 is (1, 2, 73, 74, 145), past about
    # 1.1 million sets in lexicographic order
    spread = SpreadRedHost(12)
    got = spread.scan_for_blue()
    assert got == reference_scan_for_blue(spread)
    assert not got["passed"] and got["violating_set"] == [1, 2, 73, 74, 145]
    assert profile(spread, got["violating_set"]) == (2, 2, 1)
    inside = InsideRedHost(8)
    got = inside.scan_for_blue()
    assert got == reference_scan_for_blue(inside)
    assert got["checked"] == 1 and got["violating_set"] == [1, 2, 3, 4, 5]
    for host in (spread, inside, InsideRedHost(12)):
        for seed in (0, 3, 11):
            got = host.scan_for_blue("sampled", 500, seed)
            assert not got["passed"]
            assert got == reference_scan_for_blue(host, "sampled", 500, seed)


def test_hypergraph_parse_names_the_bad_token():
    # a bad token first, in the middle or last on an edge line, two bad
    # tokens (the first is named), and one in the header
    good = "1 2 3\n"
    for text, msg in (
        ("3 4 2\n" + good + "x 2 4\n", "h.txt:3: bad vertex 'x'"),
        ("3 4 2\n1 y 4\n" + good, "h.txt:2: bad vertex 'y'"),
        ("3 4 2\n" + good + "2 3 4.0\n", "h.txt:3: bad vertex '4.0'"),
        ("3 4 2\n" + good + "a 3 b\n", "h.txt:3: bad vertex 'a'"),
        ("3 four 2\n" + good + "2 3 4\n", "h.txt:1: bad header value 'four'"),
    ):
        with pytest.raises(FileFormatError) as info:
            hh.parse_hypergraph(text, path="h.txt")
        assert str(info.value) == msg
        assert info.value.path == "h.txt"
        assert info.value.line == int(msg.split(":")[1])


def test_hypergraph_file_roundtrip():
    h, _ = hh.burr_erdos_pair(4)
    text = hh.format_hypergraph(h)
    back = hh.parse_hypergraph(text)
    assert back.edges == h.edges and back.r == 3
    # comments and blank lines are skipped; the edges stay as they were
    noted = text.replace("\n", "  # note\n\n", 2)
    assert hh.parse_hypergraph("# burr-erdos n=4\n" + noted) == back
    # an edge with a repeated vertex, and a duplicate edge in any order
    for body, line in (("1 2 2\n1 2 3\n", 2), ("1 2 3\n3 2 1\n", 3),
                       ("2 3 4\n4 2 3\n", 3)):
        with pytest.raises(FileFormatError, match=f"^h.txt:{line}: "):
            hh.parse_hypergraph("3 4 2\n" + body, path="h.txt")
