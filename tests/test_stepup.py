"""Pattern-class partitions, doubling colourings, schedules, witnesses."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import seqpat as sp
from ramseykit import stepup as su
from ramseykit.errors import FileFormatError, ParameterError


@pytest.fixture(scope="module")
def base36():
    return su.random_colouring(3, 6, 3, seed=42)


@pytest.fixture(scope="module")
def part35():
    return su.partition_patterns(3, 5)


# --- random bases ----------------------------------------------------------------

@pytest.mark.parametrize("q", [*range(1, 18), 127, 128, 255, 256, 257, 1000])
def test_random_colouring_reproduces_randrange_stream(q):
    # the bulk draw (q < 256) and the draw loop (q >= 256) inline
    # randrange(q); an interpreter that changes randrange makes this fail
    # rather than silently re-seed every base.  C(30, 3) = 4060 edges need
    # more than one bulk round at every q.
    palette = tuple(("base", i) for i in range(1, q + 1))
    for k, n in ((1, 6), (2, 9), (3, 10), (4, 8), (3, 30)):
        for seed in (0, 1, 42, 2718):
            rng = random.Random(seed)
            want = {
                e: ("base", 1 + rng.randrange(q))
                for e in itertools.combinations(range(1, n + 1), k)
            }
            c = su.random_colouring(k, n, q, seed)
            assert list(c.edge_colours()) == list(want.values())
            assert dict(zip(c._edges(), c.edge_colours())) == want and c.palette() == palette


def test_rank_tables_match_enumeration():
    for k in range(1, 5):
        for n in range(k, 10):
            tables = su._rank_tables(k, n)
            for rank, e in enumerate(itertools.combinations(range(1, n + 1), k)):
                assert sum(t[v] for t, v in zip(tables, e)) == rank
                assert su._lex_rank(e, n) == rank


def test_rank_colour_matches_mapping():
    # every edge of every k <= 4, n <= 9, through the rank of the edge, on
    # colourings built from a mapping and from drawn codes
    rng = random.Random(5)
    for k in range(1, 5):
        for n in range(k, 10):
            palette = [("base", i) for i in range(1, 4)] + [("class", 1)]
            edges = list(itertools.combinations(range(1, n + 1), k))
            table = {e: rng.choice(palette) for e in edges}
            mapped = su.TabulatedColouring(k, n, table, palette)
            drawn = su.random_colouring(k, n, 3, seed=n)
            want = dict(zip(edges, drawn.edge_colours()))
            for e in edges:
                assert mapped._colour(e) == mapped.colour(e[::-1]) == table[e]
                assert drawn._colour(e) == drawn.colour(e[::-1]) == want[e]
            assert "table" not in vars(drawn)  # single edges need no table
            assert dict(zip(drawn._edges(), drawn.edge_colours())) == want


def test_edge_colours_follow_combinations_order(base36, part35):
    edges = list(itertools.combinations(range(1, 7), 3))
    table = dict(zip(base36._edges(), base36.edge_colours()))
    shuffled = dict(random.Random(1).sample(list(table.items()), len(edges)))
    mapped = su.TabulatedColouring(3, 6, shuffled, base36.palette())
    assert list(mapped.edge_colours()) == [table[e] for e in edges]
    assert list(base36.edge_colours()) == [table[e] for e in edges]
    up1 = su.step_up_1(su.random_colouring(3, 4, 3, seed=1), part35)
    assert list(up1.edge_colours()) == [
        up1.colour(e) for e in itertools.combinations(range(1, 17), 4)
    ]


def test_mapping_is_checked():
    two = [("base", 1), ("base", 2)]
    # the right count of keys, but (2, 4) is not a 2-subset of 1..3
    with pytest.raises(ParameterError, match=r"no colour for edge \(2, 3\)"):
        su.TabulatedColouring(2, 3, dict.fromkeys([(1, 2), (1, 3), (2, 4)], two[0]), two)
    # an unsorted key leaves its sorted edge uncoloured
    with pytest.raises(ParameterError, match=r"no colour for edge \(1, 2\)"):
        su.TabulatedColouring(2, 3, dict.fromkeys([(2, 1), (1, 3), (2, 3)], two[0]), two)
    table = dict.fromkeys(itertools.combinations(range(1, 4), 2), two[0])
    table[1, 3] = ("base", 3)
    with pytest.raises(ParameterError, match=r"edge \(1, 3\) has colour \('base', 3\)"):
        su.TabulatedColouring(2, 3, table, two)


def test_oversized_palette_is_refused_before_listing():
    with pytest.raises(ParameterError, match="q = 1000001 colours are above the limit"):
        su.random_colouring(2, 5, 10**6 + 1, seed=1)
    with pytest.raises(ParameterError, match="q must be positive"):
        su.random_colouring(2, 5, 0, seed=1)


# --- colour identifiers -------------------------------------------------------

def test_colour_string_roundtrip():
    cases = [
        ("base", 3),
        ("class", 12),
        ("prod", ("base", 1), 2),
        ("prod", ("prod", ("base", 4), 1), 3),
        ("set", (("base", 1), ("base", 2), ("base", 7))),
    ]
    for c in cases:
        assert su.parse_colour(su.colour_str(c)) == c
    with pytest.raises(FileFormatError):
        su.parse_colour("x3")
    with pytest.raises(FileFormatError):
        su.parse_colour("b")


def test_colour_kinds_are_order_comparable():
    cs = [("base", 2), ("class", 1), ("prod", ("base", 1), 2), ("base", 1)]
    assert sorted(cs)[0] == ("base", 1)


# --- partitions ---------------------------------------------------------------

def test_partition_shape_for_k3_p5(part35):
    part = part35
    assert len(part.classes) == 5
    assert part.classes[3] == frozenset({(1, 2, 3)})
    assert part.classes[4] == frozenset({(3, 2, 1)})
    # the two non-monotone both-property permutations seed two classes
    assert (2, 1, 3) in part.left_reps and (3, 1, 2) in part.left_reps
    # the remaining class pairs the left-only with the right-only permutation
    paired = [
        (l, r) for l, r in zip(part.left_reps, part.right_reps) if l != r
    ]
    assert paired == [((2, 3, 1), (1, 3, 2))]
    # designated representatives verify their properties
    for l, r in zip(part.left_reps, part.right_reps):
        assert sp.has_left_property(l)
        assert sp.has_right_property(r)
    # classes partition all patterns of length 3
    union = set().union(*part.classes)
    assert union == set(sp.all_patterns(3))
    assert sum(len(c) for c in part.classes) == len(union)


@pytest.mark.parametrize("k,p", [(3, 3), (3, 4), (3, 5), (4, 5), (4, 14), (5, 10)])
def test_partition_invariants(k, p):
    part = su.partition_patterns(k, p)
    union = set().union(*part.classes)
    assert union == set(sp.all_patterns(k))
    assert sum(len(c) for c in part.classes) == len(union)
    for i, cls in enumerate(part.classes, start=1):
        assert cls, f"class {i} empty"
        for q in cls:
            assert part.class_index[q] == i
    for l, r in zip(part.left_reps, part.right_reps):
        assert sp.has_left_property(l) and sp.has_right_property(r)


def test_partition_guards():
    with pytest.raises(ParameterError, match="Catalan"):
        su.partition_patterns(3, 6)
    with pytest.raises(ParameterError):
        su.partition_patterns(2, 2)


# --- doubling constructions ----------------------------------------------------

def test_step_up_1_dispatch_cases(base36, part35):
    up1 = su.step_up_1(base36, part35)
    assert up1.num_vertices == 64 and up1.uniformity == 4
    assert up1.budget == 2 * 3 + 5 - 2

    # vertices 1,2,4,8 have bit patterns 0,1,3,7: deltas 1,2,3 increasing
    e = (1, 2, 4, 8)
    assert su._edge_deltas(e) == (1, 2, 3)
    assert up1.colour(e) == ("prod", base36.colour((1, 2, 3)), 1)

    # mirrored edge: deltas strictly decreasing
    e = (1, 5, 7, 8)  # values 0,4,6,7: deltas 3,2,1
    assert su._edge_deltas(e) == (3, 2, 1)
    assert up1.colour(e) == ("prod", base36.colour((1, 2, 3)), 2)

    # a class edge: values 0,1,2,3 give deltas 1,2,1
    e = (1, 2, 3, 4)
    ds = su._edge_deltas(e)
    assert ds == (1, 2, 1)
    i = part35.class_index[sp.pattern_of(ds)]
    assert up1.colour(e) == ("class", i)


def test_step_up_1b_aliases_classes(base36, part35):
    up1b = su.step_up_1b(base36, part35)
    assert up1b.budget == 3
    e = (1, 2, 4, 8)
    assert up1b.colour(e) == base36.colour((1, 2, 3))
    e = (1, 2, 3, 4)
    i = part35.class_index[sp.pattern_of(su._edge_deltas(e))]
    assert up1b.colour(e) == base36.palette()[i - 1]
    # aliasing requires q >= p - 2
    tiny = su.random_colouring(3, 6, 2, seed=0)
    with pytest.raises(ParameterError):
        su.step_up_1b(tiny, su.partition_patterns(3, 5))


def test_step_up_2_dispatch(base36):
    up2 = su.step_up_2(base36, 3)
    assert up2.uniformity == 6 and up2.num_vertices == 64
    assert up2.budget == 9
    # repeated odd-position deltas fall back to the sentinel colour
    e = (1, 2, 3, 4, 5, 6)  # deltas 1,2,1,3,1 -> odds (1,1,1)
    assert su._edge_deltas(e)[0::2] == (1, 1, 1)
    assert up2.colour(e) == ("prod", base36.palette()[0], 1)
    with pytest.raises(ParameterError):
        su.step_up_2(base36, 7)  # p > 3!


def test_step_up_2_permutation_tags(base36):
    up2 = su.step_up_2(base36, 6)
    perms = list(itertools.permutations((1, 2, 3)))
    seen = {}
    for e in itertools.combinations(range(1, 65), 6):
        odds = su._edge_deltas(e)[0::2]
        pat = sp.pattern_of(odds)
        if pat in seen or pat not in set(perms):
            continue
        i = perms.index(pat) + 1
        assert up2.colour(e) == ("prod", base36.colour(tuple(sorted(odds))), i)
        seen[pat] = e
        if len(seen) == 6:
            break
    assert len(seen) == 6, "not every permutation tag was exercised"


def test_every_edge_hits_exactly_one_case(base36, part35):
    up1 = su.step_up_1(base36, part35)
    rng = random.Random(4)
    for _ in range(2000):
        e = tuple(sorted(rng.sample(range(1, 65), 4)))
        ds = su._edge_deltas(e)
        inc = all(a < b for a, b in zip(ds, ds[1:]))
        dec = all(a > b for a, b in zip(ds, ds[1:]))
        i = part35.class_index[sp.pattern_of(ds)]
        cases = [inc, dec, i <= part35.p - 2]
        assert sum(cases) == 1, (e, ds)


def test_budgets_by_exhaustive_sweep(base36, part35):
    up1 = su.step_up_1(base36, part35)
    seen, hist = su.sweep_reachable_colours(up1, counts=True)
    assert len(seen) <= up1.budget
    assert set(seen) <= set(up1.palette())
    assert sum(hist.values()) == math.comb(64, 4)

    up1b = su.step_up_1b(base36, part35)
    seen, _ = su.sweep_reachable_colours(up1b)
    assert len(seen) <= 3 and set(seen) <= set(base36.palette())


def _edge_by_edge(c):
    """Reference histogram: every edge through ``Colouring.colour``."""
    hist = {}
    for e in itertools.combinations(range(1, c.num_vertices + 1), c.uniformity):
        col = c.colour(e)
        hist[col] = hist.get(col, 0) + 1
    return hist


def _assert_sweep_is_exact(c):
    hist = _edge_by_edge(c)
    assert sum(hist.values()) == math.comb(c.num_vertices, c.uniformity)
    assert su.sweep_reachable_colours(c, counts=True) == (set(hist), hist)
    assert su.sweep_reachable_colours(c) == (set(hist), None)


@pytest.mark.parametrize("step", [su.step_up_1, su.step_up_1b])
def test_class_sweep_matches_every_edge_plus_one(base36, part35, step):
    _assert_sweep_is_exact(step(base36, part35))  # C(64,4) edges


def test_class_sweep_matches_every_edge_double():
    base = su.random_colouring(3, 5, 3, seed=11)
    _assert_sweep_is_exact(su.step_up_2(base, 4))  # C(32,6) edges


@pytest.mark.parametrize("schedule", [
    [("up2", 2, 2), ("up2", 4, 5)],  # 8-uniform on 16 vertices
    [("up2", 2, 2), ("up1", 4, 3)],  # 5-uniform on 16 vertices
    [("up2", 2, 2), ("up1b", 4, 3)],
])
def test_class_sweep_matches_every_edge_two_step_tower(schedule):
    for seed in range(4):
        base = su.random_colouring(2, 2, 2, seed=seed)
        _assert_sweep_is_exact(su.tower_compose(base, schedule))


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("make", [
    lambda m: su.step_up_1(su.random_colouring(3, m, 3, seed=m), su.partition_patterns(3, 5)),
    lambda m: su.step_up_2(su.random_colouring(2, m, 3, seed=m), 2),
], ids=["up1", "up2"])
def test_stepped_classes_match_brute_force(make, m):
    # every t-set of the 2^m vertices grouped by delta sequence: one class
    # per sequence, its count, and its lexicographically least member
    c = make(m)
    n = c.num_vertices
    for t in range(c.uniformity, 7):
        brute = {}
        for ts in itertools.combinations(range(1, n + 1), t):
            least, count = brute.get(su._edge_deltas(ts), (ts, 0))
            brute[su._edge_deltas(ts)] = least, count + 1
        got = list(c.classes(t))
        assert sum(count for _, count in got) == math.comb(n, t)
        assert sorted(got) == sorted(brute.values()), (m, t)
    assert list(c.classes(n + 1)) == []


def test_unstepped_colourings_have_no_classes(base36):
    assert base36.classes(4) is None
    assert su.lift_colouring(su.random_colouring(2, 6, 6, seed=1), 3).classes(4) is None


def test_sweep_matches_direct_evaluation_on_sample(base36, part35):
    up1 = su.step_up_1(base36, part35)
    _, hist = su.sweep_reachable_colours(up1, counts=True)
    rng = random.Random(8)
    recount = {}
    for _ in range(4000):
        e = tuple(sorted(rng.sample(range(1, 65), 4)))
        c = up1.colour(e)
        assert c in hist
    # determinism: same edge, same colour, across fresh instances
    up1x = su.step_up_1(base36, part35)
    for _ in range(500):
        e = tuple(sorted(rng.sample(range(1, 65), 4)))
        assert up1.colour(e) == up1x.colour(e)


SPAN_CASES = {
    "up1": lambda b, part: su.step_up_1(b, part),
    "up1b": lambda b, part: su.step_up_1b(b, part),
    "up2": lambda b, part: su.step_up_2(su.random_colouring(2, 6, 3, seed=42), 2),
    # two-step towers on 256 vertices
    "up2-up2": lambda b, part: su.tower_compose(
        su.random_colouring(2, 3, 3, seed=9), [("up2", 2, 2), ("up2", 4, 5)]),
    "up2-up1": lambda b, part: su.tower_compose(
        su.random_colouring(2, 3, 3, seed=9), [("up2", 2, 2), ("up1", 4, 3)]),
    "up2-up1b": lambda b, part: su.tower_compose(
        su.random_colouring(2, 3, 3, seed=9), [("up2", 2, 2), ("up1b", 4, 3)]),
}


@pytest.mark.parametrize("name", list(SPAN_CASES))
def test_span_matches_edge_colours(base36, part35, name):
    c = SPAN_CASES[name](base36, part35)
    k, n = c.uniformity, c.num_vertices
    rng = random.Random(name)
    for i in range(300):
        # every other set comes from the first 16 vertices, where delta
        # sequences repeat and the per-sequence memo answers
        top = 16 if i % 2 else n
        ts = tuple(sorted(rng.sample(range(1, top + 1), rng.randint(k, k + 5))))
        want = {c.colour(e) for e in itertools.combinations(ts, k)}
        assert c.span(ts) == want, ts


def test_tower_compose(base36, part35):
    assert su.tower_compose(base36, []) is base36
    t1 = su.tower_compose(base36, [("up1", 3, 5)])
    assert (t1.uniformity, t1.num_vertices) == (4, 64)
    t2 = su.tower_compose(base36, [("up2", 3, 3)])
    assert (t2.uniformity, t2.num_vertices) == (6, 64)
    # chained: 4-uniform on 64 vertices -> 8-uniform on 2^64
    t3 = su.tower_compose(base36, [("up1", 3, 5), ("up1", 4, 5)])
    assert (t3.uniformity, t3.num_vertices) == (5, 2**64)
    assert t3.budget == 2 * 9 + 5 - 2
    rng = random.Random(0)
    e = set()
    while len(e) < 5:
        e.add(1 + rng.randrange(2**64))
    e = tuple(sorted(e))
    c1 = t3.colour(e)
    assert c1 == t3.colour(e)
    trace = t3.explain(e)
    assert trace["case"]


def test_tower_infeasible_schedule_reports_step(base36, part35):
    with pytest.raises(ParameterError, match="step 1"):
        su.tower_compose(base36, [("up1", 4, 5)])
    # up2 checks its k too: 5 is not the uniformity it steps up from
    with pytest.raises(ParameterError, match="step 1 \\(up2\\)"):
        su.tower_compose(base36, [("up2", 5, 2)])
    with pytest.raises(ParameterError, match="step 2 \\(up2\\)"):
        su.tower_compose(base36, [("up1", 3, 5), ("up2", 5, 2)])
    # a lift step names the uniformity s it lifts from, and needs k > s
    with pytest.raises(ParameterError, match="step 2 \\(lift\\)"):
        su.tower_compose(base36, [("up1", 3, 5), ("lift", 3, 6)])
    with pytest.raises(ParameterError, match="step 1 \\(lift\\): lifting needs k > s"):
        su.tower_compose(base36, [("lift", 3, 3)])


def test_schedule_parsing_roundtrip():
    text = "base random 3 6 3 42\nup1 3 5\nup2 4 10\nlift 8 9\n"
    spec, steps = su.parse_schedule(text)
    assert spec == ("random", 3, 6, 3, 42)
    assert steps == [("up1", 3, 5), ("up2", 4, 10), ("lift", 8, 9)]
    assert su.parse_schedule("# tower\n\n" + text.replace("\n", " # step\n")) == (
        spec, steps
    )
    with pytest.raises(FileFormatError):
        su.parse_schedule("up1 3\n")
    with pytest.raises(FileFormatError):
        su.parse_schedule("up1 3 5\nbase file x\n")


def _format_from_table(c):
    """The export as written from a sorted edge table."""
    lines = [f"{c.uniformity} {c.num_vertices} {c.budget}"]
    table = dict(zip(c._edges(), c.edge_colours()))
    for e in sorted(table):
        lines.append(" ".join(map(str, e)) + " " + su.colour_str(table[e]))
    return "\n".join(lines) + "\n"


def test_format_tabulated_from_codes_matches_table():
    for k, n, q, seed in ((1, 5, 3, 0), (2, 9, 4, 1), (3, 12, 2, 7), (4, 9, 300, 2)):
        drawn = su.random_colouring(k, n, q, seed)
        text = su.format_tabulated(drawn)
        assert "table" not in vars(drawn)
        assert text == _format_from_table(drawn)
        head, *rows = text.splitlines(keepends=True)
        random.Random(seed).shuffle(rows)
        parsed = su.parse_tabulated(head + "".join(rows))
        assert su.format_tabulated(parsed) == _format_from_table(parsed) == text


def test_tabulated_roundtrip(base36):
    text = su.format_tabulated(base36)
    back = su.parse_tabulated(text)
    assert dict(zip(back._edges(), back.edge_colours())) == dict(
        zip(base36._edges(), base36.edge_colours())
    )
    assert back.budget == base36.budget
    with pytest.raises(FileFormatError):
        su.parse_tabulated("2 4\n")
    with pytest.raises(FileFormatError):
        su.parse_tabulated("2 3 1\n1 2 b1\n1 3 b2\n2 3 b1\n")  # budget exceeded
    # the edge count is right, but the last edge is not a 2-subset of 1..4
    head = "2 4 1\n1 2 b1\n1 3 b1\n1 4 b1\n2 3 b1\n2 4 b1\n"
    for bad in ("3 9", "0 3", "3 3"):
        with pytest.raises(FileFormatError, match="c.txt:7:"):
            su.parse_tabulated(head + bad + " b1\n", path="c.txt")


# --- witness extraction ---------------------------------------------------------

def test_witness_reports_revalidate(base36, part35):
    up1 = su.step_up_1(base36, part35)
    up1b = su.step_up_1b(base36, part35)
    up2 = su.step_up_2(base36, 3)
    rng = random.Random(17)
    for c, target in ((up1, 5), (up1b, 3), (up2, 3)):
        for _ in range(100):
            vs = sorted(rng.sample(range(1, 65), 28))
            rep = su.witness_p_colours(c, vs)
            assert rep.revalidate(c, vs)
            if rep.outcome == "p-colours":
                assert len(rep.edges) == target
                assert len({col for _, col in rep.edges}) == target


def test_witness_from_realized_class_representatives(base36, part35):
    # build a vertex set that realizes each class representative, then
    # check the hunt succeeds on it
    up1 = su.step_up_1(base36, part35)
    host = list(range(1, 65))
    rep = su.witness_p_colours(up1, host)
    assert rep.outcome == "p-colours"
    seen = {col for _, col in rep.edges}
    assert len(seen) == 5


def test_witness_too_small_and_errors(base36, part35):
    up1 = su.step_up_1(base36, part35)
    rep = su.witness_p_colours(up1, [5, 9])
    assert rep.outcome == "branch" and rep.branch["reason"] == "too-small"
    with pytest.raises(ParameterError):
        su.witness_p_colours(base36, [1, 2, 3, 4])
    with pytest.raises(ParameterError):
        su.witness_p_colours(up1, [0, 1, 2, 3, 4])


def test_witness_homogeneous_branch(base36, part35):
    # consecutive vertices 1..6 have host deltas (1, 2, 1, 3, 1), in which
    # no pattern of class 2 is max-induced
    up1 = su.step_up_1(base36, part35)
    rep = su.witness_p_colours(up1, [1, 2, 3, 4, 5, 6])
    assert rep.outcome == "branch"
    assert rep.branch["reason"] == "homogeneous"
    assert rep.revalidate(up1, [1, 2, 3, 4, 5, 6])


def test_forged_branch_reports_fail_revalidation(base36, part35):
    up1 = su.step_up_1(base36, part35)
    up2 = su.step_up_2(base36, 3)
    small = su.witness_p_colours(up1, [5, 9])
    assert small.revalidate(up1, [5, 9])
    assert not small.revalidate(up1, [5, 9, 12, 20, 33])
    forged = su.WitnessReport("branch", 5, branch={"reason": "too-small", "size": 3})
    assert not forged.revalidate(up1, [5, 9])
    # consecutive vertices give few distinct deltas: (1, 2, 3) is missing
    missing = su.witness_p_colours(up2, range(1, 8))
    assert missing.branch["reason"] == "separated-missing"
    assert missing.revalidate(up2, range(1, 8))
    assert su.witness_p_colours(up2, range(1, 12)).outcome == "p-colours"
    assert not missing.revalidate(up2, range(1, 12))
    # homogeneous branch: the host deltas are recomputed from the vertices,
    # the indices must be max-induced and the missing class unrealized
    homog = su.witness_p_colours(up1, range(1, 7))
    assert homog.branch["missing"] == "class 2"
    assert su.witness_p_colours(up1, range(1, 65)).outcome == "p-colours"
    forgeries = [
        (range(1, 65), {"host_deltas": (1, 1, 1), "delta_indices": (1, 2),
                        "delta_values": (1, 1)}),
        (range(1, 7), {"host_deltas": (1, 1, 1), "delta_indices": (1, 2),
                       "delta_values": (1, 1)}),
        # (1, 3) in host deltas (1, 2, 1, 3, 1) skips the larger 2 between
        (range(1, 7), {"delta_indices": (1, 3), "delta_values": (1, 1)}),
        (range(1, 7), {"missing": "class 1"}),
        (range(1, 7), {"missing": "class 9"}),
        (range(1, 7), {"length": 99}),
    ]
    for vertices, fields in forgeries:
        forged = su.WitnessReport("branch", 5, branch={**homog.branch, **fields})
        assert not forged.revalidate(up1, vertices), fields
    # each construction owns its fallback, and the target is its forced count
    assert su.witness_p_colours(up1, range(1, 9)).outcome == "p-colours"
    first = su.witness_p_colours(up1, range(1, 65)).edges[0]
    up2p2 = su.step_up_2(base36, 2)
    assert missing.branch["permutation"] == (1, 2, 3)
    separated = {"reason": "separated-missing", "distinct_deltas": 3}
    forged_reports = [
        # (1, 2, 3) has no separated realization in 1..8, but up1 has no
        # such fallback
        (up1, range(1, 9), su.WitnessReport(
            "branch", 5, branch={**separated, "permutation": (1, 2, 3)})),
        # (3, 2, 1) is missing too, but it is not among the first p = 2
        (up2p2, range(1, 8), su.WitnessReport(
            "branch", 2, branch={**separated, "permutation": (3, 2, 1)})),
        # a malformed permutation is rejected, not raised on
        (up2, range(1, 8), su.WitnessReport(
            "branch", 3, branch={**separated, "permutation": (1, 1, 2)})),
        (up1, [5, 9], su.WitnessReport(
            "branch", 99, branch={"reason": "too-small", "size": 2})),
        (up1, range(1, 65), su.WitnessReport("p-colours", 1, edges=(first,))),
        # a true branch under an unknown outcome or the other reason
        (up1, range(1, 7), su.WitnessReport("bogus", 5, branch=homog.branch)),
        (up1, range(1, 7), su.WitnessReport(
            "branch", 5, branch={**homog.branch, "reason": "separated-missing"})),
        (up2, range(1, 8), su.WitnessReport(
            "branch", 3, branch={**missing.branch, "reason": "homogeneous"})),
        (up2, range(1, 8), su.WitnessReport(
            "branch", 3, branch={**missing.branch, "distinct_deltas": 4})),
    ]
    for c, vertices, forged in forged_reports:
        assert not forged.revalidate(c, vertices), forged


def test_witness_reports_are_pinned(base36, part35):
    """Witness reports on 1,600 seeded vertex sets, every outcome and
    branch reason among them, hash to a fixed digest."""
    colourings = [
        ("up1", su.step_up_1(base36, part35)),
        ("up1b", su.step_up_1b(base36, part35)),
        ("up2p3", su.step_up_2(base36, 3)),
        ("up2p6", su.step_up_2(base36, 6)),
    ]
    rng = random.Random(22)
    digest = hashlib.sha256()
    kinds = set()
    for name, c in colourings:
        for _ in range(400):
            vs = sorted(rng.sample(range(1, 65), rng.randint(2, 40)))
            rep = su.witness_p_colours(c, vs)
            kinds.add((rep.outcome, (rep.branch or {}).get("reason")))
            digest.update(repr(
                (name, vs, rep.outcome, rep.target, rep.edges, rep.branch)
            ).encode())
    assert kinds == {("p-colours", None), ("branch", "too-small"),
                     ("branch", "homogeneous"), ("branch", "separated-missing")}
    assert digest.hexdigest() == (
        "3620a6164a0bf012cbfc6c8033819fa803e9a93e5c1581a2d14b5babdce6dba7"
    )


# --- determinism ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 64), min_size=6, max_size=6))
def test_up2_deterministic(vs):
    base = su.random_colouring(3, 6, 3, seed=42)
    up2 = su.step_up_2(base, 3)
    e = tuple(sorted(vs))
    assert up2.colour(e) == up2.colour(tuple(reversed(e)))
