"""Pattern-class partitions, doubling colourings, schedules, witnesses."""

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


def test_tower_compose(base36, part35):
    assert su.tower_compose(base36, []) is base36
    t1 = su.tower_compose(base36, [("up1", part35)])
    assert (t1.uniformity, t1.num_vertices) == (4, 64)
    t2 = su.tower_compose(base36, [("up2", 3)])
    assert (t2.uniformity, t2.num_vertices) == (6, 64)
    # chained: 4-uniform on 64 vertices -> 8-uniform on 2^64
    part45 = su.partition_patterns(4, 5)
    t3 = su.tower_compose(base36, [("up1", part35), ("up1", part45)])
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
    part45 = su.partition_patterns(4, 5)
    with pytest.raises(ParameterError, match="step 1"):
        su.tower_compose(base36, [("up1", part45)])


def test_schedule_parsing_roundtrip():
    text = "base random 3 6 3 42\nup1 3 5\nup2 4 10\n"
    spec, steps = su.parse_schedule(text)
    assert spec == ("random", 3, 6, 3, 42)
    assert steps == [("up1", 3, 5), ("up2", 4, 10)]
    assert su.format_schedule(spec, steps) == text
    with pytest.raises(FileFormatError):
        su.parse_schedule("up1 3\n")
    with pytest.raises(FileFormatError):
        su.parse_schedule("up1 3 5\nbase file x\n")


def test_tabulated_roundtrip(base36):
    text = su.format_tabulated(base36)
    back = su.parse_tabulated(text)
    assert back.table == base36.table
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
    # consecutive vertices 1..6 give delta sequences over {1,2} only, so
    # a strictly increasing length-3 delta subsequence cannot exist
    up1 = su.step_up_1(base36, part35)
    rep = su.witness_p_colours(up1, [1, 2, 3, 4, 5, 6])
    assert rep.outcome == "branch"
    assert rep.branch["reason"] == "homogeneous"
    assert rep.revalidate(up1, [1, 2, 3, 4, 5, 6])


# --- determinism ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 64), min_size=6, max_size=6))
def test_up2_deterministic(vs):
    base = su.random_colouring(3, 6, 3, seed=42)
    up2 = su.step_up_2(base, 3)
    e = tuple(sorted(vs))
    assert up2.colour(e) == up2.colour(tuple(reversed(e)))
