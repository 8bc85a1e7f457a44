"""The index of a union's coordinate leaves against plain-Fraction oracles,
the cached scaled forms of the leaves, and how the witness searches grow
with the width of a union."""

import math
import pickle
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niemytzki import descriptive, geometry, setdsl
from niemytzki.descriptive import (
    _BALL_SEARCH_BUDGET,
    _DISJOINT,
    _INSIDE,
    _balls_in_ball,
    _closed_ball_witness,
    _fixed_balls,
    compare_topologies,
    subset,
)
from niemytzki.geometry import DimensionMismatch, _unscaled
from niemytzki.setdsl import (
    IN,
    OUT,
    Cantor,
    ClosedBall,
    Complement,
    FiniteSet,
    Inter,
    OpenBall,
    SinglePoint,
    Union,
    _compiled,
    complement,
    join,
    leaves,
    member,
    normalize,
    parse,
    random_expr,
)
from niemytzki.theorems import classify
from niemytzki.trivalent import FALSE, TRUE

from oracles import (
    ref_tree,
    tree_member_ref,
    union_holds_ball_ref,
    union_member_ref,
    union_misses_ball_ref,
)

_DEN = 10**4
_coordinate = st.fractions(min_value=-20, max_value=20, max_denominator=_DEN)
_radius = st.fractions(min_value=Fr(1, _DEN), max_value=10, max_denominator=_DEN)


def _shifted(center, d):
    """The center moved by d along the first axis."""
    return (center[0] + d,) + tuple(center[1:])


@st.composite
def _union_case(draw):
    """(members, c, r, p) in Q^m, m = 1..3: a union as oracle tuples (see
    tests/oracles.py), the closed ball B[c, r] and a query point p.

    First coordinates come from a small pool holding c_1 and c_1 ± r, so
    points repeat first coordinates and lie exactly on the sphere of
    B[c, r]; balls are free, concentric with B[c, r] (of its radius or
    not), or tangent to it from inside or outside along the first axis."""
    m = draw(st.integers(min_value=1, max_value=3))
    coords = st.lists(_coordinate, min_size=m, max_size=m).map(tuple)
    c, r = draw(coords), draw(_radius)
    firsts = [c[0], c[0] - r, c[0] + r, draw(_coordinate), draw(_coordinate)]

    def point():
        rest = c[1:] if draw(st.booleans()) else draw(coords)[1:]
        return (draw(st.sampled_from(firsts)),) + tuple(rest)

    def ball():
        R = draw(st.sampled_from([draw(_radius), r]))
        how = draw(st.sampled_from(["free", "concentric", "outside", "inside"]))
        sign = draw(st.sampled_from([1, -1]))
        if how == "free":
            return draw(coords), R
        if how == "concentric":
            return c, R
        if how == "outside":
            return _shifted(c, sign * (r + R)), R
        R = r + draw(st.sampled_from([0, R]))
        return _shifted(c, sign * (R - r)), R

    members = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["point", "finite", "cball", "oball"]))
        if kind == "point":
            members.append(("point", point()))
        elif kind == "finite":
            members.append(("finite", tuple(point() for _ in range(draw(st.integers(1, 3))))))
        else:
            members.append((kind, *ball()))
    other = draw(st.sampled_from(["cantor", "!cball"]))
    members.insert(draw(st.integers(0, len(members))),
                   ("cantor",) if other == "cantor" else ("!cball", *ball()))

    sphere = [_shifted(leaf[1], s * leaf[2]) for leaf in members
              if leaf[0] in ("cball", "oball", "!cball") for s in (1, -1)]
    held = [leaf[1] for leaf in members if leaf[0] == "point"]
    p = draw(st.sampled_from([c, _shifted(c, r), _shifted(c, -r), point(), draw(coords),
                              *sphere, *held]))
    return members, c, r, p


def _node(leaf):
    kind = leaf[0]
    if kind == "point":
        return SinglePoint(leaf[1])
    if kind == "finite":
        return FiniteSet(leaf[1])
    if kind == "cantor":
        return Cantor()
    ball = (ClosedBall if kind != "oball" else OpenBall)(leaf[1], leaf[2])
    return Complement(ball) if kind == "!cball" else ball


@given(_union_case())
def test_the_union_index_equals_the_oracle(case):
    members, c, r, p = case
    b = (geometry._scaled(c), r)
    # the union, the union of its coordinate leaves alone, and each member
    # alone, where it sets the largest radius
    leaves = [leaf for leaf in members if leaf[0] not in ("cantor", "!cball")]
    for part in (members, leaves, *([leaf] for leaf in members)):
        v = Union(tuple(map(_node, part)))
        assert (member(v, p) is IN) == union_member_ref(part, p)
        assert _INSIDE[Union](v, *b) == union_holds_ball_ref(part, c, r)
        assert _INSIDE[Union](v, *b, OpenBall) == union_holds_ball_ref(part, c, r, closed=False)
        # the Cantor row is exact on the line, and only sound in R^2 and R^3
        if ("cantor",) not in part or len(c) == 1:
            assert _DISJOINT[Union](v, *b) == union_misses_ball_ref(part, c, r)
    u = Union(tuple(map(_node, members)))
    # a point or a finite set lies in the union, or one of its points is
    # the witness of the gap
    assert subset(SinglePoint(p), u, budget=20) is (
        TRUE if union_member_ref(members, p) else FALSE)
    pts = (p, c)
    assert subset(FiniteSet(pts), u, budget=20) is (
        TRUE if all(union_member_ref(members, q) for q in pts) else FALSE)
    for node in u.members:
        assert subset(node, u, budget=20) is TRUE


@given(_union_case())
def test_the_index_cells_and_span_equal_fraction_arithmetic(case):
    members, c, r, p = case
    coords = [leaf for leaf in members if leaf[0] not in ("cantor", "!cball")]
    u = Union(tuple(map(_node, coords)))
    index = u.index
    points = [q for leaf in coords if leaf[0] in ("point", "finite")
              for q in ((leaf[1],) if leaf[0] == "point" else leaf[1])]
    balls = [leaf[1:] for leaf in coords if leaf[0] in ("cball", "oball")]
    # the points and the balls in exact first-coordinate order
    firsts = [Fr(X[0], d) for X, d in index.point_forms]
    assert firsts == sorted(q[0] for q in points)
    assert [b.center[0] for b in index.balls] == sorted(C[0] for C, _ in balls)
    if balls:
        R = max(radius for _, radius in balls)
        s = math.ceil(1 / R)
        assert index.scale == s
        assert list(index.ball_floors) == [math.floor((b.center[0] - R) * s) for b in index.balls]
        assert list(index.ball_tops) == [math.floor((b.center[0] + R) * s) for b in index.balls]
    # the slab query is exact: the points of the slab, in order, about c
    # and about p, whose slab ends often fall on a point
    for y, radius in ((c, r), (p, r), (p, Fr(0))):
        near = index.points_between(geometry._scaled(y), radius)
        assert near == [form for form, x in zip(index.point_forms, firsts)
                        if abs(x - y[0]) <= radius]
        assert set(near) == {geometry._scaled(q) for q in points if abs(q[0] - y[0]) <= radius}
    # the span of the union's test holds each point and each ball along x_1
    a, b, top, g = _compiled(u)[2]
    lo, hi = Fr(a, b), Fr(top, g)
    assert all(lo <= q[0] <= hi for q in points)
    assert all(lo <= C[0] - radius and C[0] + radius <= hi for C, radius in balls)


def test_the_slab_query_reads_no_point_outside_the_slab():
    # many points in one unit cell: a query beside them finds none, and a
    # query among them only the points of its slab
    index = Union(tuple(SinglePoint((Fr(j, 400),)) for j in range(200))).index
    assert index.points_between(((3,), 4), Fr(1, 8)) == []
    assert index.points_between(((1,), 4), Fr(1, 400)) == [((99,), 400), ((1,), 4), ((101,), 400)]


def test_a_union_of_mixed_arity_is_refused():
    with pytest.raises(DimensionMismatch):
        member(Union((SinglePoint((Fr(1),)), SinglePoint((Fr(1), Fr(2))))), (Fr(1),))


def test_only_a_union_with_a_point_or_ball_member_builds_an_index(monkeypatch):
    built, near = [], []
    init, balls_near = setdsl.UnionIndex.__init__, setdsl.UnionIndex.balls_near
    monkeypatch.setattr(setdsl.UnionIndex, "__init__",
                        lambda index, members: built.append(members) or init(index, members))
    monkeypatch.setattr(setdsl.UnionIndex, "balls_near",
                        lambda index, *args: near.append(args) or balls_near(index, *args))
    # two intersections, with no union below them: its members are all others
    u = parse("(oball(0;1) & !point(1/2)) | (!cantor & lattice)", 2)
    for p in (Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2), Fr(5)):
        assert (member(u, (p,)) is IN) == tree_member_ref(ref_tree(u), (p,))
    assert built == [] and "index" not in vars(u)
    # a wide union of points and balls is read through its index
    full, half = _wide(16)
    wide = parse(full, 2)
    assert subset(parse(half, 2), wide) is TRUE
    assert member(wide, (Fr(-3),)) is IN
    assert built.count(wide.members) == 1 and near


# --- the cached forms ----------------------------------------------------------

def _leaves():
    return [SinglePoint((Fr(1, 3), Fr(-2))), FiniteSet(((Fr(1, 3), Fr(-2)), (Fr(5, 7), Fr(0)))),
            ClosedBall((Fr(1, 3), Fr(-2)), Fr(1, 2)), OpenBall((Fr(5, 7), Fr(0)), Fr(3))]


@pytest.mark.parametrize("make", [_leaves, lambda: [Union(tuple(_leaves()))]],
                         ids=["leaves", "union"])
def test_the_caches_are_not_part_of_the_value(make):
    for fresh, cached in zip(make(), make()):
        name = "index" if type(cached) is Union else "scaled"
        getattr(cached, name)
        assert name in vars(cached) and name not in vars(fresh)
        assert fresh == cached and hash(fresh) == hash(cached) and repr(fresh) == repr(cached)
        assert pickle.dumps(fresh) == pickle.dumps(cached)
        restored = pickle.loads(pickle.dumps(cached))
        assert restored == fresh and name not in vars(restored)


def test_each_point_is_scaled_once(monkeypatch):
    # every ball is near the query along the first axis, and none holds it
    u = Union(tuple(ClosedBall((Fr(i, 7), Fr(0)), Fr(2)) for i in range(5)))
    p = (Fr(1, 3), Fr(3))
    assert member(u, p) is OUT  # the balls' forms are cached from here on
    calls = []

    def spy(coords):
        calls.append(coords)
        return geometry._scaled(coords)

    monkeypatch.setattr(setdsl, "_scaled", spy)
    assert member(u, p) is OUT and calls == [p]
    # no candidate ball's center is formed as a point, in either module: each
    # is moved on integers from its leaf's cached form, and the fixed ones
    # are formed once per arity, so a warm search forms nothing, however
    # many candidates it tries
    monkeypatch.setattr(descriptive, "_scaled", spy)
    wide = Complement(parse(_wide(128)[0], 2))
    assert _closed_ball_witness(Complement(u), 2)
    assert _closed_ball_witness(wide, 1)
    calls.clear()
    assert _closed_ball_witness(Complement(u), 2)
    assert _closed_ball_witness(wide, 1) and calls == []


# --- growth with width -----------------------------------------------------------

def _wide(k: int) -> tuple[str, str]:
    """k distinct points on [0, k) and k/4 disjoint closed balls left of 0,
    interleaved, and the union of the first half of them."""
    rng = random.Random(k)
    members = []
    for i in range(k):
        members.append(f"point({Fr(i) + Fr(rng.randint(0, 49), 50)})")
        if i % 4 == 3:
            members.append(f"cball({-3 - 3 * (i // 4)};{Fr(rng.randint(1, 4), 4)})")
    return " | ".join(members), " | ".join(members[: len(members) // 2])


def _comparisons(k: int, monkeypatch) -> int:
    """Squared-distance comparisons of one cold classify and one compare."""
    full, half = _wide(k)
    count = [0]
    kernel = geometry._sq_int

    def counted(p, q):
        count[0] += 1
        return kernel(p, q)

    descriptive._pair_flags.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_sq_int", counted)
        classify(full, 2)
        compare_topologies(parse(half, 2), parse(full, 2))
    return count[0]


def test_witness_searches_grow_near_linearly_with_width(monkeypatch):
    # a full walk of the union per candidate made this ratio 12.5
    ratio = _comparisons(800, monkeypatch) / _comparisons(200, monkeypatch)
    assert ratio <= 5  # 4 is linear


@pytest.mark.parametrize("k", [128, 1600])
def test_a_wide_union_takes_one_flag_cache_entry(k):
    # its leaves' records come from the per-kind primitive table
    descriptive._pair_flags.cache_clear()
    classify(_wide(k)[0], 2)
    assert descriptive._pair_flags.cache_info().currsize == 1


# --- the closed-ball search ------------------------------------------------------

def _ball_forms_ref(e, m):
    """The candidate balls the search tests on e in R^m, as (form, radius):
    on a union's complement those of the ball leaves under the members that
    are neither points nor balls, else those of every ball leaf, then the
    fixed ones, each once, in order, cut at the budget."""
    nodes = list(leaves(e))
    if type(e) is Complement and type(e.body) is Union:
        nodes = [leaf for member in e.body.members
                 if type(member) not in (SinglePoint, FiniteSet, ClosedBall, OpenBall)
                 for leaf in leaves(member)]
    cands = [cand for node in nodes if type(node) in (ClosedBall, OpenBall)
             for cand in _balls_in_ball(node)]
    cands += _fixed_balls(m)
    unique = {(q, r.numerator, r.denominator): (q, r) for q, r in cands}
    return list(unique.values())[:_BALL_SEARCH_BUDGET]


def _searched(e, m):
    """The closed-ball search's answer on e in R^m, after checking that it
    tests the reference's candidates in order, up to the first that lies in
    e, and no other."""
    inside, tested = _INSIDE[type(e)], []

    def spy(node, q, r, *kind):
        if node is e:
            tested.append((q, r))
        return inside(node, q, r, *kind)

    descriptive._INSIDE[type(e)] = spy
    try:
        found = _closed_ball_witness(e, m)
    finally:
        descriptive._INSIDE[type(e)] = inside
    want, hit = [], False
    for q, r in _ball_forms_ref(e, m):
        want.append((q, r))
        if inside(e, q, r):
            hit = True
            break
    assert tested == want, e
    assert found is hit, e
    return found


@settings(max_examples=100)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 4]))
def test_the_ball_search_answers_as_testing_every_candidate(seed, n):
    rng = random.Random(seed)
    e, m = normalize(random_expr(rng, n)), n - 1
    # beside a wide union of points and balls, so that a complement of a
    # union has member balls whose candidates it never harvests
    trees = [e, join(Union, (e, parse(_wide(16)[0], 2)))] if n == 2 else [e]
    for tree in trees:
        for searched in (tree, complement(tree)):
            _searched(searched, m)


@pytest.mark.parametrize("k", [16, 128, 512, 1024, 4096])
def test_the_ball_search_of_a_wide_union_answers_as_testing_every_candidate(k, monkeypatch):
    full = parse(_wide(k)[0], 2)
    assert _searched(full, 1)
    # the union has no member but points and balls, so its complement's
    # search harvests no ball at any width, and reads the fixed balls alone:
    # at k = 16 each of them meets the union
    assert _searched(Complement(full), 1) is (k != 16)
    harvested = []
    monkeypatch.setattr(descriptive, "_balls_in_ball",
                        lambda b: harvested.append(b) or _balls_in_ball(b))
    _closed_ball_witness(Complement(full), 1)
    assert harvested == []


@pytest.mark.parametrize("m, balls, nested", [(1, 165, 0), (1, 166, 0), (1, 160, 6),
                                             (1, 0, 165), (1, 0, 166), (3, 71, 0),
                                             (3, 72, 0), (3, 0, 71), (3, 0, 72)])
def test_the_complement_search_reads_the_last_fixed_ball_only_within_the_budget(m, balls, nested):
    # a point in each fixed ball but the last, the only candidate that
    # misses the union: the search reaches it exactly when the candidates of
    # the nested ball leaves and the fixed ones fit in the budget, however
    # many member balls there are
    far = [ClosedBall(_shifted((Fr(0),) * m, -100 - 3 * j), Fr(1)) for j in range(balls + nested)]
    pierced = [Inter((b, Complement(SinglePoint(b.center)))) for b in far[balls:]]
    held = [SinglePoint(_unscaled(q)) for q, _ in _fixed_balls(m)[:-1]]
    u = normalize(Union((*far[:balls], *pierced, *held)))
    offered = nested * (2 + 4 * m) + len(_fixed_balls(m))
    assert (offered <= _BALL_SEARCH_BUDGET) is (nested not in (166, 72))
    assert _searched(Complement(u), m) is (offered <= _BALL_SEARCH_BUDGET)


@settings(max_examples=100)
@given(_union_case(), st.sampled_from([ClosedBall, OpenBall]))
def test_a_nested_ball_offering_a_member_ball_candidate_answers_as_the_reference(case, kind):
    # the member B[c, r] and the nested ball about c of radius r/2 both offer
    # the ball about c of radius r/4: where the nested leaf offers it again,
    # the complement's search tests and refuses it
    members, c, r, p = case
    ball, nested = ClosedBall(c, r), kind(c, r / 2)
    assert set(_balls_in_ball(ball)) & set(_balls_in_ball(nested))
    u = normalize(Union((*map(_node, members), ball, Inter((nested, Complement(SinglePoint(p)))))))
    assert type(u) is Union and ball in u.index.members
    for e in (u, complement(u)):
        _searched(e, len(c))


def test_the_complement_of_a_union_tests_no_candidate_of_its_member_balls(monkeypatch):
    # a ball leaf inside an intersection member is no member: its
    # candidates are tested
    nested = "(cball(2000;1) & !point(2000))"
    u = parse(f"{_wide(128)[0]} | {nested}", 2)
    own = {(q, r) for b in u.members if type(b) in (ClosedBall, OpenBall)
           for q, r in _balls_in_ball(b)}
    inner = set(_balls_in_ball(parse("cball(2000;1)", 2)))
    tested = []
    inside = _INSIDE[Complement]
    monkeypatch.setitem(descriptive._INSIDE, Complement,
                        lambda e, q, r: tested.append((q, r)) or inside(e, q, r))
    assert _closed_ball_witness(Complement(u), 1)
    assert tested and own and not own & set(tested)
    assert inner <= set(tested)


def test_a_union_search_harvests_only_its_first_ball(monkeypatch):
    # the first candidate of the union's first ball lies in that ball
    u = parse(_wide(128)[0], 2)
    harvested = []
    monkeypatch.setattr(descriptive, "_balls_in_ball",
                        lambda b: harvested.append(b) or _balls_in_ball(b))
    assert _closed_ball_witness(u, 1)
    assert harvested == [next(b for b in leaves(u) if type(b) is ClosedBall)]
