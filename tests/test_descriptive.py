import gc
import random
import sys
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niemytzki.descriptive import (
    _ALL_FLAGS,
    _BIT,
    _DISJOINT,
    _HALF,
    _INSIDE,
    _PRIMITIVE_PAIRS,
    _RULES,
    _SEARCHES,
    SoundnessError,
    TopologyOrder,
    _ball_forms,
    _ball_within,
    _bits,
    _close,
    _structural_subset,
    _flip,
    _pair_flags,
    compare,
    compare_topologies,
    contains_closed_uncountable,
    flag_record,
    infer,
    subset,
)
from niemytzki import descriptive, setdsl
from niemytzki.geometry import DimensionMismatch, _scaled
from niemytzki.setdsl import (
    DEFAULT_BUDGET,
    IN,
    All,
    Bernstein,
    Cantor,
    ClosedBall,
    Complement,
    Empty,
    FiniteSet,
    Inter,
    Lattice,
    OpenBall,
    Rationals,
    SinglePoint,
    Union,
    _COORDS,
    _compiled,
    _shifted,
    arity,
    complement,
    find_witness,
    join,
    leaves,
    member,
    normalize,
    parse,
    random_expr,
    to_text,
)
from niemytzki.theorems import classify
from niemytzki.trivalent import FALSE, TRUE, UNKNOWN

import catalog
from oracles import (
    FlagContradiction,
    ball_disjoint_ref,
    ball_member_ref,
    ball_within_ref,
    close_pair_ref,
    leaf_misses_ball_ref,
    ref_tree,
    scaled_ref,
    tree_member_ref,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.inputs import wide_members  # noqa: E402


def V(flag: bool):
    return TRUE if flag else FALSE


class TestPrimitiveAxioms:
    def test_rationals_axioms(self):
        d = infer(Rationals())
        assert d.countable is TRUE
        assert d.f_sigma is TRUE
        assert d.g_delta is FALSE  # Baire-category axiom, trusted

    def test_complement_swap(self):
        d = infer(Complement(Rationals()))
        assert d.g_delta is TRUE
        assert d.f_sigma is FALSE
        assert d.co_countable is TRUE

    def test_bernstein_axioms(self):
        d = infer(Bernstein())
        assert d.g_delta is FALSE
        assert d.f_sigma is FALSE
        assert d.contains_closed_uncountable is FALSE
        assert infer(Complement(Bernstein())).contains_closed_uncountable is FALSE

    def test_cantor_axioms(self):
        d = infer(Cantor())
        assert d.closed is TRUE
        assert d.compact is TRUE
        assert d.countable is FALSE
        assert d.contains_closed_uncountable is TRUE


class TestContainsClosedUncountable:
    def test_all_contains_a_closed_ball(self):
        assert contains_closed_uncountable(All()) is TRUE

    def test_rationals_is_countable(self):
        assert contains_closed_uncountable(Rationals()) is FALSE

    def test_bernstein_has_no_uncountable_compacta(self):
        assert contains_closed_uncountable(Bernstein()) is FALSE

    def test_annulus_via_ball_witness(self):
        e = parse("cball(0;1) & !oball(0;1/2)")
        assert contains_closed_uncountable(e) is TRUE

    def test_ball_minus_points_and_lattice(self):
        e = parse("oball(0;1) & !point(0) & !lattice")
        assert contains_closed_uncountable(e) is TRUE

    def test_ball_minus_cantor(self):
        e = parse("oball(1/2;1/2) & !cantor")
        assert contains_closed_uncountable(e) is TRUE


class TestCatalogSoundness:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_never_contradicts_ground_truth(self, dimension):
        for name, expr, truth, _, _ in catalog.build(dimension):
            d = infer(expr)
            for flag, want in truth.items():
                got = getattr(d, flag)
                assert got in (UNKNOWN, V(want)), (name, flag, got, want)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_decides_the_expected_flags(self, dimension):
        for name, expr, truth, decided, _ in catalog.build(dimension):
            d = infer(expr)
            for flag in decided:
                got = getattr(d, flag)
                assert got is V(truth[flag]), (name, flag, got)

    def test_catalog_is_large_enough(self):
        assert len(catalog.CATALOG) >= 12


class TestInvariants:
    def test_record_internal_implications(self):
        rng = random.Random(5)
        for _ in range(300):
            d = infer(random_expr(rng, 2, max_depth=4))
            if d.closed is TRUE:
                assert d.g_delta is TRUE and d.f_sigma is TRUE
            if d.open is TRUE:
                assert d.g_delta is TRUE
            if d.countable is TRUE:
                assert d.f_sigma is TRUE
            assert not (d.equals_all is TRUE and d.equals_empty is TRUE)

    def test_co_countable_kills_the_complement_pivot(self):
        rng = random.Random(6)
        for _ in range(200):
            e = random_expr(rng, 3, max_depth=3)
            if infer(e).co_countable is TRUE:
                assert contains_closed_uncountable(normalize(Complement(e))) is FALSE

    def test_g_delta_f_sigma_duality(self):
        rng = random.Random(7)
        for _ in range(300):
            e = random_expr(rng, 2, max_depth=3)
            d = infer(e)
            c = infer(normalize(Complement(e)))
            for a, b in ((d.g_delta, c.f_sigma), (d.f_sigma, c.g_delta),
                         (d.countable, c.co_countable), (d.closed, c.open)):
                if a is not UNKNOWN or b is not UNKNOWN:
                    assert a is b

    def test_infer_is_order_independent(self):
        parts = (Rationals(), Cantor(), ClosedBall((Fr(1),), Fr(2)), Bernstein())
        fwd = infer(Union(parts))
        rev = infer(Union(tuple(reversed(parts))))
        assert fwd == rev
        assert infer(Inter(parts)) == infer(Inter(tuple(reversed(parts))))

    def test_infer_is_deterministic(self):
        e = parse("(cantor | rationals) & !oball(0;2)")
        assert infer(e) == infer(e)


class TestSubset:
    def test_empty_in_anything(self):
        assert subset(Empty(), Cantor()) is TRUE

    def test_all_not_in_cantor(self):
        assert subset(All(), Cantor()) is FALSE

    def test_cantor_in_a_covering_ball(self):
        # the segment [0,1] x {0}^(m-1) fits in the closed ball around its middle
        assert subset(Cantor(), parse("cball(1/2;1/2)")) is TRUE
        assert subset(Cantor(), parse("cball(1/2,0;1/2)", 3)) is TRUE
        assert subset(Cantor(), parse("oball(1/2;2/3)")) is TRUE

    def test_cantor_touches_the_open_ball_boundary(self):
        # 0 and 1 lie on the sphere of B(1/2, 1/2): in the closed ball only
        assert subset(Cantor(), parse("oball(1/2;1/2)")) is FALSE

    def test_member_of_union(self):
        e = parse("lattice")
        assert subset(e, Union((e, Cantor()))) is TRUE

    def test_intersection_below_member(self):
        e = parse("lattice")
        assert subset(Inter((e, Cantor())), e) is TRUE

    def test_point_memberships(self):
        assert subset(SinglePoint((Fr(1, 3),)), Cantor()) is TRUE
        assert subset(SinglePoint((Fr(1, 2),)), Cantor()) is FALSE
        assert subset(parse("lattice"), Rationals()) is TRUE

    def test_ball_in_ball(self):
        assert subset(parse("cball(0;1)"), parse("cball(1/2;3/2)")) is TRUE
        assert subset(parse("cball(0;1)"), parse("oball(0;1/2)")) is FALSE

    def test_balls_of_different_arity_are_refused(self):
        # zip would pair the first coordinates only and call these nested
        with pytest.raises(DimensionMismatch):
            subset(parse("cball(0;1)"), parse("cball(0,0;2)", 3))

    def test_a_point_and_a_ball_of_different_arity_are_refused(self):
        # in both orders, before the structural test and after it
        point, ball = parse("point(0)"), parse("cball(0,0;1)", 3)
        for a, b in ((point, ball), (ball, point)):
            with pytest.raises(DimensionMismatch):
                subset(a, b)

    def test_unprovable_is_unknown(self):
        # no rational witness can separate L_n from its rational points
        assert subset(All(), Rationals()) is UNKNOWN


_DEN = 10**6
_coordinate = st.fractions(min_value=-20, max_value=20, max_denominator=_DEN)
_radius = st.fractions(min_value=Fr(1, _DEN), max_value=20, max_denominator=_DEN)


@st.composite
def _unit(draw, m):
    """A rational unit vector of R^m: ± the inverse stereographic image of a
    rational w in R^(m-1), (2w, |w|^2 - 1) / (|w|^2 + 1)."""
    w = draw(st.lists(st.fractions(-5, 5, max_denominator=30), min_size=m - 1, max_size=m - 1))
    n2 = sum((x * x for x in w), Fr(0))
    sign = draw(st.sampled_from([1, -1]))
    return tuple(sign * v / (n2 + 1) for v in [2 * x for x in w] + [n2 - 1])


def _along(c, s, u):
    return tuple(ci + s * ui for ci, ui in zip(c, u))


@st.composite
def _ball_case(draw):
    """(c, r, C, R, p) in Q^m, m = 1..4: the closed ball B[c, r], the ball of
    center C and radius R, and a point p.  The balls are free, internally
    tangent (|c - C| = R - r) or externally tangent (|c - C| = R + r); p is
    free, a center, or on the sphere of either ball."""
    m = draw(st.integers(min_value=1, max_value=4))
    coords = st.lists(_coordinate, min_size=m, max_size=m).map(tuple)
    C, R, r = draw(coords), draw(_radius), draw(_radius)
    how = draw(st.sampled_from(["free", "internal", "external", "concentric"]))
    if how == "free":
        c = draw(coords)
    elif how == "concentric":
        c = C
    else:
        if how == "internal" and r > R:
            r, R = R, r
        c = _along(C, R - r if how == "internal" else R + r, draw(_unit(m)))
    where = draw(st.sampled_from(["free", "center", "small sphere", "big sphere"]))
    if where == "free":
        p = draw(coords)
    elif where == "center":
        p = c
    else:
        p = _along(*((c, r) if where == "small sphere" else (C, R)), draw(_unit(m)))
    return c, r, C, R, p


@given(_ball_case())
def test_ball_predicates_equal_the_oracle(case):
    c, r, C, R, p = case
    for kind in (ClosedBall, OpenBall):
        closed = kind is ClosedBall
        for center, radius in ((C, R), (c, r)):
            want = ball_member_ref(p, center, radius, closed)
            assert (member(kind(center, radius), p) is TRUE) == want
        e = kind(C, R)
        assert _INSIDE[kind](e, _scaled(c), r) == ball_within_ref(c, r, True, C, R, closed)
        assert _DISJOINT[kind](e, _scaled(c), r) == ball_disjoint_ref(c, r, C, R, closed)
        for inner in (ClosedBall, OpenBall):
            want = ball_within_ref(c, r, inner is ClosedBall, C, R, closed)
            assert (subset(inner(c, r), e, budget=20) is TRUE) == want
    # B[c, r] holds no finite set and misses one iff it holds none of its points
    points = (C, p)
    b = (_scaled(c), r)
    assert not _INSIDE[SinglePoint](SinglePoint(p), *b)
    assert not _INSIDE[FiniteSet](FiniteSet(points), *b)
    assert _DISJOINT[SinglePoint](SinglePoint(p), *b) == (not ball_member_ref(p, c, r, True))
    assert _DISJOINT[FiniteSet](FiniteSet(points), *b) == (
        not any(ball_member_ref(q, c, r, True) for q in points))
    # point(p) and finite{p} are one point leaf: the same support and
    # arities, the same answer against the ball and the same flag record
    one, single = SinglePoint(p), FiniteSet((p,))
    assert _compiled(one)[1:] == _compiled(single)[1:]
    assert all(member(one, q) is member(single, q) for q in (p, c, C))
    assert _DISJOINT[SinglePoint](one, *b) == _DISJOINT[FiniteSet](single, *b)
    assert _PRIMITIVE_PAIRS[SinglePoint] == _PRIMITIVE_PAIRS[FiniteSet]


@pytest.mark.parametrize("depth", [1, 64, 65, 69, 200])
def test_the_cantor_row_is_exact_on_the_line_at_any_depth(depth):
    # B[c, r] with c = 3^-depth / 2 and r = 3^-depth / 10 is the interval
    # [2/5, 3/5] * 3^-depth, in a middle gap of C; about c = 3^-depth, a
    # point of C, it meets C
    r, e = Fr(1, 10 * 3 ** depth), Cantor()
    assert _DISJOINT[Cantor](e, ((1,), 2 * 3 ** depth), r) is True
    assert _DISJOINT[Cantor](e, ((1,), 3 ** depth), r) is False
    # so the closed-ball search finds a ball in the gap, about the ball leaf
    gap = parse(f"!cantor & cball({Fr(1, 2 * 3 ** depth)};{r})", 2)
    assert infer(gap).contains_closed_uncountable is TRUE


@pytest.mark.parametrize("e", [
    SinglePoint((Fr(0), Fr(5))), FiniteSet(((Fr(0), Fr(5)),)),
    ClosedBall((Fr(0), Fr(5)), Fr(1)), OpenBall((Fr(0), Fr(5)), Fr(1)),
    # a union compares the ball with the leaves near it, through _sq_sign
    Union((SinglePoint((Fr(0), Fr(5))), FiniteSet(((Fr(1, 2), Fr(5)),)))),
    Union((ClosedBall((Fr(0), Fr(5)), Fr(1)), OpenBall((Fr(9), Fr(5)), Fr(1)))),
], ids=["point", "finite", "cball", "oball", "union-of-points", "union-of-balls"])
def test_the_ball_rows_refuse_a_center_of_another_arity(e):
    with pytest.raises(DimensionMismatch, match="dimension"):
        _DISJOINT[type(e)](e, ((0,), 1), Fr(1))


@given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=4),
       st.integers(0, 3), st.fractions(max_denominator=10**6))
def test_a_shifted_form_is_the_form_of_the_shifted_point(coords, i, t):
    # canonical, so a candidate center moved on integers equals it moved in
    # Fractions
    i %= len(coords)
    moved = [*coords[:i], coords[i] + t, *coords[i + 1:]]
    assert _shifted(_scaled(coords), i, t.numerator, t.denominator) == scaled_ref(moved)


# Trees built in Python whose ball radius is an int, each with its twin of
# a Fraction radius: the ball searches work on its numerator and denominator.
INT_RADIUS_TREES = {
    "union": (lambda r: Union((ClosedBall((0,), r), SinglePoint((5,)))), 2),
    "inter": (lambda r: Inter((OpenBall((0, 1), 2 * r), Complement(SinglePoint((0, 1))))), 3),
    "complement": (lambda r: Complement(Union((OpenBall((1, 2), r), Lattice()))), 3),
}


@pytest.mark.parametrize("name", list(INT_RADIUS_TREES))
def test_an_int_radius_answers_as_its_fraction_twin(name):
    make, n = INT_RADIUS_TREES[name]
    answers = []
    for radius in (1, Fr(1)):
        e = make(radius)
        descriptive._pair_flags.cache_clear()  # the twins are equal keys
        answers.append((infer(e).to_json(), classify(e, n).to_json(),
                        subset(All(), e), subset(e, Complement(e)),
                        find_witness(e, dimension=n), find_witness(Complement(e), dimension=n)))
    assert answers[0] == answers[1]


class TestCompareTopologies:
    def test_empty_is_finest(self):
        assert compare_topologies(Empty(), All()) is TopologyOrder.FINER

    def test_equal_on_the_same_expression(self):
        e = parse("cantor | lattice")
        assert compare_topologies(e, e) is TopologyOrder.EQUAL

    def test_distinct_points_are_incomparable(self):
        a, b = SinglePoint((Fr(0),)), SinglePoint((Fr(1),))
        assert compare_topologies(a, b) is TopologyOrder.INCOMPARABLE

    def test_structural_subsets_give_finer_or_equal(self):
        rng = random.Random(11)
        for _ in range(150):
            base = random_expr(rng, 2, max_depth=2)
            extra = random_expr(rng, 2, max_depth=2)
            bigger = normalize(Union((base, extra)))
            assert subset(base, bigger) is TRUE
            assert compare_topologies(base, bigger) in (
                TopologyOrder.FINER,
                TopologyOrder.EQUAL,
            )


class TestSerialization:
    def test_desc_class_json(self):
        data = infer(Cantor()).to_json()
        assert data["closed"] == "true"
        assert data["countable"] == "false"
        assert set(data.values()) <= {"true", "false", "unknown"}


def test_pair_flags_cache_is_bounded():
    assert _pair_flags.cache_info().maxsize == 2**14


def test_the_complement_record_of_all_is_that_of_empty():
    # the complement's half is settled by the cross rules, never read off a row
    assert _flip(_PRIMITIVE_PAIRS[All]) == _PRIMITIVE_PAIRS[Empty]
    assert _flip(_PRIMITIVE_PAIRS[Empty]) == _PRIMITIVE_PAIRS[All]


@pytest.mark.parametrize("kind", list(_PRIMITIVE_PAIRS), ids=lambda kind: kind.__name__)
def test_primitive_pairs_leave_no_witness_search(kind):
    # the table is never searched, so each side must decide every flag a
    # witness search could settle
    t, f = _PRIMITIVE_PAIRS[kind]
    for shift in (0, _HALF):
        for name, _, _ in _SEARCHES:
            assert (t | f) >> shift & _BIT[name], (shift, name)


def _as_pair(record):
    """A record as the oracle's two dicts: the set's flags, the complement's."""
    t, f = record
    return tuple({name: bool(t >> shift & bit) for name, bit in _BIT.items()
                  if (t | f) >> shift & bit} for shift in (0, _HALF))


_SLOTS = [(shift, name) for shift in (0, _HALF) for name in _ALL_FLAGS]


@settings(max_examples=400)
@given(st.dictionaries(st.sampled_from(_SLOTS), st.booleans(), max_size=6))
def test_the_bit_closure_is_the_fixpoint_of_the_pair_oracle(assignment):
    record = (sum(_BIT[name] << shift for (shift, name), v in assignment.items() if v),
              sum(_BIT[name] << shift for (shift, name), v in assignment.items() if not v))
    try:
        expected = close_pair_ref(*_as_pair(record))
    except FlagContradiction:
        with pytest.raises(SoundnessError):
            _close(record, "tree")
        return
    assert _as_pair(_close(record, "tree")) == expected


def test_a_contradiction_names_the_flag_the_side_and_the_tree():
    tree = parse("cantor | point(1/3)", 2)
    # the complement of a set equal to L_n is empty: bounded and compact
    record = (_bits({"equals_all": TRUE})[0], _bits({"bounded": FALSE}, _HALF)[1])
    with pytest.raises(SoundnessError) as raised:
        _close(record, tree)
    assert str(raised.value) == (
        "contradiction on compact of the complement, bounded of the complement"
        f" for {tree!r}")


def test_the_flag_cache_holds_no_primitive():
    _pair_flags.cache_clear()
    infer(parse("point(0) | !cball(1;1/2) | bernstein"))
    infer(parse("!bernstein"))
    assert _pair_flags.cache_info().currsize == 1


# --- the structural subset rules ----------------------------------------------------

def _subset_in_the_former_order(a, b):
    """The structural subset rules with a union b tried member by member,
    and before a union a, as they were once ordered, and the closed-ball
    test of a ball against any set as the last row."""
    again = _subset_in_the_former_order
    if a == b or isinstance(a, Empty) or isinstance(b, All):
        return True
    if isinstance(b, Union) and (a in b.index.members or any(again(a, m) for m in b.members)):
        return True
    if isinstance(a, Union) and all(again(m, b) for m in a.members):
        return True
    if isinstance(a, Inter) and any(again(m, b) for m in a.members):
        return True
    if isinstance(b, Inter) and all(again(a, m) for m in b.members):
        return True
    if isinstance(a, Complement) and isinstance(b, Complement):
        return again(b.body, a.body)
    if type(a) in (SinglePoint, FiniteSet):
        return all(member(b, p) is IN for p in _COORDS[type(a)](a))
    if isinstance(a, Lattice) and isinstance(b, Rationals):
        return True
    if isinstance(a, Cantor) and isinstance(b, (ClosedBall, OpenBall)):
        rest = (Fr(0),) * (len(b.center) - 1)
        return all(member(b, (end,) + rest) is IN for end in (Fr(0), Fr(1)))
    if isinstance(a, (ClosedBall, OpenBall)) and isinstance(b, (ClosedBall, OpenBall)):
        return _ball_within(a.scaled, a.radius, b, type(a))
    if isinstance(a, (ClosedBall, OpenBall)):
        return _INSIDE[type(b)](b, a.scaled, a.radius)
    return False


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_the_rule_order_changes_no_structural_subset(seed, n):
    rng = random.Random(seed)
    e1, e2 = normalize(random_expr(rng, n)), normalize(random_expr(rng, n))
    both = normalize(Union((e1, e2)))
    for a, b in ((e1, e2), (e2, e1), (e1, both), (both, e1), (both, both), (e2, both)):
        assert (_structural_subset(a, b) is TRUE) == _subset_in_the_former_order(a, b)
    # an intersection and a union holding it, on either side: the splits of
    # a union on the left and an intersection on the right come first
    meet = normalize(Inter((e1, e2)))
    held = normalize(Union((meet, Cantor())))
    for x in (meet, held):
        for y in (e1, e2, both, meet, held):
            for a, b in ((x, y), (y, x)):
                assert (_structural_subset(a, b) is TRUE) == _subset_in_the_former_order(a, b), (a, b)
    # points and finite sets against each other, decided on their forms
    coords = [(Fr(0),) * (n - 1)] + [p for m in leaves(both) if type(m) in (SinglePoint, FiniteSet)
                                     for p in _COORDS[type(m)](m)]
    coords = coords[:5]
    pool = [SinglePoint(p) for p in coords] + [FiniteSet(tuple(coords[i::2])) for i in (0, 1)]
    pool.append(FiniteSet(tuple(coords + coords[:1])))  # a repeated point
    for a in pool:
        for b in pool + [both]:
            assert (_structural_subset(a, b) is TRUE) == _subset_in_the_former_order(a, b), (a, b)
    # balls on, inside, beside and far from the case's balls, against its
    # unions: a union on the right is tried only at the balls near a ball
    zero = (Fr(0),) * (n - 1)
    tried = [ClosedBall(zero, Fr(1)), OpenBall((Fr(5000),) + zero[1:], Fr(1, 8))]
    for m in [m for m in leaves(held) if type(m) in (ClosedBall, OpenBall)][:4]:
        (c, *rest), r = m.center, m.radius
        tried += [kind((c + shift,) + tuple(rest), r * scale)
                  for kind in (ClosedBall, OpenBall)
                  for shift, scale in ((0, 1), (0, Fr(1, 2)), (r / 2, Fr(1, 2)), (r, Fr(1, 2)),
                                       (100 * r, 1))]
    for a in tried:
        for b in (e1, e2, both, meet, held):
            assert (_structural_subset(a, b) is TRUE) == _subset_in_the_former_order(a, b), (a, b)


def _wide_shape():
    """A union of 24 points and 8 balls, the wide shape, and its first half."""
    rng = random.Random(11)
    members = [f"point({i + Fr(rng.randint(0, 49), 50)})" for i in range(32)]
    members[3::4] = [f"cball({-3 - 3 * i};1/2)" for i in range(8)]
    return parse(" | ".join(members), 2), parse(" | ".join(members[:16]), 2)


def test_a_sub_union_of_points_compiles_no_point_test():
    full, half = _wide_shape()
    assert subset(half, full) is TRUE
    points = [m for m in full.members if isinstance(m, SinglePoint)]
    assert len(points) == 24
    assert not any(hasattr(m, "_member_test") for m in points)


def test_a_union_against_a_union_compiles_no_point_test():
    full, half = _wide_shape()
    assert subset(full, half) is FALSE
    points = [m for m in half.members if isinstance(m, SinglePoint)]
    assert len(points) == 12
    assert not any(hasattr(m, "_member_test") for m in points)


def test_a_union_on_the_left_is_split_before_anything_else(monkeypatch):
    # each member of full against half once, up to the first that fails:
    # no member of half is tried as a container of all of full
    full, half = _wide_shape()
    calls = []
    structural = descriptive._structural_subset
    monkeypatch.setattr(descriptive, "_structural_subset",
                        lambda a, b: calls.append((a, b)) or structural(a, b))
    assert descriptive._structural_subset(full, half) is FALSE
    assert len(calls) <= len(full.members) + 1
    assert all(b is half for _, b in calls)


# --- the False half: a point's member test --------------------------------------

def _subset_ref(a, b, budget=DEFAULT_BUDGET, seed=0):
    """subset as it was before a point's member test could answer False:
    the structural rules' True, else a witness's False, else Unknown."""
    if _structural_subset(a, b) is TRUE:
        return TRUE
    gap = join(Inter, (a, complement(b)))
    return UNKNOWN if find_witness(gap, budget=budget, seed=seed) is None else FALSE


def _point_outside(a, b):
    """A point the tree oracle puts in a and not in b, among the point
    leaves of both trees and the witness of their gap, or None."""
    pool = [p for tree in (a, b) for leaf in leaves(tree) if type(leaf) in (SinglePoint, FiniteSet)
            for p in _COORDS[type(leaf)](leaf)]
    witness = find_witness(join(Inter, (a, complement(b))))
    if witness is not None:
        pool.append(witness)
    ta, tb = ref_tree(a), ref_tree(b)
    return next((p for p in pool
                 if tree_member_ref(ta, p) is True and tree_member_ref(tb, p) is False), None)


def _subset_pairs(e1, e2):
    """Pairs of trees built from e1 and e2: each against the other, against
    their union and their intersection, and the complements of both."""
    both, meet = join(Union, (e1, e2)), join(Inter, (e1, e2))
    pairs = [(e1, e2), (e2, e1), (e1, both), (both, e1), (both, e2), (meet, e1), (e1, meet)]
    return pairs + [(complement(b), complement(a)) for a, b in pairs]


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_a_subset_verdict_is_the_former_one_or_a_proved_false(seed, n):
    rng = random.Random(seed)
    e1, e2 = normalize(random_expr(rng, n)), normalize(random_expr(rng, n))
    pairs = _subset_pairs(e1, e2)
    if n == 2:  # a wide union and its first half, with e1 beside each
        full, half = _wide_shape()
        pairs += _subset_pairs(full, join(Union, (half, e1))) + [(full, half), (half, full)]
    for a, b in pairs:
        want, got = _subset_ref(a, b), subset(a, b)
        assert got is want or (want, got) == (UNKNOWN, FALSE), (a, b)
        if got is FALSE:
            assert _point_outside(a, b) is not None, (a, b)


def test_a_sub_union_compare_runs_no_witness_search(monkeypatch):
    # the first point of full outside half is OUT of it by half's member test
    full, half = _wide_shape()
    descriptive._subset_memo.cache_clear()
    monkeypatch.setattr(descriptive, "find_witness",
                        lambda *args, **kwargs: pytest.fail("find_witness ran"))
    assert compare(half, full) == (TRUE, FALSE, TopologyOrder.FINER)


@settings(max_examples=40)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_a_decided_subset_never_flips_with_the_budget_or_the_seed(seed, n):
    rng = random.Random(seed)
    e1, e2 = normalize(random_expr(rng, n)), normalize(random_expr(rng, n))
    for a, b in ((e1, e2), (e2, e1), (e1, join(Union, (e1, e2)))):
        decided = set()
        for s in (0, 5):
            verdicts = [subset(a, b, budget=budget, seed=s) for budget in (1, 30, DEFAULT_BUDGET)]
            # a larger budget searches the smaller one's candidates first
            for small, large in zip(verdicts, verdicts[1:]):
                assert small is UNKNOWN or large is small, (a, b, s, verdicts)
            decided.update(v for v in verdicts if v is not UNKNOWN)
        assert len(decided) <= 1, (a, b)


def test_a_wide_sub_union_past_the_budget_is_decided_false():
    # the budgeted search spends its 1,000 candidates on the first half's
    # members before it reaches a point of full outside half, so the former
    # rule answered Unknown; the member test of that point answers False
    members = wide_members(random.Random(71), 1024)
    full = parse(" | ".join(members), 2)
    half = parse(" | ".join(members[:len(members) // 2]), 2)
    assert _subset_ref(full, half) is UNKNOWN
    assert subset(full, half) is FALSE and subset(half, full) is TRUE
    point = next(m.coords for m in full.members if isinstance(m, SinglePoint)
                 and m not in half.index.members)
    assert tree_member_ref(ref_tree(full), point) is True
    assert tree_member_ref(ref_tree(half), point) is False


@pytest.mark.parametrize("ball, held", [
    ("cball(5000;1/8)", False),  # far from every ball
    ("oball(-6;1/4)", True),
    ("cball(-6;1/2)", True),
    ("cball(-7/2;1/2)", False),  # centered on a ball's edge
])
def test_a_ball_is_tried_only_against_the_balls_near_it(monkeypatch, ball, held):
    # no point holds a ball, and a ball that holds one holds its center, so
    # a ball against a union of points and balls reads only the balls near
    # its center along the first axis; a member of the union reads none
    full, _ = _wide_shape()
    a = parse(ball, 2)
    near = full.index.balls_near(a.scaled)
    assert len(near) <= 2 and not full.index.others
    read = []
    within = descriptive._ball_within
    monkeypatch.setattr(descriptive, "_ball_within",
                        lambda q, r, b, kind=ClosedBall: read.append(b) or within(q, r, b, kind))
    assert (_structural_subset(a, full) is TRUE) is held
    assert len(read) <= len(near)
    assert all(any(b is m for m in near) for b in read)
    assert bool(read) is (bool(near) and a not in full.index.members)


@pytest.mark.parametrize("budget", [0, -1, sys.maxsize + 1, 10**20])
@pytest.mark.parametrize("a, b, want", [
    ("all", "all", TRUE),  # pairs the structural rules decide
    ("empty", "all", TRUE),
    ("cantor", "cball(0;2)", TRUE),
    ("cball(0;1)", "oball(0;1)", FALSE),  # a pair the witness search decides
])
def test_a_budget_out_of_range_is_refused_whatever_the_sets(a, b, want, budget):
    eA, eB = parse(a, 2), parse(b, 2)
    assert subset(eA, eB, budget=sys.maxsize) is want
    memo = descriptive._subset_memo.cache_info()
    message = "budget must be positive" if budget < 1 else f"budget must be at most {sys.maxsize}"
    for call in (subset, compare, compare_topologies):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(eA, eB, budget=budget)
    assert descriptive._subset_memo.cache_info() == memo  # refused before any lookup


@pytest.mark.parametrize("budget", [2.5, True, "3", Fr(3), None])
@pytest.mark.parametrize("a, b", [("all", "all"), ("cball(0;1)", "oball(0;1)")])
def test_a_budget_that_is_no_int_is_refused_whatever_the_sets(a, b, budget):
    eA, eB = parse(a, 2), parse(b, 2)
    memo = descriptive._subset_memo.cache_info()
    for call in (subset, compare, compare_topologies):
        with pytest.raises(TypeError, match=f"^budget must be an int, not {type(budget).__name__}$"):
            call(eA, eB, budget=budget)
    assert descriptive._subset_memo.cache_info() == memo  # refused before any lookup


@pytest.mark.parametrize("a, b", [("all", "all"), ("point(1)", "point(1)"),
                                  ("cball(0;1)", "oball(0;1)")])
def test_an_unhashable_seed_is_refused_whatever_the_sets(a, b):
    eA, eB = parse(a, 2), parse(b, 2)
    memo = descriptive._subset_memo.cache_info()
    for call in (subset, compare, compare_topologies):
        with pytest.raises(TypeError, match="unhashable"):
            call(eA, eB, seed=[])
    assert descriptive._subset_memo.cache_info() == memo


def test_points_of_another_arity_still_raise():
    a, b = SinglePoint((Fr(1), Fr(2))), SinglePoint((Fr(1),))
    for x, y in ((a, b), (b, a), (FiniteSet(((Fr(1),),)), a), (SinglePoint(()), b)):
        with pytest.raises(DimensionMismatch):
            _structural_subset(x, y)


# --- a ball against a complement --------------------------------------------------

@pytest.mark.parametrize("ball, outside", [
    ("cball(1/2;1/10)", "!cantor"),  # inside the middle third
    ("cball(1/2;1/10)", "!lattice"),
    ("cball(5/2;1/10)", "!cball(0;1)"),
    ("oball(5/2;1/10)", "!cball(0;1)"),
    ("cball(1/2;1/10)", "!(cantor | point(0))"),
])
def test_a_ball_that_misses_a_set_lies_in_its_complement(ball, outside):
    assert subset(parse(ball, 2), parse(outside, 2)) is TRUE


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _ball_and_leaves(draw):
    """A ball of R^m, m = 1 or 2, and one to three leaves, as trees and as
    the oracle spells them: points, finite sets, balls, and the Cantor set on
    the line, where the oracle decides it."""
    m = draw(st.sampled_from([1, 2]))
    point = st.lists(_small, min_size=m, max_size=m).map(tuple)
    radius = st.fractions(min_value=Fr(1, 8), max_value=3, max_denominator=8)
    kinds = ["point", "finite", "cball", "oball"] + ["cantor"] * (m == 1)
    leaves_ref = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "point":
            leaves_ref.append((kind, draw(point)))
        elif kind == "finite":
            leaves_ref.append((kind, tuple(draw(st.lists(point, min_size=1, max_size=3,
                                                          unique=True)))))
        elif kind == "cantor":
            leaves_ref.append((kind,))
        else:
            leaves_ref.append((kind, draw(point), draw(radius)))
    ball = draw(st.sampled_from([ClosedBall, OpenBall]))(draw(point), draw(radius))
    return ball, leaves_ref


def _leaf(leaf):
    kind, *fields = leaf
    return {"point": SinglePoint, "finite": FiniteSet, "cball": ClosedBall,
            "oball": OpenBall, "cantor": Cantor}[kind](*fields)


@settings(max_examples=300)
@given(_ball_and_leaves())
def test_a_ball_lies_in_a_complement_only_where_the_oracle_puts_it(case):
    # the closed ball B[c, r] holds the open one: the row reads the closed
    # ball, so it is exact for a closed ball and sound for an open one
    ball, leaves_ref = case
    outside = normalize(Complement(Union(tuple(map(_leaf, leaves_ref)))))
    c, r = ball.center, ball.radius
    misses = all(leaf_misses_ball_ref(leaf, c, r) for leaf in leaves_ref)
    held = _structural_subset(ball, outside) is TRUE
    if type(ball) is ClosedBall:
        assert held == misses
    elif held:
        assert misses
    if held:
        tree = ref_tree(outside)
        for p in [c] + [c[:i] + (c[i] + s * r / 2,) + c[i + 1:]
                        for i in range(len(c)) for s in (1, -1)]:
            assert tree_member_ref(tree, p) is not False


# --- an open ball: exact wherever the closed ball is ---------------------------

@pytest.mark.parametrize("ball, outer, want", [
    # the open ball fills the open ball of twice its radius that it touches
    # from within; the closed one reaches the point 1, outside it
    ("oball(1/2;1/2)", "oball(0;1) | point(5)", TRUE),
    ("oball(1/2;1/2)", "(oball(0;1) & cball(0;2)) | point(5)", TRUE),
    ("cball(1/2;1/2)", "oball(0;1) | point(5)", FALSE),
])
def test_a_ball_in_a_union_is_decided_for_its_own_kind(ball, outer, want):
    a, b = parse(ball, 2), parse(outer, 2)
    assert _structural_subset(a, b) is (want if want is TRUE else UNKNOWN)
    assert subset(a, b) is want


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_an_open_ball_lies_wherever_its_closed_ball_does(seed, n):
    # the search's candidates, and balls on each ball leaf and tangent to it
    # from within
    e = random_expr(random.Random(seed), n)
    for tree in (e, complement(e)):
        balls = list(islice(_ball_forms(leaves(tree), n - 1), 40))
        for m in leaves(tree):
            if type(m) in (ClosedBall, OpenBall):
                k, d = m.radius.numerator, m.radius.denominator
                balls += [(m.scaled, m.radius), (_shifted(m.scaled, 0, k, 2 * d), m.radius / 2)]
        inside = _INSIDE[type(tree)]
        for q, r in balls:
            if inside(tree, q, r):
                assert inside(tree, q, r, OpenBall), (tree, q, r)


# --- the subset memo -------------------------------------------------------------

def _fresh(text, n):
    """The tree of text read again, whatever parse's table holds: no parse key."""
    return normalize(setdsl._Parser(text, n).parse())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_a_remembered_subset_is_the_subset_of_fresh_trees(seed, n):
    rng = random.Random(seed)
    t1, t2 = to_text(random_expr(rng, n)), to_text(random_expr(rng, n))
    # "(t)" is another text of t's tree, so another key
    for x, y in ((t1, t2), (t2, t1), (t1, f"({t1})"), (f"({t2})", t1), (f"({t1})", t2)):
        first = subset(parse(x, n), parse(y, n))  # each tree is released here
        hits = descriptive._subset_memo.cache_info().hits
        again = subset(parse(x, n), parse(y, n))
        assert descriptive._subset_memo.cache_info().hits == hits + 1
        want = descriptive._subset_memo.__wrapped__(_fresh(x, n), _fresh(y, n), DEFAULT_BUDGET, 0)
        assert first is again is want


def test_the_memo_holds_texts_not_trees():
    a, b = "finite{7/3;-2} | oball(5/7;1/2)", "!lattice & cball(0;3)"
    enabled = gc.isenabled()
    gc.disable()
    try:  # as for parse's table: the last release frees a tree at once
        compare(parse(a, 2), parse(b, 2))
        assert (a, 2) not in setdsl._PARSED and (b, 2) not in setdsl._PARSED
        hits = descriptive._subset_memo.cache_info().hits
        compare(parse(a, 2), parse(b, 2))
        assert descriptive._subset_memo.cache_info().hits == hits + 2
        assert (a, 2) not in setdsl._PARSED and (b, 2) not in setdsl._PARSED
    finally:
        if enabled:
            gc.enable()


def test_equal_seeds_of_two_types_are_remembered_apart():
    # the witness is a random candidate, and the stream is keyed by type
    a, b = parse("lattice", 2), parse("finite{0;1;-1;2;-2;5;3;-3}", 2)
    before = descriptive._subset_memo.cache_info()
    for seed in (10**20, 1e20):
        assert subset(a, b, seed=seed) is descriptive._subset_memo.__wrapped__(
            _fresh("lattice", 2), _fresh("finite{0;1;-1;2;-2;5;3;-3}", 2), DEFAULT_BUDGET, seed)
    after = descriptive._subset_memo.cache_info()
    assert (after.misses, after.hits) == (before.misses + 2, before.hits)


def test_an_error_is_not_remembered():
    point, ball = parse("point(0)", 2), parse("cball(0,0;1)", 3)
    before = descriptive._subset_memo.cache_info()
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            subset(point, ball)
    after = descriptive._subset_memo.cache_info()
    assert (after.misses, after.hits, after.currsize) == (
        before.misses + 2, before.hits, before.currsize)


def _spy_on_harvest(monkeypatch, read):
    """Every row of setdsl._POINT_CANDIDATES, the one harvest of both point
    searches, wrapped to pass each leaf it reads to read first."""
    for kind, row in list(setdsl._POINT_CANDIDATES.items()):
        monkeypatch.setitem(setdsl._POINT_CANDIDATES, kind,
                            lambda e, m, row=row: read(e) or row(e, m))


@pytest.mark.parametrize("text", ["!rationals", "bernstein & cball(0;1)"])
def test_a_tree_nowhere_in_harvests_no_candidate(text, monkeypatch):
    # the span says no point is In, so neither search forms a candidate
    def read(e):
        raise AssertionError(f"candidates harvested for {e!r}")

    _spy_on_harvest(monkeypatch, read)
    e = parse(text, 2)
    assert find_witness(e) is None
    assert descriptive._point_witness(e, 1) is False


@pytest.mark.parametrize("text", ["point(1/3) | cball(5;1) | lattice | finite{7;8}",
                                  "cball(0,1;2) & oball(1,1;2)"])
def test_a_search_whose_first_candidate_is_in_reads_one_leaf(text, monkeypatch):
    read = []
    _spy_on_harvest(monkeypatch, read.append)
    e = parse(text, 3 if "," in text else 2)
    first = next(leaves(e))
    for search in (lambda: find_witness(e), lambda: descriptive._point_witness(e, arity(e))):
        read.clear()
        assert search()
        assert read == [first]


# --- the models of the rule base ----------------------------------------------------
# A model is a total assignment of the 22 bits, the set's flags and its
# complement's, that breaks no row of _RULES: held as the int of its true
# bits.  The four swap pairs of _CROSS fix eight of the complement's bits from
# the set's, so the other fourteen bits are enumerated.

_SWAPS = (("countable", "co_countable"), ("closed", "open"), ("g_delta", "f_sigma"),
          ("equals_all", "equals_empty"))
_SWAPPED = {a: b for x, y in _SWAPS for a, b in ((x, y), (y, x))}
_FREE = [_BIT[name] for name in _ALL_FLAGS] + [
    _BIT[name] << _HALF for name in _ALL_FLAGS if name not in _SWAPPED]
_FULL = (1 << 2 * _HALF) - 1


def _breaks_no_row(model):
    for need_t, need_f, put_t, put_f in _RULES:
        if need_t & ~model == 0 and need_f & model == 0 and (put_t & ~model or put_f & model):
            return False
    return True


@lru_cache(maxsize=None)
def _models():
    found = []
    for choice in range(1 << len(_FREE)):
        model = sum(bit for i, bit in enumerate(_FREE) if choice >> i & 1)
        model |= sum(_BIT[_SWAPPED[name]] << _HALF for name in _SWAPPED if model & _BIT[name])
        if _breaks_no_row(model):
            found.append(model)
    return tuple(found)


def _consistent(record, model):
    t, f = record
    return t & ~model == 0 and f & model == 0


def _shared(record):
    """The literals every model consistent with the record holds, as a
    record, or None when no model is consistent with it."""
    models = [model for model in _models() if _consistent(record, model)]
    if not models:
        return None
    t, f = _FULL, _FULL
    for model in models:
        t &= model
        f &= ~model
    return t, f


def test_the_rule_base_has_68_models():
    assert len(_FREE) == 14
    assert len(_models()) == 68


@pytest.mark.parametrize("kind", list(_PRIMITIVE_PAIRS), ids=lambda kind: kind.__name__)
def test_every_primitive_record_has_a_model(kind):
    assert any(_consistent(_PRIMITIVE_PAIRS[kind], model) for model in _models())


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(_SLOTS), st.booleans(), max_size=6))
def test_the_closure_keeps_every_model_of_its_record(assignment):
    # sound relative to the rules: a literal _close sets holds in every
    # model of the record it closes, so a record with a model never clashes
    record = (sum(_BIT[name] << shift for (shift, name), v in assignment.items() if v),
              sum(_BIT[name] << shift for (shift, name), v in assignment.items() if not v))
    models = [model for model in _models() if _consistent(record, model)]
    if models:
        closed = _close(record, "tree")
        assert all(_consistent(closed, model) for model in models)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_a_flag_record_decides_every_literal_its_models_share(seed, n):
    t, f = record = flag_record(random_expr(random.Random(seed), n))
    shared = _shared(record)
    assert shared is not None
    assert shared[0] & ~t == 0 and shared[1] & ~f == 0, record


def test_the_gap_on_arbitrary_partial_records_is_reported():
    # forward chaining need not derive every literal the models share on an
    # arbitrary record; flag records have no gap (the test above).  Reported,
    # not bounded.
    rng = random.Random(2024)
    gaps = tried = 0
    for _ in range(2000):
        slots = rng.sample(_SLOTS, rng.randint(1, 6))
        values = [rng.random() < 0.5 for _ in slots]
        record = (sum(_BIT[name] << shift for (shift, name), v in zip(slots, values) if v),
                  sum(_BIT[name] << shift for (shift, name), v in zip(slots, values) if not v))
        shared = _shared(record)
        if shared is None:
            continue
        tried += 1
        t, f = _close(record, "tree")
        gaps += bool(shared[0] & ~t or shared[1] & ~f)
    print(f"closure gap: {gaps} of {tried} consistent partial records")
    assert tried
