import json
import pickle
import time
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from niemytzki import geometry
from niemytzki.geometry import (
    BallSpec,
    DimensionMismatch,
    Point,
    _in_tangent_int,
    _level_int,
    _scaled,
    _sq_int,
    _sq_sign,
    in_ball,
    in_tangent_ball,
    inner_ball_radius,
    separating_f,
    sq_dist,
    t_level,
    tangent_gauge,
    tangent_sphere_point,
)
from niemytzki.topology import HalfBall, TangentBall, contains
from oracles import (
    gauge_ref,
    in_ball_ref,
    in_tangent_ball_ref,
    inner_radius_ref,
    level_ref,
    scaled_ref,
    separating_ref,
    sq_dist_ref,
)


def P(*cs):
    return Point.of(*cs)


class TestPoint:
    def test_boundary_constructor_appends_zero(self):
        assert Point.boundary(1, 2).coords == (Fr(1), Fr(2), Fr(0))
        assert Point.boundary("1/3").is_boundary

    def test_rejects_points_below_the_hyperplane(self):
        with pytest.raises(ValueError):
            P(0, -1)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            Point((Fr(1),))

    def test_strings_are_read_as_rat_literals(self):
        assert P("1/3", "1").coords == (Fr(1, 3), Fr(1))
        assert Point.boundary("-1/8").coords == (Fr(-1, 8), Fr(0))
        # exponent and decimal forms are refused at once, however large
        for call in (lambda: P("1e3000000", 1), lambda: Point.from_json(["1e3000000", "1"]),
                     lambda: P("0.5", 1)):
            start = time.perf_counter()
            with pytest.raises(ValueError):
                call()
            assert time.perf_counter() - start < 0.5

    def test_bools_are_refused(self):
        from niemytzki.setdsl import member, parse

        for call in (lambda: P(True, 1), lambda: P(0, False), lambda: geometry.rat(True),
                     lambda: BallSpec(P(0, 1), True), lambda: member(parse("point(1)", 2), (True,))):
            with pytest.raises(TypeError, match="^not an exact rational: (True|False)$"):
                call()
        assert P(1, 0).coords == (Fr(1), Fr(0))  # an int is still read

    def test_json_round_trip_is_exact(self):
        p = P("22/7", "0", "355/113")
        data = json.loads(json.dumps(p.to_json()))
        assert Point.from_json(data) == p
        assert p.to_json() == ["22/7", "0", "355/113"]


class TestSqDist:
    def test_zero_iff_equal(self):
        assert sq_dist(P(1, 2), P(1, 2)) == 0
        assert sq_dist(P(1, 2), P(1, "5/2")) != 0

    def test_three_four_five(self):
        assert sq_dist(P(0, 0), P(3, 4)) == 25

    def test_hand_expansion(self):
        # (1/2)^2 + (1/2)^2
        assert sq_dist(P("1/2", 0), P(0, "1/2")) == Fr(1, 2)

    def test_symmetry(self):
        p, q = P("2/3", "1/5"), P("-1/7", "3/2")
        assert sq_dist(p, q) == sq_dist(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sq_dist(P(0, 0), P(0, 0, 0))


class TestInBall:
    def test_center_is_inside(self):
        assert in_ball(P(0, 1), BallSpec(P(0, 1), Fr(1)))

    def test_sphere_point_is_outside(self):
        # sq_dist((1,1),(0,1)) = 1 = r^2: open balls are strict
        assert not in_ball(P(1, 1), BallSpec(P(0, 1), Fr(1)))

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            BallSpec(P(0, 1), Fr(0))


class TestTangentBall:
    def test_contains_its_anchor(self):
        assert in_tangent_ball(Point.boundary(0), Point.boundary(0), 1)

    def test_axis_point_inside(self):
        # gauge = 0 + 1 < 2*1*1
        assert in_tangent_ball(P(0, 1), Point.boundary(0), 1)

    def test_sphere_point_excluded(self):
        # gauge = 1 + 1 = 2 = 2*1*1: strict inequality fails
        assert not in_tangent_ball(P(1, 1), Point.boundary(0), 1)

    def test_meets_boundary_only_at_the_anchor(self):
        a = Point.boundary(0)
        for first in ("1/7", "-3", "1", "1/10000"):
            assert not in_tangent_ball(Point.boundary(first), a, 5)

    def test_anchor_must_be_on_the_boundary(self):
        with pytest.raises(ValueError):
            in_tangent_ball(P(0, 1), P(0, 1), 1)


class TestTLevel:
    def test_halfway_up_the_axis(self):
        assert t_level(P(0, 1), Point.boundary(0), 1) == Fr(1, 2)

    def test_top_of_the_tangent_ball(self):
        assert t_level(P(0, 2), Point.boundary(0), 1) == 1

    def test_dimension_three(self):
        a = Point.boundary(0, 0)
        assert t_level(P(1, 0, 1), a, 1) == 1

    def test_undefined_on_the_boundary(self):
        with pytest.raises(ValueError):
            t_level(Point.boundary(1), Point.boundary(0), 1)


class TestSeparatingF:
    def test_zero_at_the_anchor(self):
        assert separating_f(Point.boundary(0), Point.boundary(0), 1) == 0

    def test_one_outside(self):
        assert separating_f(P(5, 5), Point.boundary(0), 1) == 1
        assert separating_f(Point.boundary(3), Point.boundary(0), 1) == 1

    def test_level_inside(self):
        assert separating_f(P(0, 1), Point.boundary(0), 1) == Fr(1, 2)

    @pytest.mark.parametrize("x", [Point.boundary(0), Point.boundary(3), P(0, 1), P(5, 5)],
                             ids=["anchor", "boundary", "inside", "outside"])
    def test_checks_the_parameter_once(self, x, monkeypatch):
        calls = []
        check = geometry._tangent_eps

        def counted(a, eps):
            calls.append(eps)
            return check(a, eps)

        monkeypatch.setattr(geometry, "_tangent_eps", counted)
        separating_f(x, Point.boundary(0), "1/2")
        assert calls == ["1/2"]

    @pytest.mark.parametrize("x", [Point.boundary(0), Point.boundary(3), P(0, 1)],
                             ids=["anchor", "boundary", "interior"])
    @pytest.mark.parametrize("eps", [0, -1, "-1/2"])
    def test_refuses_a_parameter_not_positive(self, x, eps):
        with pytest.raises(ValueError, match="parameter must be positive"):
            separating_f(x, Point.boundary(0), eps)

    def test_refuses_an_anchor_off_the_boundary(self):
        for x in (P(0, 1), Point.boundary(0)):
            with pytest.raises(ValueError, match="boundary hyperplane"):
                separating_f(x, P(0, 1), 1)


class TestInnerBallRadius:
    def test_center_gets_half_the_radius(self):
        b = BallSpec(P(0, 1), Fr(1))
        assert inner_ball_radius(P(0, 1), b) == Fr(1, 2)

    def test_hand_value(self):
        # r = 1, sq_dist = 1/4 -> (1 - 1/4)/2 = 3/8
        b = BallSpec(P(0, 1), Fr(1))
        assert inner_ball_radius(P(0, "1/2"), b) == Fr(3, 8)

    def test_positive_near_the_sphere(self):
        b = BallSpec(P(0, 1), Fr(1))
        for k in (10, 100, 1000):
            q = P(0, Fr(2) - Fr(1, k))  # distance 1 - 1/k from the center
            delta = inner_ball_radius(q, b)
            assert delta > 0

    def test_rejects_points_on_or_outside_the_sphere(self):
        b = BallSpec(P(0, 1), Fr(1))
        with pytest.raises(ValueError):
            inner_ball_radius(P(1, 1), b)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=50)
positive_rationals = st.fractions(min_value=Fr(1, 50), max_value=3, max_denominator=50)
unit_open = st.fractions(min_value=Fr(1, 50), max_value=Fr(49, 50), max_denominator=50)


@given(
    first=rationals,
    height=positive_rationals,
    anchor=rationals,
    eps=positive_rationals,
    s=unit_open,
)
def test_level_duality_property(first, height, anchor, eps, s):
    """in_tangent_ball(x, a, s*eps) iff t_level(x, a, eps) < s, for interior x."""
    x = Point.of(first, height)
    a = Point.boundary(anchor)
    assert in_tangent_ball(x, a, s * eps) == (t_level(x, a, eps) < s)
    assert in_tangent_ball(x, a, eps) == (t_level(x, a, eps) < 1)


@given(
    first=rationals,
    last=st.fractions(min_value=0, max_value=3, max_denominator=50),
    anchor=rationals,
    eps=positive_rationals,
    s=unit_open,
)
def test_sublevel_identity_property(first, last, anchor, eps, s):
    """separating_f(x) < s iff x is in the tangent ball of parameter s*eps."""
    x = Point.of(first, last)
    a = Point.boundary(anchor)
    f = separating_f(x, a, eps)
    assert 0 <= f <= 1
    assert (f < s) == in_tangent_ball(x, a, s * eps)


@given(
    v1=st.integers(min_value=-9, max_value=9),
    v2=st.integers(min_value=1, max_value=9),
    eps=positive_rationals,
    anchor=rationals,
)
def test_sphere_parameterization_is_exact(v1, v2, eps, anchor):
    a = Point.boundary(anchor)
    x = tangent_sphere_point(a, eps, (v1, v2))
    assert tangent_gauge(x, a) == 2 * eps * x.coords[-1]
    assert t_level(x, a, eps) == 1


@given(
    qx=rationals,
    qy=st.fractions(min_value=Fr(1, 10), max_value=3, max_denominator=50),
    wx=rationals,
    wy=rationals,
)
def test_inner_ball_containment_property(qx, qy, wx, wy):
    b = BallSpec(P(0, 2), Fr(2))
    q = P(qx, qy)
    if not in_ball(q, b):
        return
    delta = inner_ball_radius(q, b)
    w = (wx, wy)
    norm2 = wx * wx + wy * wy
    if norm2 == 0:
        return
    # scale w to length delta/2, using the rational bound norm2 <= (1+norm2)/2...
    # simpler: pick y on the segment toward w with sq_dist(y, q) < delta^2
    scale = delta / (2 * (1 + norm2))  # |scale*w|^2 = delta^2*norm2/(4(1+norm2)^2) < delta^2
    y = P(q.coords[0] + scale * wx, q.coords[1] + scale * wy)
    assert sq_dist(y, q) < delta * delta
    assert in_ball(y, b)


class TestScaledForm:
    def test_numerators_over_the_least_common_denominator(self):
        p = P("1/6", "-3/4", 2)
        assert p.scaled == ((2, -9, 24), 12)
        numerators, d = p.scaled
        assert tuple(Fr(x, d) for x in numerators) == p.coords
        assert Point.boundary(0).scaled == ((0, 0), 1)

    @given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=4))
    def test_the_form_is_canonical(self, coords):
        X, d = _scaled(coords)
        assert (X, d) == scaled_ref(coords)
        assert d > 0 and tuple(Fr(x, d) for x in X) == tuple(coords)
        assert gcd(*X, d) == 1 and all(type(x) is int for x in (*X, d))

    @pytest.mark.parametrize("coords, form", [
        ((Fr(-3, 4),), ((-3,), 4)),
        ((Fr(-7),), ((-7,), 1)),
        ((Fr(-1, 6), Fr(5, 4)), ((-2, 15), 12)),
        ((Fr(0), Fr(-2, 3), Fr(1, 3), Fr(-9, 2)), ((0, -4, 2, -27), 6)),
    ])
    def test_negative_numerators(self, coords, form):
        assert _scaled(coords) == form == scaled_ref(coords)

    def test_the_cache_is_not_part_of_the_value(self):
        fresh, cached = P("22/7", "-1/3", "355/113"), P("22/7", "-1/3", "355/113")
        cached.scaled
        assert "scaled" in vars(cached) and "scaled" not in vars(fresh)
        assert fresh == cached and hash(fresh) == hash(cached)
        assert fresh.to_json() == cached.to_json()
        assert pickle.dumps(fresh) == pickle.dumps(cached)
        restored = pickle.loads(pickle.dumps(cached))
        assert restored == fresh and restored.scaled == cached.scaled


class TestKernelContracts:
    """The errors of the kernel, and the order in which its checks raise."""

    @pytest.mark.parametrize("call", [
        lambda: sq_dist(P(0, 1), P(0, 0, 1)),
        lambda: tangent_gauge(P(0, 1), Point.boundary(0, 0)),
        lambda: in_ball(P(0, 1), BallSpec(P(0, 0, 1), 1)),
        lambda: in_tangent_ball(P(0, 1), Point.boundary(0, 0), 1),
        lambda: t_level(P(0, 1), Point.boundary(0, 0), 1),
        lambda: separating_f(P(0, 1), Point.boundary(0, 0), 1),
        lambda: inner_ball_radius(P(0, 1), BallSpec(P(0, 0, 1), 1)),
    ], ids=["sq_dist", "gauge", "in_ball", "in_tangent_ball", "t_level",
            "separating_f", "inner_ball_radius"])
    def test_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch, match="dimension 2 vs 3"):
            call()

    def test_the_dimension_check_comes_before_the_boundary_short_cuts(self):
        for call in (in_tangent_ball, t_level, separating_f):
            for x in (Point.boundary(1), Point.boundary(0)):
                with pytest.raises(DimensionMismatch, match="dimension 2 vs 3"):
                    call(x, Point.boundary(0, 0), 1)

    @pytest.mark.parametrize("kernel", [
        lambda p, q: _sq_sign(p, q, Fr(1)),
        _sq_int,
        lambda p, q: _level_int(p, q, 1, 1),
        lambda p, q: _in_tangent_int(p, q, 1, 1),
    ], ids=["_sq_sign", "_sq_int", "_level_int", "_in_tangent_int"])
    @pytest.mark.parametrize("p, q", [((Fr(0), Fr(5)), (Fr(0),)), ((), (Fr(1),)),
                                      ((Fr(1),) * 3, (Fr(1),) * 2)])
    def test_tuples_of_different_arity_are_refused(self, p, q, kernel):
        for a, b in ((p, q), (q, p)):
            with pytest.raises(DimensionMismatch, match=f"dimension {len(a)} vs {len(b)}"):
                kernel(_scaled(a), _scaled(b))

    def test_parameter_and_tangency_come_first(self):
        with pytest.raises(ValueError, match="parameter must be positive"):
            in_tangent_ball(P(0, 1), Point.boundary(0, 0), 0)
        with pytest.raises(ValueError, match="boundary hyperplane"):
            t_level(P(0, 1), P(0, 0, 1), 1)
        with pytest.raises(ValueError, match="boundary hyperplane"):
            tangent_gauge(P(0, 1), P(0, 1))

    def test_inner_radius_refuses_the_sphere_and_beyond(self):
        b = BallSpec(P(0, 1), Fr(1, 3))
        for q in (P("1/3", 1), P(0, "2/3"), P(5, 5)):
            with pytest.raises(ValueError, match="not strictly inside"):
                inner_ball_radius(q, b)


_DEN = 10**6
_coordinate = st.fractions(min_value=-50, max_value=50, max_denominator=_DEN)
_positive = st.fractions(min_value=Fr(1, _DEN), max_value=50, max_denominator=_DEN)
_height = st.one_of(st.just(Fr(0)), _positive)


@st.composite
def _kernel_case(draw):
    """(x, a, eps, center, radius) in X_n, n = 2..5: a is a boundary anchor;
    x is free, on the boundary, the anchor itself or on the tangent sphere;
    the ball B(center, radius) may pass through x."""
    n = draw(st.integers(min_value=2, max_value=5))
    head = st.lists(_coordinate, min_size=n - 1, max_size=n - 1)
    a = Point.boundary(*draw(head))
    eps = draw(_positive)
    kind = draw(st.sampled_from(["free", "boundary", "anchor", "sphere"]))
    if kind == "free":
        x = Point(tuple(draw(head)) + (draw(_height),))
    elif kind == "boundary":
        x = Point.boundary(*draw(head))
    elif kind == "anchor":
        x = a
    else:
        direction = tuple(draw(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)))
        x = tangent_sphere_point(a, eps, direction + (draw(st.integers(1, 9)),))
    center = Point(tuple(draw(head)) + (draw(_height),))
    if draw(st.booleans()):
        # x on the sphere of B(center, radius)
        shift = draw(_positive)
        center = Point((x.coords[0] + shift,) + x.coords[1:])
        radius = shift
    else:
        radius = draw(_positive)
    return x, a, eps, center, radius


def _same(got, want):
    assert type(got) is type(want) and got == want, (got, want)


@given(_kernel_case())
def test_kernel_equals_the_oracle(case):
    x, a, eps, center, radius = case
    xs, cs, anchor = x.coords, center.coords, a.coords
    ball = BallSpec(center, radius)
    _same(sq_dist(x, center), sq_dist_ref(xs, cs))
    _same(tangent_gauge(x, a), gauge_ref(xs, anchor))
    _same(in_ball(x, ball), in_ball_ref(xs, cs, radius))
    _same(in_tangent_ball(x, a, eps), in_tangent_ball_ref(xs, anchor, eps))
    _same(contains(TangentBall(a, eps), x), in_tangent_ball_ref(xs, anchor, eps))
    if center.is_boundary:
        _same(contains(HalfBall(center, radius), x), in_ball_ref(xs, cs, radius))
    _same(separating_f(x, a, eps), separating_ref(xs, anchor, eps))
    if x.is_boundary:
        with pytest.raises(ValueError):
            t_level(x, a, eps)
    else:
        _same(t_level(x, a, eps), level_ref(xs, anchor, eps))
    if in_ball_ref(xs, cs, radius):
        _same(inner_ball_radius(x, ball), inner_radius_ref(xs, cs, radius))
    else:
        with pytest.raises(ValueError):
            inner_ball_radius(x, ball)


_big = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**30)


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(_big, min_size=m, max_size=m), st.lists(_big, min_size=m, max_size=m),
    st.fractions(min_value=Fr(1, 10**30), max_value=10**31, max_denominator=10**30))))
def test_the_integer_kernel_equals_fraction_arithmetic(case):
    # 1 to 4 coordinates with numerators and denominators up to 10**30:
    # the kernel's squares, taken by multiplication, against Fraction's
    p, q, r = case
    s, dp, dq = _sq_int(_scaled(p), _scaled(q))
    want = sq_dist_ref(p, q)
    assert Fr(s, (dp * dq) ** 2) == want
    assert _sq_sign(_scaled(p), _scaled(q), r) == (want > r ** 2) - (want < r ** 2)
    if len(p) == 1 and p != q:  # the radius exactly |p - q|: the sign reads 0
        assert _sq_sign(_scaled(p), _scaled(q), abs(p[0] - q[0])) == 0


def test_every_entry_point_refuses_dimension_one(capsys):
    from niemytzki.cli import main
    from niemytzki.harness import SuiteConfig
    from niemytzki.setdsl import All, parse
    from niemytzki.theorems import classify
    from niemytzki.topology import TopologySpec

    for call in (lambda: SuiteConfig("S1", dimension=1), lambda: parse("cantor", 1),
                 lambda: classify("cantor", 1), lambda: TopologySpec(1, All()),
                 lambda: classify(All(), 1), lambda: classify("all", 1),
                 lambda: TopologySpec.modified("all", 1),
                 lambda: geometry.check_dimension(1)):
        with pytest.raises(ValueError, match="^dimension must be at least 2$"):
            call()
    assert main(["classify", "--dimension", "1", "--set", "cantor"]) == 1
    assert capsys.readouterr().err == "error: dimension must be at least 2\n"


def _refusals():
    """(call, message) for each argument of the wrong type that an entry
    point's own rule refuses: the dimension, parse's text, SuiteConfig's
    fields, member's point and the suite runners' config."""
    from niemytzki.harness import SuiteConfig, generate_samples, run_suite
    from niemytzki.setdsl import All, find_witness, member, normalize_for, parse
    from niemytzki.theorems import classify
    from niemytzki.topology import TopologySpec

    gap = parse("cball(0;1) & !oball(0;1)")  # only the random candidates decide it
    rows = []
    for v in (2.0, "2", True, Fr(2), None):
        calls = [lambda v=v: classify("all", v), lambda v=v: classify(All(), v),
                 lambda v=v: TopologySpec(v, "all"), lambda v=v: TopologySpec.modified(All(), v),
                 lambda v=v: parse("all", v), lambda v=v: normalize_for(All(), v),
                 lambda v=v: SuiteConfig("S1", dimension=v)]
        if v is not None:  # find_witness's default: the tree's own arity
            calls += [lambda v=v, e=e: find_witness(e, dimension=v) for e in (parse("all"), gap)]
        rows += [(call, f"dimension must be an int, not {type(v).__name__}") for call in calls]
    for v in (b"all", None, ["all"], 2):
        message = f"text must be a str, not {type(v).__name__}"
        rows += [(lambda v=v: parse(v), message), (lambda v=v: parse(v, 2.0), message)]
    for v in (5, b"S1", None):
        rows.append((lambda v=v: SuiteConfig(v), f"suite must be a str, not {type(v).__name__}"))
    for v in (2.5, True, "10", None, Fr(10)):
        kind = type(v).__name__
        rows += [(lambda v=v: SuiteConfig("S1", samples=v), f"samples must be an int, not {kind}"),
                 (lambda v=v: SuiteConfig("S6", seed=v), f"seed must be an int, not {kind}")]
    # a string was read character by character as the point, "12" as (1, 2),
    # and a set or a dict in its iteration order
    for v in ("12", b"12", bytearray(b"12"), 5, Fr(1), None, {1, 2}, {1: 0, 2: 0}, iter((1, 2))):
        rows.append((lambda v=v: member(parse("point(1,2)", 3), v),
                     f"point must be a sequence of rationals, not {type(v).__name__}"))
    for v in ("S1", None, {"suite": "S1"}):
        message = f"config must be a SuiteConfig, not {type(v).__name__}"
        rows += [(lambda v=v: run_suite(v), message), (lambda v=v: generate_samples(v), message)]
    return rows


@pytest.mark.parametrize("call, message", _refusals())
def test_an_argument_of_the_wrong_type_is_refused_by_its_rule(call, message):
    # the rule's own message, never one from re, range, islice or an operator
    with pytest.raises(TypeError) as caught:
        call()
    assert str(caught.value) == message
