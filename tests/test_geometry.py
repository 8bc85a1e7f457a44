import json
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from niemytzki import geometry
from niemytzki.geometry import (
    BallSpec,
    DimensionMismatch,
    Point,
    in_ball,
    in_tangent_ball,
    inner_ball_radius,
    separating_f,
    sq_dist,
    t_level,
    tangent_gauge,
    tangent_sphere_point,
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
