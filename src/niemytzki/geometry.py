"""Exact rational geometry on the closed half-space X_n.

The ambient space is X_n = P_n ∪ L_n ⊂ R^n, where P_n is the open upper
half-space (last coordinate positive) and L_n the boundary hyperplane (last
coordinate zero).  Every coordinate, radius and level is a
``fractions.Fraction`` and every predicate is a polynomial comparison: no
square root is ever taken, so every answer is exact and decidable.

The tangent ball at a boundary point ``a`` with parameter ``eps > 0`` is

    {a} ∪ B(a(eps), eps),      a(eps) = (a_1, ..., a_{n-1}, eps),

the open Euclidean ball internally tangent to the boundary hyperplane at
``a``, together with the tangency point itself.  Expanding
``|x - a(eps)|^2 < eps^2`` and cancelling ``eps^2`` reduces membership of an
interior point x to

    sum_{i<n} (x_i - a_i)^2 + x_n^2  <  2 * eps * x_n.

The left-hand side is :func:`tangent_gauge`.  Dividing by ``2 * eps * x_n``
gives :func:`t_level`: the unique t for which x lies on the bounding sphere
of the tangent ball of parameter ``t * eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rat = Fraction

RatLike = Union[int, str, Fraction]


class DimensionMismatch(ValueError):
    """Operands live in different dimensions."""


def rat(value: RatLike) -> Fraction:
    """Coerce an int, a ``p/q`` string or a Fraction to an exact rational.

    A string is read as the set language's ``rat`` literal, digit cap
    included, and anything else in it raises ValueError.  Floats are
    rejected: the whole library is exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        from .setdsl import parse_rational  # setdsl imports this module
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Point:
    """A point of X_n: rational coordinates with the last one >= 0, n >= 2."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(rat(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 2:
            raise ValueError("points of the half-space need dimension >= 2")
        if coords[-1] < 0:
            raise ValueError("point lies below the boundary hyperplane")

    @staticmethod
    def of(*coords: RatLike) -> "Point":
        return Point(coords)

    @staticmethod
    def boundary(*coords: RatLike) -> "Point":
        """Boundary point of L_n given by its first n-1 coordinates."""
        return Point(coords + (0,))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def is_boundary(self) -> bool:
        return self.coords[-1] == 0

    def boundary_coords(self) -> tuple[Fraction, ...]:
        return self.coords[:-1]

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Point":
        return Point(tuple(data))


def translate(p: Point, delta: Sequence[RatLike]) -> Point:
    if len(delta) != p.dimension:
        raise DimensionMismatch("offset arity differs from the point's dimension")
    return Point(tuple(c + rat(d) for c, d in zip(p.coords, delta)))


@dataclass(frozen=True)
class BallSpec:
    """An open Euclidean ball B(center, radius), radius > 0."""

    center: Point
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", rat(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


def _check_dims(p: Point, q: Point) -> None:
    if p.dimension != q.dimension:
        raise DimensionMismatch(f"dimension {p.dimension} vs {q.dimension}")


def sq_dist_coords(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """sum_i (p_i - q_i)^2 over paired coordinates of two rational tuples."""
    return sum(((a - b) * (a - b) for a, b in zip(p, q)), Fraction(0))


def sq_dist(p: Point, q: Point) -> Fraction:
    """Squared Euclidean distance sum_i (p_i - q_i)^2, kept squared to stay rational."""
    _check_dims(p, q)
    return sq_dist_coords(p.coords, q.coords)


def in_ball(x: Point, b: BallSpec) -> bool:
    """Strict membership in the Euclidean ball B(center, radius): sq_dist < radius^2.

    A topology.TangentBall is a BallSpec too but not this set: use ``contains``."""
    return sq_dist(x, b.center) < b.radius * b.radius


def _check_tangency(a: Point) -> None:
    if not a.is_boundary:
        raise ValueError("tangency point must lie on the boundary hyperplane")


def _tangent_eps(a: Point, eps: RatLike) -> Fraction:
    """The parameter of the tangent ball at a, as an exact positive rational."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("tangent-ball parameter must be positive")
    _check_tangency(a)
    return eps


def tangent_gauge(x: Point, a: Point) -> Fraction:
    """sum_{i<n} (x_i - a_i)^2 + x_n^2 for a boundary tangency point a.

    Comparing the gauge against 2*eps*x_n decides tangent-ball membership;
    the gauge equals 2*eps*x_n exactly on the bounding sphere.
    """
    _check_dims(x, a)
    _check_tangency(a)
    return sq_dist_coords(x.coords[:-1], a.coords[:-1]) + x.coords[-1] * x.coords[-1]


def in_tangent_ball(x: Point, a: Point, eps: RatLike) -> bool:
    """Membership in {a} ∪ B(a(eps), eps).

    True iff x = a, or x is interior and tangent_gauge(x, a) < 2*eps*x_n.
    Boundary points other than a are never inside: the tangent ball meets
    L_n exactly in its tangency point.
    """
    eps = _tangent_eps(a, eps)
    if x == a:
        return True
    xn = x.coords[-1]
    return xn > 0 and tangent_gauge(x, a) < 2 * eps * xn


def t_level(x: Point, a: Point, eps: RatLike) -> Fraction:
    """Level of an interior point: (sum_{i<n}(x_i-a_i)^2 + x_n^2) / (2*eps*x_n).

    For x != a this is the unique t with x on the bounding sphere of the
    tangent ball of parameter t*eps, and t < 1 iff x lies inside the tangent
    ball of parameter eps.  Undefined on the boundary hyperplane.
    """
    eps = _tangent_eps(a, eps)
    xn = x.coords[-1]
    if xn == 0:
        raise ValueError("level is undefined on the boundary hyperplane")
    return tangent_gauge(x, a) / (2 * eps * xn)


def separating_f(x: Point, a: Point, eps: RatLike) -> Fraction:
    """The separating function of the tangent ball: 0 at a, the level inside,
    1 outside.  Always in [0, 1], and f(x) < s iff x lies in the tangent ball
    of parameter s*eps, for every s in (0, 1)."""
    if not x.is_boundary:
        return min(t_level(x, a, eps), Fraction(1))  # t_level checks eps
    _tangent_eps(a, eps)
    return Fraction(0) if x == a else Fraction(1)


def inner_ball_radius(q: Point, b: BallSpec) -> Fraction:
    """A rational radius delta with B(q, delta) ⊆ b for q strictly inside b.

    delta = (r^2 - d^2) / (2r) where d^2 = sq_dist(q, center).  Containment
    holds because r - d >= (r^2 - d^2)/(2r) for 0 <= d < r, and the formula
    avoids the irrational d itself.
    """
    d2 = sq_dist(q, b.center)
    r = b.radius
    if d2 >= r * r:
        raise ValueError("point is not strictly inside the ball")
    return (r * r - d2) / (2 * r)


def tangent_sphere_point(a: Point, eps: RatLike, direction: Sequence[RatLike]) -> Point:
    """Rational point on the bounding sphere Bd B(a(eps), eps), away from a.

    For any rational direction v with v_n > 0, the ray a + s*v leaves a and
    meets the sphere again at s = 2*eps*v_n / |v|^2, which is rational; the
    resulting point satisfies tangent_gauge = 2*eps*x_n exactly.
    """
    eps = _tangent_eps(a, eps)
    v = tuple(rat(c) for c in direction)
    if len(v) != a.dimension:
        raise DimensionMismatch("direction arity differs from the point's dimension")
    if v[-1] <= 0:
        raise ValueError("direction must point into the open half-space (v_n > 0)")
    norm2 = sum((c * c for c in v), Fraction(0))
    s = 2 * eps * v[-1] / norm2
    return translate(a, tuple(s * c for c in v))
