"""Exact rational geometry on the closed half-space X_n.

The ambient space is X_n = P_n ∪ L_n ⊂ R^n, where P_n is the open upper
half-space (last coordinate positive) and L_n the boundary hyperplane (last
coordinate zero).  Every coordinate, radius and level is a
``fractions.Fraction`` at the API and every predicate is a polynomial
comparison: there are no floats and no square roots, so every answer is
exact and decidable.

The tangent ball at a boundary point ``a`` with parameter ``eps > 0`` is

    {a} ∪ B(a(eps), eps),      a(eps) = (a_1, ..., a_{n-1}, eps),

the open Euclidean ball internally tangent to the boundary hyperplane at
``a``, together with the tangency point itself.  Expanding
``|x - a(eps)|^2 < eps^2`` and cancelling ``eps^2`` reduces membership of an
interior point x to

    sum_{i<n} (x_i - a_i)^2 + x_n^2  <  2 * eps * x_n.

The left-hand side is :func:`tangent_gauge`; since a_n = 0 it is |x - a|^2.
Dividing by ``2 * eps * x_n`` gives :func:`t_level`: the unique t for which
x lies on the bounding sphere of the tangent ball of parameter ``t * eps``.

The kernel computes fraction-free (Bareiss 1968).  Each point caches its
coordinates over one shared denominator, ``Point.scaled = (X, d)`` with
x_i = X_i / d, and every squared distance is the integer

    S = sum_i (X_i * e - Y_i * d)^2  =  |x - y|^2 * (d * e)^2

for y = Y / e.  Ball and tangent-ball membership clear the remaining
denominators and compare two integers; :func:`sq_dist`,
:func:`tangent_gauge`, :func:`t_level` and :func:`inner_ball_radius` build
one Fraction from integers at the end.  The set language uses the same
comparison, ``_sq_sign``, the sign of |p - q|^2 - r^2: its points and balls
cache their scaled form as a Point does.  Arity is checked once, by
``_sq_int``, which every distance, gauge, level and membership reads first.

The level is read on forms alone: ``_level_int(x, a, en, ed)`` is the pair
(N, D) of the level of x for eps = en/ed, which need not be reduced.  On
L_n it reads 0/1 at a and 1/0 at every other point, so x lies in the
tangent ball iff N < D, and the separating function is N/D capped at 1.
:func:`in_tangent_ball`, :func:`t_level` and :func:`separating_f` read it
through one preamble, ``_level``, which checks the parameter and the
tangency point first; ``topology.contains`` and the harness's suites S1-S4
read it on forms they already trust.  :func:`tangent_sphere_point` and
suite S1 build their sphere points with ``_sphere_form``.

Every record class of the package, from :class:`Point` here to the set
expressions, topologies, certificates and reports, is made by
:func:`_record`: an immutable value of its annotated fields, inherited
fields first, listed in the class attribute ``_fields``.  For each class it
generates, with one ``exec``, an ``__init__`` that takes the fields
positionally or by keyword (a class attribute beside the annotation is the
default) and then calls ``__post_init__``, an ``__eq__`` that compares the
field tuples of two records of the same class and a ``__hash__`` of the
field tuple, cached beside the fields as ``_hash`` on first use so that a
lookup does not hash a whole subtree again; classes of one shape share one
compiled source.  ``__repr__`` reads ``Name(field=value!r, ...)``.
Assigning or deleting an attribute raises AttributeError; ``__post_init__``
and cached properties write past that guard.  A record pickles its fields
alone.  The helper stands in for ``dataclasses``, which a cold command would
otherwise import (with ``inspect``) and run for every class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from types import CodeType
from typing import Sequence, Union

RatLike = Union[int, str, Fraction]


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_state(self) -> dict:
    # the fields alone: what a record caches beside them is no part of its value
    return {name: getattr(self, name) for name in self._fields}


def _record_repr(self) -> str:
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({shown})"


@lru_cache(maxsize=None)
def _record_code(source: str) -> CodeType:
    # records of one shape share their source: compile it once
    return compile(source, "<record>", "exec")


def _record(cls: type) -> type:
    """Make ``cls`` an immutable record of its annotated fields (see the
    module docstring).  A field with a class attribute of its name takes
    that value as its default; the generated methods read the fields by
    name, so ``==`` and ``hash`` cost what a hand-written pair would."""
    inherited = getattr(cls, "_fields", ())
    own = [f for f in cls.__dict__.get("__annotations__", {}) if f not in inherited]
    fields = cls._fields = inherited + tuple(own)
    env = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    params = ["self"]
    for f in fields:
        if hasattr(cls, f):
            env[f"_default_{f}"] = getattr(cls, f)
            params.append(f"{f}=_default_{f}")
        else:
            params.append(f)
    body = [f"    _setattr(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    mine = "(" + "".join(f"self.{f}, " for f in fields) + ")"
    exec(_record_code("\n".join([
        f"def __init__({', '.join(params)}):", *(body or ["    pass"]),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} == {mine.replace('self.', 'other.')}",
        "    return NotImplemented",
        "def __hash__(self):",
        "    try:",
        "        return self._hash",
        "    except AttributeError:",
        f"        h = hash({mine})",
        "        _setattr(self, '_hash', h)",
        "        return h",
    ])), env)
    for name in ("__init__", "__eq__", "__hash__"):
        fn = env[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__repr__ = _record_repr
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__getstate__ = _record_state
    return cls


class DimensionMismatch(ValueError):
    """Operands live in different dimensions."""


def check_dimension(n: int) -> None:
    """Refuse a session dimension n below 2, for which X_n has no boundary
    coordinates: every module reads n - 1 of them."""
    if n < 2:
        raise ValueError("dimension must be at least 2")


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


_Scaled = tuple[tuple[int, ...], int]


def _scaled(coords: Sequence[Fraction]) -> _Scaled:
    """(X, d): rational coordinates over one shared denominator d > 0, so
    that coords[i] == X[i] / d."""
    if len(coords) == 1:  # the boundary of the plane: read the two integers
        c = coords[0]
        return (c.numerator,), c.denominator
    d = lcm(*[c.denominator for c in coords])
    return tuple([c.numerator * (d // c.denominator) for c in coords]), d


def _form(pairs: Sequence[tuple[int, int]]) -> _Scaled:
    """The scaled form of the coordinates k / den of integer pairs (k, den),
    den > 0, over the lcm of their denominators; no pair need be reduced."""
    d = lcm(*[den for _, den in pairs])
    return tuple([k * (d // den) for k, den in pairs]), d


def _unscaled(form: _Scaled) -> tuple[Fraction, ...]:
    """The rational coordinates of a form (X, d), which need not be reduced."""
    X, d = form
    return tuple([Fraction(c, d) for c in X])


@_record
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

    @cached_property
    def scaled(self) -> _Scaled:
        """The coordinates' :func:`_scaled` form.  Cached beside the field,
        so it changes neither ``==``, ``hash`` nor the pickled state."""
        return _scaled(self.coords)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Point":
        return Point(tuple(data))


def _positive(value: RatLike, what: str) -> Fraction:
    """value as an exact rational, refused unless it is above 0: the one
    "<what> must be positive" rule of radii, epsilons and heights."""
    value = rat(value)
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


def translate(p: Point, delta: Sequence[RatLike]) -> Point:
    if len(delta) != p.dimension:
        raise DimensionMismatch("offset arity differs from the point's dimension")
    return Point(tuple(c + rat(d) for c, d in zip(p.coords, delta)))


@_record
class BallSpec:
    """An open Euclidean ball B(center, radius), radius > 0."""

    center: Point
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", _positive(self.radius, "ball radius"))


def _sq_int(p: _Scaled, q: _Scaled) -> tuple[int, int, int]:
    """(S, d_p, d_q) with |p - q|^2 == S / (d_p * d_q)^2, all integers.
    Forms of different arity raise DimensionMismatch."""
    (ps, dp), (qs, dq) = p, q
    if len(ps) != len(qs):
        raise DimensionMismatch(f"dimension {len(ps)} vs {len(qs)}")
    return sum([(a * dq - b * dp) ** 2 for a, b in zip(ps, qs)]), dp, dq


def _sq_sign(p: _Scaled, q: _Scaled, r: Fraction) -> int:
    """The sign (-1, 0 or 1) of |p - q|^2 - r^2, compared as integers."""
    s, dp, dq = _sq_int(p, q)
    lhs, rhs = s * r.denominator ** 2, (r.numerator * dp * dq) ** 2
    return (lhs > rhs) - (lhs < rhs)


def sq_dist(p: Point, q: Point) -> Fraction:
    """Squared Euclidean distance sum_i (p_i - q_i)^2, kept squared to stay rational."""
    s, dp, dq = _sq_int(p.scaled, q.scaled)
    return Fraction(s, (dp * dq) ** 2)


def in_ball(x: Point, b: BallSpec) -> bool:
    """Strict membership in the Euclidean ball B(center, radius): sq_dist < radius^2.

    A topology.TangentBall is a BallSpec too but not this set: use ``contains``."""
    return _sq_sign(x.scaled, b.center.scaled, b.radius) < 0


def _check_tangency(a: Point) -> None:
    if not a.is_boundary:
        raise ValueError("tangency point must lie on the boundary hyperplane")


def _tangent_eps(a: Point, eps: RatLike) -> Fraction:
    """The parameter of the tangent ball at a, as an exact positive rational."""
    eps = _positive(eps, "tangent-ball parameter")
    _check_tangency(a)
    return eps


def tangent_gauge(x: Point, a: Point) -> Fraction:
    """sum_{i<n} (x_i - a_i)^2 + x_n^2 for a boundary tangency point a.

    Comparing the gauge against 2*eps*x_n decides tangent-ball membership;
    the gauge equals 2*eps*x_n exactly on the bounding sphere.
    """
    gauge = sq_dist(x, a)  # a_n = 0, so the gauge is |x - a|^2
    _check_tangency(a)
    return gauge


def _level_int(x: _Scaled, a: _Scaled, en: int, ed: int) -> tuple[int, int]:
    """(N, D) with N / D the level of the form x for the tangent ball at the
    boundary form a of parameter en/ed > 0: the gauge over 2*eps*x_n with
    every denominator cleared, D > 0 for interior x.  On the boundary the
    level reads 0/1 at a and 1/0 elsewhere, so that x lies in the tangent
    ball iff N < D, for every x."""
    s, dx, da = _sq_int(x, a)
    xn = x[0][-1]
    if xn:
        return s * ed, 2 * en * xn * dx * da * da
    return (0, 1) if s == 0 else (1, 0)  # |x - a| = 0 iff x = a


def _in_tangent_int(x: _Scaled, a: _Scaled, en: int, ed: int) -> bool:
    """:func:`in_tangent_ball` on forms and eps = en/ed: the level is below 1."""
    level_num, level_den = _level_int(x, a, en, ed)
    return level_num < level_den


def _level(x: Point, a: Point, eps: RatLike) -> tuple[int, int]:
    """The preamble of the tangent-ball functions: check the parameter and
    the tangency point, then read the level (N, D) of x on the cached forms."""
    eps = _tangent_eps(a, eps)
    return _level_int(x.scaled, a.scaled, eps.numerator, eps.denominator)


def in_tangent_ball(x: Point, a: Point, eps: RatLike) -> bool:
    """Membership in {a} ∪ B(a(eps), eps).

    True iff x = a, or x is interior and tangent_gauge(x, a) < 2*eps*x_n.
    Boundary points other than a are never inside: the tangent ball meets
    L_n exactly in its tangency point.
    """
    level_num, level_den = _level(x, a, eps)
    return level_num < level_den


def t_level(x: Point, a: Point, eps: RatLike) -> Fraction:
    """Level of an interior point: (sum_{i<n}(x_i-a_i)^2 + x_n^2) / (2*eps*x_n).

    For x != a this is the unique t with x on the bounding sphere of the
    tangent ball of parameter t*eps, and t < 1 iff x lies inside the tangent
    ball of parameter eps.  Undefined on the boundary hyperplane.
    """
    level = _level(x, a, eps)
    if x.is_boundary:
        raise ValueError("level is undefined on the boundary hyperplane")
    return Fraction(*level)


def separating_f(x: Point, a: Point, eps: RatLike) -> Fraction:
    """The separating function of the tangent ball: 0 at a, the level inside,
    1 outside.  Always in [0, 1], and f(x) < s iff x lies in the tangent ball
    of parameter s*eps, for every s in (0, 1)."""
    level_num, level_den = _level(x, a, eps)
    return Fraction(level_num, level_den) if level_num < level_den else Fraction(1)


def inner_ball_radius(q: Point, b: BallSpec) -> Fraction:
    """A rational radius delta with B(q, delta) ⊆ b for q strictly inside b.

    delta = (r^2 - d^2) / (2r) where d^2 = sq_dist(q, center).  Containment
    holds because r - d >= (r^2 - d^2)/(2r) for 0 <= d < r, and the formula
    avoids the irrational d itself.
    """
    s, dq, dc = _sq_int(q.scaled, b.center.scaled)
    rn, rd = b.radius.numerator, b.radius.denominator
    den = (dq * dc) ** 2  # d^2 = s / den and r^2 = rn^2 / rd^2
    gap = rn * rn * den - s * rd * rd
    if gap <= 0:
        raise ValueError("point is not strictly inside the ball")
    return Fraction(gap, 2 * rn * rd * den)


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
    return Point(_unscaled(_sphere_form(a.scaled, eps.numerator, eps.denominator, _scaled(v)[0])))


def _sphere_form(a: _Scaled, en: int, ed: int, v: Sequence[int]) -> _Scaled:
    """The form of a + s*v, s = 2*eps*v_n / |v|^2, for the boundary form a,
    eps = en/ed and an integer direction v with v_n > 0: the point of
    :func:`tangent_sphere_point`.  A direction's scale cancels from s*v, so
    a rational direction is read as the integers of its form."""
    (A, d), norm2 = a, sum([c * c for c in v])
    scale, k = ed * norm2, 2 * en * v[-1] * d
    return tuple([c * scale + k * w for c, w in zip(A, v)]), d * scale
