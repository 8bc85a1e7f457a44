"""Local bases, refinement and convergence for the tangent-ball topologies.

A boundary set A ⊆ L_n induces the topology tau(A) on X_n:

  * interior points keep Euclidean balls B(a, eps) with 0 < eps < a_n,
  * boundary points in A keep Euclidean half-balls B(a, eps) ∩ X_n,
  * boundary points outside A receive tangent balls {a} ∪ B(a(eps), eps).

tau(L_n) is the Euclidean topology and tau(∅) the classical tangent-ball
(Niemytzki) topology; the constructors below normalize those two cases so
``euclidean(n) == modified(all, n)`` and ``niemytzki(n) == modified(empty, n)``.
A boundary set given as text or as a tree is read once, by
``setdsl.normalize_for``.

Convergence is decided only for the two closed-form sequence families, with
machine-checkable certificates: an exact index bound when the sequence
converges, and a blocking neighborhood plus per-term isolating radii when a
boundary-sphere sequence is discrete.  Arbitrary finite prefixes only yield
inconclusive verdicts — "for every eps, eventually inside" is undecidable
for a black-box sequence.

Every basic open is a :class:`~niemytzki.geometry.BallSpec`, the one ball
record, which checks the radius; a subclass adds only where its center may
sit.  ``contains`` is the one membership test.  It reads the point's scaled
form through ``_contains``, which suite S6 calls on the forms it draws: the
kernel's ``_sq_sign`` for interior and half balls, and its
``_in_tangent_int`` on the cached forms of a tangent ball, whose radius and
center were checked when it was built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .geometry import (
    BallSpec,
    DimensionMismatch,
    Point,
    RatLike,
    _in_tangent_int,
    _record,
    _Scaled,
    _sq_sign,
    inner_ball_radius,
    rat,
    sq_dist,
    tangent_gauge,
    translate,
)
from .setdsl import IN, UNKNOWN, All, Empty, SetExpr, member, normalize_for, to_text


class UndecidableMembership(RuntimeError):
    """The boundary-set oracle answered Unknown where a decision was needed."""


@_record
class TopologySpec:
    """One of the topologies tau(A) on X_n, A given as a set expression.

    Text or a tree built in Python becomes one normal tree through
    ``setdsl.normalize_for``, which checks the dimension and every arity
    once: text as it is parsed, a tree as it is normalized."""

    dimension: int
    boundary_set: SetExpr

    def __post_init__(self):
        object.__setattr__(self, "boundary_set", normalize_for(self.boundary_set, self.dimension))

    @staticmethod
    def euclidean(dimension: int) -> "TopologySpec":
        return TopologySpec(dimension, All())

    @staticmethod
    def niemytzki(dimension: int) -> "TopologySpec":
        return TopologySpec(dimension, Empty())

    @staticmethod
    def modified(boundary_set: SetExpr | str, dimension: int) -> "TopologySpec":
        return TopologySpec(dimension, boundary_set)

    @property
    def kind(self) -> str:
        if self.boundary_set == All():
            return "euclidean"
        if self.boundary_set == Empty():
            return "niemytzki"
        return "modified"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "boundary_set": to_text(self.boundary_set),
        }


# --- basic open sets ------------------------------------------------------------

@_record
class BasicOpen(BallSpec):
    kind = "basic-open"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "center": self.center.to_json(),
            "radius": str(self.radius),
        }


@_record
class InteriorBall(BasicOpen):
    """B(center, radius) with radius < center_n, so the ball stays in P_n."""

    kind = "interior-ball"

    def __post_init__(self):
        super().__post_init__()
        if self.center.is_boundary:
            raise ValueError("interior balls are centered at interior points")
        if self.radius >= self.center.coords[-1]:
            raise ValueError("interior ball must stay inside the open half-space")


@_record
class HalfBall(BasicOpen):
    """B(center, radius) ∩ X_n for a boundary center."""

    kind = "half-ball"

    def __post_init__(self):
        super().__post_init__()
        if not self.center.is_boundary:
            raise ValueError("half balls are centered on the boundary hyperplane")


@_record
class TangentBall(BasicOpen):
    """{center} ∪ B(center(radius), radius) for a boundary center."""

    kind = "tangent-ball"

    def __post_init__(self):
        super().__post_init__()
        if not self.center.is_boundary:
            raise ValueError("tangent balls are centered on the boundary hyperplane")

    def equivalent_ball(self) -> BallSpec:
        """The Euclidean ball B(a(eps), eps) whose union with {a} is this set."""
        lifted = self.center.coords[:-1] + (self.radius,)
        return BallSpec(Point(lifted), self.radius)


def contains(b: BasicOpen, x: Point) -> bool:
    """Exact membership of a point of X_n in a basic open set.  A point of
    another dimension raises DimensionMismatch, from the kernel."""
    return _contains(b, x.scaled)


def _contains(b: BasicOpen, q: _Scaled) -> bool:
    """:func:`contains` on the scaled form q of a point of X_n, which need
    not be reduced."""
    r = b.radius
    if isinstance(b, TangentBall):
        return _in_tangent_int(q, b.center.scaled, r.numerator, r.denominator)
    return _sq_sign(q, b.center.scaled, r) < 0


def _keeps_half_balls(topo: TopologySpec, p: Point) -> bool:
    """Whether the boundary point p lies in A, so that tau(A) gives it half
    balls; an Unknown membership raises UndecidableMembership."""
    verdict = member(topo.boundary_set, p.boundary_coords())
    if verdict is UNKNOWN:
        raise UndecidableMembership(
            f"membership of {p.to_json()} in {to_text(topo.boundary_set)} is unknown"
        )
    return verdict is IN


def local_base_element(topo: TopologySpec, p: Point, eps: RatLike) -> BasicOpen:
    """The basic tau(A)-open of size eps at p.

    Interior points get B(p, min(eps, p_n/2)): the clamp keeps the element
    inside the open half-space while the operation stays total in eps.
    Boundary points get a half ball when p is in A and a tangent ball when it
    is not; an Unknown membership (Bernstein boundary sets) aborts with
    UndecidableMembership.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p.dimension != topo.dimension:
        raise DimensionMismatch("point dimension differs from the topology's")
    if not p.is_boundary:
        return InteriorBall(p, min(eps, p.coords[-1] / 2))
    if _keeps_half_balls(topo, p):
        return HalfBall(p, eps)
    return TangentBall(p, eps)


def _interior_margin(b: BasicOpen, x: Point) -> Fraction:
    return inner_ball_radius(x, b.equivalent_ball() if isinstance(b, TangentBall) else b)


def _boundary_margin(b: HalfBall, x: Point) -> Fraction:
    if b.center == x:
        return b.radius
    return inner_ball_radius(x, b)


def refine(b1: BasicOpen, b2: BasicOpen, x: Point) -> BasicOpen:
    """A basic open containing x and contained in b1 ∩ b2.

    Interior x: an interior ball around x whose radius is the smaller of the
    two rational containment margins (for a tangent container the margin is
    taken against its equivalent Euclidean ball).  Boundary x: tangent balls
    in play must be centered at x — a tangent ball contains no other boundary
    point — and the result is the tangent or half ball at x of the largest
    radius that still fits; a tangent ball of parameter d sits inside
    B(x, 2d), which gives the halving against half-ball containers.
    """
    for b in (b1, b2):
        if not contains(b, x):
            raise ValueError("refine needs a point lying in both basic opens")
    if not x.is_boundary:
        radius = min(_interior_margin(b1, x), _interior_margin(b2, x), x.coords[-1] / 2)
        return InteriorBall(x, radius)
    tangents = [b for b in (b1, b2) if isinstance(b, TangentBall)]
    halves = [b for b in (b1, b2) if isinstance(b, HalfBall)]
    if len(tangents) + len(halves) != 2:
        raise ValueError("a boundary point lies in no interior ball")
    for t in tangents:
        # two tangent balls at distinct boundary points cannot share a
        # boundary point; reaching this with t.center != x is a logic bug
        assert t.center == x, "tangent ball containing a foreign boundary point"
    if tangents:
        constraints = [t.radius for t in tangents]
        constraints += [_boundary_margin(h, x) / 2 for h in halves]
        return TangentBall(x, min(constraints))
    return HalfBall(x, min(_boundary_margin(h, x) for h in halves))


# --- closed-form sequence families ------------------------------------------------

@_record
class SequenceFamily:
    """A sequence x_1, x_2, ... of points of X_n.  A closed-form family
    builds each term once per family object: ``term`` keeps what it built
    beside the fields, so the kept terms change neither ``==``, ``hash``
    nor the pickled state."""

    @cached_property
    def _terms(self) -> dict[int, Point]:
        return {}

    def term(self, k: int) -> Point:
        if k < 1:
            raise ValueError("terms are indexed from 1")
        terms = self._terms
        point = terms.get(k)
        if point is None:
            point = terms[k] = self._term(k)
        return point


@_record
class Vertical(SequenceFamily):
    """x_k = a + (0, ..., 0, height/k): descends to the anchor along the normal."""

    anchor: Point
    height: Fraction

    def __post_init__(self):
        object.__setattr__(self, "height", rat(self.height))
        if not self.anchor.is_boundary:
            raise ValueError("the anchor must lie on the boundary hyperplane")
        if self.height <= 0:
            raise ValueError("height must be positive")

    def _term(self, k: int) -> Point:
        offset = (0,) * (self.anchor.dimension - 1) + (self.height / k,)
        return translate(self.anchor, offset)

    def to_json(self) -> dict:
        return {
            "family": "vertical",
            "anchor": self.anchor.to_json(),
            "height": str(self.height),
        }


@_record
class TangentCircle(SequenceFamily):
    """Rational points marching to the anchor along the tangent-ball sphere.

    x_k = (a_1 + 2*eps*k/(k^2+1), a_2, ..., a_{n-1}, 2*eps/(k^2+1)): the
    tangent half-angle parameterization, so every term satisfies the gauge
    equality tangent_gauge = 2*eps*x_n exactly and converges to the anchor
    in the Euclidean sense.
    """

    anchor: Point
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", rat(self.eps))
        if not self.anchor.is_boundary:
            raise ValueError("the anchor must lie on the boundary hyperplane")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def _term(self, k: int) -> Point:
        den = k * k + 1
        offset = (
            (2 * self.eps * k / den,)
            + (0,) * (self.anchor.dimension - 2)
            + (2 * self.eps / den,)
        )
        return translate(self.anchor, offset)

    def to_json(self) -> dict:
        return {
            "family": "tangent-circle",
            "anchor": self.anchor.to_json(),
            "eps": str(self.eps),
        }


@_record
class FiniteList(SequenceFamily):
    points: tuple[Point, ...]

    def to_json(self) -> dict:
        return {"family": "finite-list", "points": [p.to_json() for p in self.points]}


# --- convergence certificates -----------------------------------------------------

_INDEX_FORMS = ("linear", "quadratic")  # the forms IndexBound.holds reads


@_record
class IndexBound:
    """Exact membership threshold for the eps-neighborhood of the anchor.

    form "linear":    x_k in N(a, eps)  iff  k > coefficient / eps
    form "quadratic": x_k in N(a, eps)  iff  k^2 + 1 > coefficient / eps^2
    """

    form: str
    coefficient: Fraction
    description: str

    def holds(self, k: int, eps: Fraction) -> bool:
        if self.form == "linear":
            return k > self.coefficient / eps
        if self.form == "quadratic":
            return Fraction(k * k + 1) > self.coefficient / (eps * eps)
        raise ValueError(f"unknown index-bound form {self.form!r}")

    def to_json(self) -> dict:
        return {
            "kind": "index-bound",
            "form": self.form,
            "coefficient": str(self.coefficient),
            "description": self.description,
        }


@_record
class BlockingNeighborhood:
    """A basic open around the limit containing no term of the sequence."""

    neighborhood: BasicOpen

    def to_json(self) -> dict:
        return {"kind": "blocking-neighborhood", "neighborhood": self.neighborhood.to_json()}


@_record
class DiscretenessRadii:
    """Per-term isolating interior balls: each excludes every other term and
    the anchor, witnessing discreteness of the prefix.  The entries are
    terms 1..prefix in order, one each."""

    entries: tuple[tuple[Point, Fraction], ...]

    def to_json(self) -> dict:
        return {
            "kind": "discreteness-radii",
            "entries": [
                {"point": p.to_json(), "radius": str(r)} for p, r in self.entries
            ],
        }


@_record
class ConvergenceVerdict:
    converges: Optional[bool]  # None: inconclusive (finite prefixes only)
    certificates: tuple = ()

    def to_json(self) -> dict:
        return {
            "converges": "inconclusive" if self.converges is None else self.converges,
            "certificates": [c.to_json() for c in self.certificates],
        }


def _isolating_radii(
    fam: TangentCircle, prefix: int
) -> tuple[tuple[Point, Fraction], ...]:
    """Each of the first ``prefix`` terms with a radius whose interior ball
    holds no other term and not the anchor.

    The lemma: term k lies on the circle of radius eps about a + eps*e_n at
    angle 2*arctan(1/k) from a, and these angles fall strictly towards the
    anchor's 0 while staying at most pi/2.  A chord grows with the angle it
    spans, so among the terms and the anchor the nearest point to term k is
    term k-1 or term k+1, and the anchor after the last term.  The squared
    gap of each term is therefore the shorter of its two links along the
    chain term 1, ..., term prefix, anchor: prefix distances in all.
    """
    chain = [fam.term(k) for k in range(1, prefix + 1)] + [fam.anchor]
    links = [sq_dist(p, q) for p, q in zip(chain, chain[1:])]
    entries = []
    for i, p in enumerate(chain[:-1]):
        gap = min(links[i - 1], links[i]) if i else links[0]
        # any radius with radius^2 <= gap works; min(1, gap) does, exactly
        radius = min(Fraction(1), gap, p.coords[-1] / 2)
        entries.append((p, radius))
    return tuple(entries)


def decide_convergence(
    fam: SequenceFamily, topo: TopologySpec, prefix: int = 100
) -> ConvergenceVerdict:
    """Convergence of a closed-form family to its anchor under tau(A).

    Vertical families converge under every topology; the index bound is
    k > h/eps for half-ball neighborhoods and k > h/(2 eps) for tangent
    balls.  Tangent-circle families converge exactly when the anchor keeps
    Euclidean neighborhoods; otherwise the tangent ball of the family's own
    parameter blocks every term and the prefix is certified discrete.  A
    finite list, which has no anchor for a limit, stays inconclusive.
    """
    if isinstance(fam, FiniteList):
        return ConvergenceVerdict(None, ())
    if fam.anchor.dimension != topo.dimension:
        raise DimensionMismatch("family dimension differs from the topology's")
    euclidean_at_anchor = _keeps_half_balls(topo, fam.anchor)

    if isinstance(fam, Vertical):
        if euclidean_at_anchor:
            bound = IndexBound(
                "linear",
                fam.height,
                "inside the half ball B(a, eps) once k > height/eps",
            )
        else:
            bound = IndexBound(
                "linear",
                fam.height / 2,
                "inside the tangent ball of parameter eps once k > height/(2*eps)",
            )
        return ConvergenceVerdict(True, (bound,))

    if isinstance(fam, TangentCircle):
        if euclidean_at_anchor:
            bound = IndexBound(
                "quadratic",
                4 * fam.eps * fam.eps,
                "inside B(a, eps) once k^2 + 1 > 4*eps_0^2/eps^2 "
                "(eps_0 the family parameter)",
            )
            return ConvergenceVerdict(True, (bound,))
        blocking = BlockingNeighborhood(TangentBall(fam.anchor, fam.eps))
        radii = DiscretenessRadii(_isolating_radii(fam, prefix))
        return ConvergenceVerdict(False, (blocking, radii))

    raise TypeError(f"not a sequence family: {fam!r}")


# the neighborhood sizes at which certificate_failures re-checks an index bound
_DELTAS = (
    Fraction(2),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 7),
)


def _coverage_failures(
    entries: tuple[tuple[Point, Fraction], ...], terms: list[Point]
) -> list[str]:
    """One message per position at which the entries' points differ from
    terms 1..prefix: a wrong point, a missing term or an entry past the
    prefix."""
    failures = []
    for k in range(1, max(len(entries), len(terms)) + 1):
        if k > len(entries):
            failures.append(f"radii certificate omits term {k}")
        elif k > len(terms):
            failures.append(f"radii entry {k} lies beyond the prefix")
        elif entries[k - 1][0] != terms[k - 1]:
            failures.append(f"radii entry {k} is not term {k}")
    return failures


def _isolation_failures(
    entries: tuple[tuple[Point, Fraction], ...], anchor: Point
) -> list[str]:
    """Whether each entry's interior ball admits another entry or the anchor.

    Nothing is assumed about where the points lie.  An entry q with
    |q_1 - p_1| >= r lies outside the open ball B(p, r), so each ball tests
    only the entries whose first coordinate lies within its radius, found by
    bisection on the entries sorted by it once; they are tested in entry
    order, which keeps the messages in the order of the full pair check.
    An entry whose point is no ``Point`` or lies in another dimension than
    the anchor, whose radius is no exact rational, or that has no interior
    ball (its radius not below its point's height, or its point on the
    boundary) is one failure and tests nothing; no ball tests a point that
    is no ``Point`` or lies in another dimension."""
    n = anchor.dimension
    usable = [j for j, (p, _) in enumerate(entries) if isinstance(p, Point) and p.dimension == n]
    order = sorted(usable, key=lambda j: entries[j][0].coords[0])
    firsts = [entries[j][0].coords[0] for j in order]
    failures = []
    for i, (p, radius) in enumerate(entries):
        if not isinstance(p, Point):
            failures.append(f"isolating ball of term {i + 1} is not a point")
            continue
        if p.dimension != n:
            failures.append(f"isolating ball of term {i + 1} lies in another dimension")
            continue
        try:
            ball = InteriorBall(p, radius)
        except TypeError:  # rat refuses a float
            failures.append(f"isolating ball of term {i + 1} has no exact radius")
            continue
        except ValueError:  # the radius or the point: no interior ball
            failures.append(f"isolating ball of term {i + 1} is not an interior ball")
            continue
        c, r = p.coords[0], ball.radius
        window = order[bisect_right(firsts, c - r):bisect_left(firsts, c + r)]
        for j in sorted(window):
            q = entries[j][0]
            if j != i and contains(ball, q):
                failures.append(f"isolating ball of term {i + 1} admits term {j + 1}")
        if contains(ball, anchor):
            failures.append(f"isolating ball of term {i + 1} admits the anchor")
    return failures


def certificate_failures(
    verdict: ConvergenceVerdict,
    fam: SequenceFamily,
    topo: TopologySpec,
    prefix: int = 100,
) -> list[str]:
    """Re-verify every certificate on the first ``prefix`` terms.

    Index bounds are exact iff-thresholds, so both directions are checked;
    one of an unknown form fails.  Isolating radii must cover exactly the
    prefix, and every ball is tested against every other entry and the
    anchor.  Returns human-readable failure messages; an empty list means
    verified.
    """
    failures: list[str] = []
    if isinstance(fam, FiniteList):
        return failures
    terms = [fam.term(k) for k in range(1, prefix + 1)]
    for cert in verdict.certificates:
        if isinstance(cert, IndexBound) and cert.form not in _INDEX_FORMS:
            failures.append(f"index bound of unknown form {cert.form!r}")
        elif isinstance(cert, IndexBound):
            for delta in _DELTAS:
                base = local_base_element(topo, fam.anchor, delta)
                for k, term in enumerate(terms, start=1):
                    if contains(base, term) != cert.holds(k, delta):
                        failures.append(
                            f"index bound disagrees at k={k}, eps={delta}"
                        )
        elif isinstance(cert, BlockingNeighborhood):
            for k, term in enumerate(terms, start=1):
                if contains(cert.neighborhood, term):
                    failures.append(f"blocking neighborhood admits term k={k}")
            if isinstance(fam, TangentCircle):
                for k, term in enumerate(terms, start=1):
                    gauge = tangent_gauge(term, fam.anchor)
                    if gauge != 2 * fam.eps * term.coords[-1]:
                        failures.append(f"gauge equality fails at k={k}")
        elif isinstance(cert, DiscretenessRadii):
            failures += _coverage_failures(cert.entries, terms)
            failures += _isolation_failures(cert.entries, fam.anchor)
        else:
            failures.append(f"unknown certificate {cert!r}")
    return failures
