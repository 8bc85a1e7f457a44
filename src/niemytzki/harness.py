"""Seeded exact-arithmetic property suites.

Every suite checks an exact rational identity over a deterministic sample
stream: there are no tolerances, a single failing sample fails the suite and
is reported with its full inputs.  Identical configuration means identical
stream and identical verdicts.

  S1  boundary identity: rational points on the bounding sphere of a tangent
      ball are outside every shrunken copy and inside every enlarged one.
  S2  disjoint decomposition: interior points of the tangent ball sit on the
      level-t sphere for exactly one t in (0, 1).
  S3  level uniqueness: no perturbed level satisfies the gauge equality.
  S4  sublevel identity: f(x) < s iff x lies in the tangent ball of
      parameter s*eps, plus the tangent-ball/level duality.
  S5  discreteness certificates for tangent-circle prefixes.
  S6  base-refinement witnesses.
  S7  three-valued logic laws of the membership oracle.

Sphere samples come from the rational parameterization, never from
rejection: measure-zero sets are unreachable by sampling.  Points inside a
ball come from rejection on a box, and each draw is decided on its offsets
from the ball's center before any point is built.  Generated rationals keep
denominators at or below 10^4 to bound bignum growth.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .geometry import (
    Point,
    _scaled,
    _sq_sign,
    check_dimension,
    in_tangent_ball,
    separating_f,
    sq_dist,
    t_level,
    tangent_gauge,
    tangent_sphere_point,
    translate,
)
from .setdsl import (
    IN,
    OUT,
    UNKNOWN,
    Complement,
    Inter,
    Union,
    member,
    random_expr,
    structural_candidates,
)
from .topology import (
    BasicOpen,
    HalfBall,
    InteriorBall,
    TangentBall,
    TangentCircle,
    TopologySpec,
    certificate_failures,
    contains,
    decide_convergence,
    refine,
)

DENOMINATOR_CAP = 10_000
COORDINATE_RANGE = (Fraction(-2), Fraction(2))  # boundary coordinates
RADIUS_RANGE = (Fraction(1, 4), Fraction(2))  # tangent-ball parameters


class UnknownSuite(ValueError):
    """No suite of that name."""


class SamplingError(RuntimeError):
    """The sampler exhausted its budget without hitting the target region."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    samples: int = 10_000
    seed: int = 42
    dimension: int = 2

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.samples <= 0:
            raise ValueError("sample count must be positive")


@dataclass(frozen=True)
class Failure:
    index: int
    check: str
    data: dict[str, str]

    def to_json(self) -> dict:
        return {"index": self.index, "check": self.check, "data": dict(self.data)}


@dataclass
class SuiteResult:
    suite: str
    dimension: int
    samples: int
    seed: int
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # deterministic: elapsed wall time stays out of the record
        return {
            "suite": self.suite,
            "dimension": self.dimension,
            "samples": self.samples,
            "seed": self.seed,
            "checks": self.checks,
            "failures": [f.to_json() for f in sorted(self.failures, key=lambda f: f.index)],
            "ok": self.ok,
        }


# --- deterministic rational sampling ----------------------------------------------

def _rand_rat(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    for _ in range(64):
        den = rng.randint(1, DENOMINATOR_CAP)
        a = -(-lo.numerator * den // lo.denominator)  # ceil(lo * den)
        b = hi.numerator * den // hi.denominator  # floor(hi * den)
        if a <= b:
            return Fraction(rng.randint(a, b), den)
    raise SamplingError(f"no rational found in [{lo}, {hi}]")


def _rand_rat_open(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    for _ in range(64):
        v = _rand_rat(rng, lo, hi)
        if lo < v < hi:
            return v
    raise SamplingError(f"no rational found in ({lo}, {hi})")


def _draw_inside(
    base: Point, draw: Callable[[], list[Fraction]], center: Fraction, radius: Fraction
) -> Point:
    """base + o for the first offsets o = draw() with |o - center*e_n| < radius.

    Each draw is decided on its offsets alone, as integers through the
    kernel's one comparison, and only the kept one becomes a point."""
    target = _scaled((0,) * (base.dimension - 1) + (center,))
    for _ in range(512):
        offsets = draw()
        if _sq_sign(_scaled(offsets), target, radius) < 0:
            return translate(base, offsets)
    raise SamplingError("region empty after the rejection budget was exhausted")


def _rand_boundary_point(rng: random.Random, cfg: SuiteConfig) -> Point:
    lo, hi = COORDINATE_RANGE
    return Point.boundary(*[_rand_rat(rng, lo, hi) for _ in range(cfg.dimension - 1)])


def _rand_eps(rng: random.Random) -> Fraction:
    return _rand_rat_open(rng, *RADIUS_RANGE)


def _rand_direction(rng: random.Random, dimension: int) -> tuple[int, ...]:
    # integer directions keep derived denominators small
    head = tuple(rng.randint(-9, 9) for _ in range(dimension - 1))
    return head + (rng.randint(1, 9),)


def _tangent_interior_point(rng: random.Random, anchor: Point, eps: Fraction) -> Point:
    """Rejection sample strictly inside B(a(eps), eps): the offsets x - a of
    an interior x lie there iff |o - eps*e_n| < eps."""

    def draw():
        return [
            _rand_rat(rng, -eps, eps) for _ in range(anchor.dimension - 1)
        ] + [_rand_rat_open(rng, Fraction(0), 2 * eps)]

    return _draw_inside(anchor, draw, eps, eps)


# --- sample streams ----------------------------------------------------------------

def generate_samples(cfg: SuiteConfig) -> Iterator[dict]:
    """The deterministic sample stream feeding the suite of the config."""
    key = _canonical_suite(cfg.suite)
    return _GENERATORS[key](cfg)


def _gen_s1(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        anchor = _rand_boundary_point(rng, cfg)
        eps = _rand_eps(rng)
        direction = _rand_direction(rng, cfg.dimension)
        s_inside = _rand_rat_open(rng, Fraction(0), Fraction(1))
        yield {
            "anchor": anchor,
            "eps": eps,
            "direction": direction,
            "s_inside": s_inside,
            "s_at": Fraction(1),
            "s_outside": _rand_rat_open(rng, Fraction(1), Fraction(2)),
        }


def _gen_interior(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        anchor = _rand_boundary_point(rng, cfg)
        eps = _rand_eps(rng)
        yield {
            "anchor": anchor,
            "eps": eps,
            "x": _tangent_interior_point(rng, anchor, eps),
        }


def _gen_s4(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        anchor = _rand_boundary_point(rng, cfg)
        eps = _rand_eps(rng)
        kind = rng.randint(0, 3)
        if kind == 0:
            if rng.randint(0, 4) == 0:
                x = anchor
            else:
                offsets = [
                    _rand_rat(rng, -2 * eps, 2 * eps)
                    for _ in range(cfg.dimension - 1)
                ] + [Fraction(0)]
                x = translate(anchor, offsets)
        else:
            offsets = [
                _rand_rat(rng, -2 * eps, 2 * eps) for _ in range(cfg.dimension - 1)
            ] + [_rand_rat_open(rng, Fraction(0), 3 * eps)]
            x = translate(anchor, offsets)
        yield {
            "anchor": anchor,
            "eps": eps,
            "x": x,
            "s": _rand_rat_open(rng, Fraction(0), Fraction(1)),
        }


def _gen_s5(cfg: SuiteConfig) -> Iterator[dict]:
    del cfg  # the prefix length is taken from the config at check time
    for anchor_first, eps in (
        (Fraction(0), Fraction(1)),
        (Fraction(1, 3), Fraction(3, 2)),
    ):
        yield {"anchor_first": anchor_first, "eps": eps}


def _nearby_boundary_point(rng: random.Random, x: Point) -> Point:
    """A boundary point within 1 of x in each of its first n-1 coordinates."""
    return Point.boundary(
        *[c + _rand_rat(rng, Fraction(-1), Fraction(1)) for c in x.boundary_coords()]
    )


def _containing_half_ball(rng: random.Random, x: Point) -> HalfBall:
    center = _nearby_boundary_point(rng, x)
    d2 = sq_dist(x, center)
    radius = (d2 + 3) / 2  # rational with radius^2 > d2, always
    return HalfBall(center, radius)


def _containing_tangent_ball(rng: random.Random, x: Point) -> TangentBall:
    if x.is_boundary:
        # a tangent ball contains no boundary point but its own anchor
        return TangentBall(x, _rand_rat_open(rng, Fraction(0), Fraction(2)))
    anchor = _nearby_boundary_point(rng, x)
    base = tangent_gauge(x, anchor) / (2 * x.coords[-1])
    scale = 1 + _rand_rat_open(rng, Fraction(0), Fraction(1))
    return TangentBall(anchor, base * scale)


def _containing_interior_ball(rng: random.Random, x: Point) -> InteriorBall:
    n = x.dimension
    r1 = x.coords[-1] * Fraction(rng.randint(1, 4), 10)
    offsets = [_rand_rat(rng, -r1 / (2 * n), r1 / (2 * n)) for _ in range(n)]
    center = translate(x, offsets)
    return InteriorBall(center, r1 / 2 + sq_dist(x, center))


def _point_inside(rng: random.Random, b: BasicOpen) -> Point:
    if isinstance(b, TangentBall):
        if rng.randint(0, 5) == 0:
            return b.center
        level = _rand_rat_open(rng, Fraction(0), Fraction(1))
        direction = _rand_direction(rng, b.center.dimension)
        return tangent_sphere_point(b.center, level * b.radius, direction)
    # an interior ball, or a half ball: its box stops at the boundary
    last_lo = Fraction(0) if isinstance(b, HalfBall) else -b.radius

    def draw():
        offsets = [_rand_rat(rng, -b.radius, b.radius) for _ in range(b.center.dimension - 1)]
        offsets.append(_rand_rat(rng, last_lo, b.radius))
        return offsets

    return _draw_inside(b.center, draw, Fraction(0), b.radius)


def _gen_s6(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    builders = (
        _containing_interior_ball,
        _containing_half_ball,
        _containing_tangent_ball,
    )
    for _ in range(cfg.samples):
        if rng.randint(0, 3) == 0:
            x = _rand_boundary_point(rng, cfg)
            b1 = builders[rng.randint(1, 2)](rng, x)
            b2 = builders[rng.randint(1, 2)](rng, x)
        else:
            lo, hi = COORDINATE_RANGE
            coords = [_rand_rat(rng, lo, hi) for _ in range(cfg.dimension - 1)]
            coords.append(_rand_rat_open(rng, Fraction(0), hi))
            x = Point(tuple(coords))
            b1 = builders[rng.randint(0, 2)](rng, x)
            b2 = builders[rng.randint(0, 2)](rng, x)
        yield {"x": x, "b1": b1, "b2": b2}


def _gen_s7(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    m = cfg.dimension - 1
    for _ in range(cfg.samples):
        e1 = random_expr(rng, cfg.dimension, max_depth=3)
        e2 = random_expr(rng, cfg.dimension, max_depth=3)
        pool = structural_candidates(Union((e1, e2)), m)
        if pool and rng.randint(0, 2) > 0:
            p = pool[rng.randint(0, len(pool) - 1)]
        else:
            p = tuple(
                Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(m)
            )
        yield {"e1": e1, "e2": e2, "p": p}


# --- the suites ---------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, Point):
        return "(" + ",".join(str(c) for c in value.coords) + ")"
    return str(value)


class _Recorder:
    def __init__(self, result: SuiteResult):
        self.result = result
        self.index = 0

    def check(self, condition: bool, name: str, **data) -> None:
        self.result.checks += 1
        if not condition:
            self.result.failures.append(
                Failure(self.index, name, {k: _fmt(v) for k, v in data.items()})
            )


def _run_s1(cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in generate_samples(cfg):
        a, eps = sample["anchor"], sample["eps"]
        x = tangent_sphere_point(a, eps, sample["direction"])
        rec.check(
            tangent_gauge(x, a) == 2 * eps * x.coords[-1],
            "gauge equality on the sphere", anchor=a, eps=eps, x=x,
        )
        rec.check(x != a, "sphere point differs from the anchor", x=x)
        rec.check(
            not in_tangent_ball(x, a, sample["s_inside"] * eps),
            "outside every shrunken tangent ball", x=x, s=sample["s_inside"],
        )
        rec.check(
            not in_tangent_ball(x, a, sample["s_at"] * eps),
            "outside the tangent ball itself", x=x,
        )
        rec.check(
            in_tangent_ball(x, a, sample["s_outside"] * eps),
            "inside every enlarged tangent ball", x=x, s=sample["s_outside"],
        )
        rec.check(t_level(x, a, eps) == 1, "level one on the sphere", x=x)
        rec.index += 1


def _run_s2(cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in generate_samples(cfg):
        a, eps, x = sample["anchor"], sample["eps"], sample["x"]
        t = t_level(x, a, eps)
        rec.check(0 < t < 1, "interior level in (0,1)", x=x, t=t)
        rec.check(in_tangent_ball(x, a, eps), "interior point inside", x=x)
        rec.check(
            tangent_gauge(x, a) == 2 * (t * eps) * x.coords[-1],
            "point sits on its level sphere", x=x, t=t,
        )
        rec.check(
            not in_tangent_ball(x, a, t * eps),
            "level sphere is outside its own tangent ball", x=x, t=t,
        )
        rec.check(
            in_tangent_ball(x, a, (t + 1) / 2 * eps),
            "strictly larger levels swallow the point", x=x, t=t,
        )
        rec.index += 1


def _run_s3(cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in generate_samples(cfg):
        a, eps, x = sample["anchor"], sample["eps"], sample["x"]
        t = t_level(x, a, eps)
        gauge = tangent_gauge(x, a)
        rec.check(2 * eps * x.coords[-1] > 0, "level equation is nondegenerate", x=x)
        rec.check(gauge == 2 * t * eps * x.coords[-1], "own level satisfies the equality", x=x)
        for wrong in (t / 2, 2 * t, t + Fraction(1, 3)):
            rec.check(
                gauge != 2 * wrong * eps * x.coords[-1],
                "no other level satisfies the equality", x=x, t=t, wrong=wrong,
            )
        rec.index += 1


def _run_s4(cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in generate_samples(cfg):
        a, eps, x, s = sample["anchor"], sample["eps"], sample["x"], sample["s"]
        f = separating_f(x, a, eps)
        rec.check(0 <= f <= 1, "separating value stays in [0,1]", x=x, f=f)
        rec.check(
            (f < s) == in_tangent_ball(x, a, s * eps),
            "sublevel identity", x=x, s=s, f=f,
        )
        if x != a and not x.is_boundary:
            t = t_level(x, a, eps)
            rec.check(
                (t < s) == in_tangent_ball(x, a, s * eps),
                "tangent-ball/level duality", x=x, s=s, t=t,
            )
            rec.check(
                (t < 1) == in_tangent_ball(x, a, eps),
                "duality at the full parameter", x=x, t=t,
            )
        rec.index += 1


def _run_s5(cfg: SuiteConfig, rec: _Recorder) -> None:
    # samples is the prefix length here, capped at 250: the certificates are
    # linear in the prefix, but the cap fixes the check count of a run
    # (2 * (2 * prefix + 2)), which perfbench's expected_checks reads
    prefix = min(cfg.samples, 250)
    topo = TopologySpec.niemytzki(cfg.dimension)
    for sample in generate_samples(cfg):
        head = [sample["anchor_first"]] + [Fraction(0)] * (cfg.dimension - 2)
        anchor = Point.boundary(*head)
        fam = TangentCircle(anchor, sample["eps"])
        blocking = TangentBall(anchor, fam.eps)
        for k in range(1, prefix + 1):
            term = fam.term(k)
            rec.check(
                tangent_gauge(term, anchor) == 2 * fam.eps * term.coords[-1],
                "term sits on the bounding sphere exactly", k=k, term=term,
            )
            rec.check(
                not contains(blocking, term),
                "blocking tangent ball excludes the term", k=k, term=term,
            )
        verdict = decide_convergence(fam, topo, anchor, prefix=prefix)
        rec.check(verdict.converges is False, "prefix is certified non-convergent")
        for message in certificate_failures(verdict, fam, topo, prefix=prefix):
            rec.check(False, message)
        rec.check(True, "certificates verified")
        rec.index += 1


def _run_s6(cfg: SuiteConfig, rec: _Recorder) -> None:
    rng = random.Random(cfg.seed + 1)  # witness stream, separate from the samples
    for sample in generate_samples(cfg):
        x, b1, b2 = sample["x"], sample["b1"], sample["b2"]
        rec.check(contains(b1, x) and contains(b2, x), "construction places x inside", x=x)
        result = refine(b1, b2, x)
        rec.check(contains(result, x), "refinement keeps the point", x=x)
        for _ in range(3):
            y = _point_inside(rng, result)
            rec.check(
                contains(result, y) and contains(b1, y) and contains(b2, y),
                "refinement is contained in both parents", x=x, y=y,
            )
        rec.index += 1


def _run_s7(cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in generate_samples(cfg):
        e1, e2, p = sample["e1"], sample["e2"], sample["p"]
        m1, m2 = member(e1, p), member(e2, p)
        rec.check(
            member(Complement(e1), p) is ~m1,
            "complement is three-valued negation", e=e1, p=p,
        )
        rec.check(
            member(Complement(Union((e1, e2))), p)
            is member(Inter((Complement(e1), Complement(e2))), p),
            "De Morgan over union", p=p,
        )
        rec.check(
            member(Complement(Inter((e1, e2))), p)
            is member(Union((Complement(e1), Complement(e2))), p),
            "De Morgan over intersection", p=p,
        )
        rec.check(member(Union((e1, e1)), p) is m1, "union is idempotent", p=p)
        rec.check(member(Inter((e1, e1)), p) is m1, "intersection is idempotent", p=p)
        rec.check(
            member(Union((e1, Complement(e1))), p) in (IN, UNKNOWN),
            "excluded middle never fails outright", p=p,
        )
        rec.check(
            member(Inter((e1, Complement(e1))), p) in (OUT, UNKNOWN),
            "contradiction never holds outright", p=p,
        )
        rec.check(member(Union((e1, e2)), p) is (m1 | m2), "union is Kleene or", p=p)
        rec.check(member(Inter((e1, e2)), p) is (m1 & m2), "intersection is Kleene and", p=p)
        rec.index += 1


_SUITES: dict[str, tuple[Callable, Callable, str]] = {
    "S1": (_run_s1, _gen_s1, "boundary-identity"),
    "S2": (_run_s2, _gen_interior, "disjoint-decomposition"),
    "S3": (_run_s3, _gen_interior, "level-uniqueness"),
    "S4": (_run_s4, _gen_s4, "sublevel-identity"),
    "S5": (_run_s5, _gen_s5, "discreteness-certificates"),
    "S6": (_run_s6, _gen_s6, "base-refinement"),
    "S7": (_run_s7, _gen_s7, "three-valued-laws"),
}

_ALIASES = {name.lower(): key for key, (_, _, name) in _SUITES.items()}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def _canonical_suite(name: str) -> str:
    key = name.strip().upper()
    if key in _SUITES:
        return key
    alias = _ALIASES.get(name.strip().lower())
    if alias:
        return alias
    raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(suite_names())}")


_GENERATORS = {key: gen for key, (_, gen, _) in _SUITES.items()}


def run_suite(cfg: SuiteConfig) -> SuiteResult:
    """Run one suite to completion and report every counterexample."""
    key = _canonical_suite(cfg.suite)
    runner, _, _ = _SUITES[key]
    result = SuiteResult(
        suite=key, dimension=cfg.dimension, samples=cfg.samples, seed=cfg.seed
    )
    start = time.perf_counter()
    rec = _Recorder(result)
    runner(cfg, rec)
    result.elapsed = time.perf_counter() - start
    return result
