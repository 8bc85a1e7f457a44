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

S1-S4 sample and decide on integers.  A drawn rational is the pair (k, den)
of its draws and a point is geometry's scaled form (X, d), neither reduced,
and every check is an integer cross-product through the kernel's gauge
(``_sq_int``), level (``_level_int``) and membership (``_in_tangent_int``).
Fractions and Points are made in two places only: ``generate_samples``,
which hands out each sample as its public record, and a failure's data.
S5-S7 sample on Fractions; S6 reads the same integer draws and converts
them where it uses them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator

from .geometry import (
    Point,
    _level_int,
    _record,
    _Scaled,
    _form,
    _in_tangent_int,
    _sphere_form,
    _sq_int,
    _sq_sign,
    _unscaled,
    check_dimension,
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
    SetExpr,
    Union,
    member,
    random_expr,
    structural_candidates,
    to_text,
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
COORDINATE_RANGE = ((-2, 1), (2, 1))  # boundary coordinates, as integer pairs
RADIUS_RANGE = ((1, 4), (2, 1))  # tangent-ball parameters


class UnknownSuite(ValueError):
    """No suite of that name."""


class SamplingError(RuntimeError):
    """The sampler exhausted its budget without hitting the target region."""


@_record
class SuiteConfig:
    suite: str
    samples: int = 10_000
    seed: int = 42
    dimension: int = 2

    def __post_init__(self):
        check_dimension(self.dimension)
        if self.samples <= 0:
            raise ValueError("sample count must be positive")


@_record
class Failure:
    index: int
    check: str
    data: dict[str, str]

    def to_json(self) -> dict:
        return {"index": self.index, "check": self.check, "data": dict(self.data)}


class SuiteResult:
    """What one run of a suite found; ``run_suite`` fills in the checks, the
    failures and the elapsed time as the run goes."""

    def __init__(self, suite: str, dimension: int, samples: int, seed: int,
                 checks: int = 0, failures: list[Failure] | None = None,
                 elapsed: float = 0.0):
        self.suite = suite
        self.dimension = dimension
        self.samples = samples
        self.seed = seed
        self.checks = checks
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

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
# A drawn rational is an integer pair (k, den), den > 0, kept as drawn: each
# draw depends only on the values of its bounds, so a pair need not be in
# lowest terms.  Points are geometry's scaled forms (X, d), not reduced either.

_Rat = tuple[int, int]
_ZERO, _ONE, _TWO = (0, 1), (1, 1), (2, 1)


def _rand_rat(rng: random.Random, lo: _Rat, hi: _Rat) -> _Rat:
    (ln, ld), (hn, hd) = lo, hi
    for _ in range(64):
        den = rng.randint(1, DENOMINATOR_CAP)
        a = -(-ln * den // ld)  # ceil(lo * den)
        b = hn * den // hd  # floor(hi * den)
        if a <= b:
            return rng.randint(a, b), den
    raise SamplingError(f"no rational found in [{Fraction(*lo)}, {Fraction(*hi)}]")


def _rand_rat_open(rng: random.Random, lo: _Rat, hi: _Rat) -> _Rat:
    (ln, ld), (hn, hd) = lo, hi
    for _ in range(64):
        k, den = v = _rand_rat(rng, lo, hi)
        if ln * den < k * ld and k * hd < hn * den:  # lo < k/den < hi
            return v
    raise SamplingError(f"no rational found in ({Fraction(*lo)}, {Fraction(*hi)})")


def _shift(base: _Scaled, offsets: _Scaled) -> _Scaled:
    """The scaled form of base + offsets."""
    (B, db), (O, do) = base, offsets
    d = lcm(db, do)
    return tuple([b * (d // db) + o * (d // do) for b, o in zip(B, O)]), d


def _draw_inside(
    base: _Scaled, draw: Callable[[], list[_Rat]], center: Fraction, radius: Fraction
) -> _Scaled:
    """base + o for the first offsets o = draw() with |o - center*e_n| < radius.

    Each draw is decided on its offsets alone, as integers through the
    kernel's one comparison, and only the kept one is added to base."""
    target = ((0,) * (len(base[0]) - 1) + (center.numerator,), center.denominator)
    for _ in range(512):
        offsets = _form(draw())
        if _sq_sign(offsets, target, radius) < 0:
            return _shift(base, offsets)
    raise SamplingError("region empty after the rejection budget was exhausted")


def _rand_boundary_point(rng: random.Random, dimension: int) -> _Scaled:
    lo, hi = COORDINATE_RANGE
    return _form([_rand_rat(rng, lo, hi) for _ in range(dimension - 1)] + [_ZERO])


def _rand_eps(rng: random.Random) -> _Rat:
    return _rand_rat_open(rng, *RADIUS_RANGE)


def _rand_direction(rng: random.Random, dimension: int) -> tuple[int, ...]:
    # integer directions keep derived denominators small
    head = tuple(rng.randint(-9, 9) for _ in range(dimension - 1))
    return head + (rng.randint(1, 9),)


def _tangent_interior_point(rng: random.Random, anchor: _Scaled, eps: _Rat) -> _Scaled:
    """Rejection sample strictly inside B(a(eps), eps): the offsets x - a of
    an interior x lie there iff |o - eps*e_n| < eps."""
    (en, ed), m = eps, len(anchor[0]) - 1

    def draw():
        return [_rand_rat(rng, (-en, ed), eps) for _ in range(m)] + [
            _rand_rat_open(rng, _ZERO, (2 * en, ed))]

    radius = Fraction(en, ed)
    return _draw_inside(anchor, draw, radius, radius)


# --- sample streams ----------------------------------------------------------------
# One generator per suite, named in _SUITES: run_suite feeds its stream to the
# suite's checks, and generate_samples hands it out.  S1-S4 sample on
# integers, and generate_samples turns each of their samples into its public
# record.

def generate_samples(cfg: SuiteConfig) -> Iterator[dict]:
    """The deterministic sample stream feeding the suite of the config."""
    key = _canonical_suite(cfg.suite)
    samples = _SUITES[key][1](cfg)
    return map(_public, samples) if key in _INTEGER_SUITES else samples


def _public(sample: dict) -> dict:
    """The public record of an S1-S4 sample: points as Points and rationals
    as Fractions.  S1's sphere point follows from its anchor, eps and
    direction, so the record leaves it out."""
    record = {}
    for key, value in sample.items():
        if key in ("anchor", "x"):
            record[key] = Point(_unscaled(value))
        elif key == "direction":
            record[key] = value
        elif key != "sphere":
            record[key] = Fraction(*value)
    return record


def _gen_s1(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        anchor = _rand_boundary_point(rng, cfg.dimension)
        eps = _rand_eps(rng)
        direction = _rand_direction(rng, cfg.dimension)
        s_inside = _rand_rat_open(rng, _ZERO, _ONE)
        yield {
            "anchor": anchor,
            "eps": eps,
            "direction": direction,
            "s_inside": s_inside,
            "s_at": _ONE,
            "s_outside": _rand_rat_open(rng, _ONE, _TWO),
            "sphere": _sphere_form(anchor, *eps, direction),
        }


def _gen_interior(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        anchor = _rand_boundary_point(rng, cfg.dimension)
        eps = _rand_eps(rng)
        yield {
            "anchor": anchor,
            "eps": eps,
            "x": _tangent_interior_point(rng, anchor, eps),
        }


def _gen_s4(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    m = cfg.dimension - 1
    for _ in range(cfg.samples):
        anchor = _rand_boundary_point(rng, cfg.dimension)
        eps = en, ed = _rand_eps(rng)
        lo, hi = (-2 * en, ed), (2 * en, ed)
        kind = rng.randint(0, 3)
        if kind == 0:
            if rng.randint(0, 4) == 0:
                x = anchor
            else:
                x = _shift(anchor, _form([_rand_rat(rng, lo, hi) for _ in range(m)] + [_ZERO]))
        else:
            offsets = [_rand_rat(rng, lo, hi) for _ in range(m)]
            offsets.append(_rand_rat_open(rng, _ZERO, (3 * en, ed)))
            x = _shift(anchor, _form(offsets))
        yield {
            "anchor": anchor,
            "eps": eps,
            "x": x,
            "s": _rand_rat_open(rng, _ZERO, _ONE),
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
        *[c + Fraction(*_rand_rat(rng, (-1, 1), _ONE)) for c in x.boundary_coords()]
    )


def _containing_half_ball(rng: random.Random, x: Point) -> HalfBall:
    center = _nearby_boundary_point(rng, x)
    d2 = sq_dist(x, center)
    radius = (d2 + 3) / 2  # rational with radius^2 > d2, always
    return HalfBall(center, radius)


def _containing_tangent_ball(rng: random.Random, x: Point) -> TangentBall:
    if x.is_boundary:
        # a tangent ball contains no boundary point but its own anchor
        return TangentBall(x, Fraction(*_rand_rat_open(rng, _ZERO, _TWO)))
    anchor = _nearby_boundary_point(rng, x)
    scale = 1 + Fraction(*_rand_rat_open(rng, _ZERO, _ONE))
    return TangentBall(anchor, t_level(x, anchor, 1) * scale)


def _containing_interior_ball(rng: random.Random, x: Point) -> InteriorBall:
    n = x.dimension
    r1 = x.coords[-1] * Fraction(rng.randint(1, 4), 10)
    k, den = hi = (r1 / (2 * n)).as_integer_ratio()
    offsets = [Fraction(*_rand_rat(rng, (-k, den), hi)) for _ in range(n)]
    center = translate(x, offsets)
    return InteriorBall(center, r1 / 2 + sq_dist(x, center))


def _point_inside(rng: random.Random, b: BasicOpen) -> Point:
    if isinstance(b, TangentBall):
        if rng.randint(0, 5) == 0:
            return b.center
        level = Fraction(*_rand_rat_open(rng, _ZERO, _ONE))
        direction = _rand_direction(rng, b.center.dimension)
        return tangent_sphere_point(b.center, level * b.radius, direction)
    # an interior ball, or a half ball: its box stops at the boundary
    k, den = hi = b.radius.as_integer_ratio()
    last_lo = _ZERO if isinstance(b, HalfBall) else (-k, den)

    def draw():
        offsets = [_rand_rat(rng, (-k, den), hi) for _ in range(b.center.dimension - 1)]
        offsets.append(_rand_rat(rng, last_lo, hi))
        return offsets

    return Point(_unscaled(_draw_inside(b.center.scaled, draw, Fraction(0), b.radius)))


def _gen_s6(cfg: SuiteConfig) -> Iterator[dict]:
    rng = random.Random(cfg.seed)
    builders = (
        _containing_interior_ball,
        _containing_half_ball,
        _containing_tangent_ball,
    )
    for _ in range(cfg.samples):
        if rng.randint(0, 3) == 0:
            x = Point(_unscaled(_rand_boundary_point(rng, cfg.dimension)))
            b1 = builders[rng.randint(1, 2)](rng, x)
            b2 = builders[rng.randint(1, 2)](rng, x)
        else:
            lo, hi = COORDINATE_RANGE
            coords = [Fraction(*_rand_rat(rng, lo, hi)) for _ in range(cfg.dimension - 1)]
            coords.append(Fraction(*_rand_rat_open(rng, _ZERO, hi)))
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
    """A failure's data value as text: a point, a coordinate tuple or an
    S1-S4 form (X, d) reads (c1,...,cn), an S1-S4 pair (k, den) reads as
    its rational, and a set expression as its text."""
    if isinstance(value, SetExpr):
        return to_text(value)
    if isinstance(value, Point):
        value = value.coords
    elif isinstance(value, tuple) and len(value) == 2 and type(value[1]) is int:
        if not isinstance(value[0], tuple):
            return str(Fraction(*value))
        value = _unscaled(value)
    if isinstance(value, tuple):
        return "(" + ",".join(map(str, value)) + ")"
    return str(value)


class _Recorder:
    def __init__(self, result: SuiteResult):
        self.result = result
        self.index = 0

    def each(self, samples: Iterator[dict]) -> Iterator[dict]:
        """The samples, each yielded with ``index`` set to its position."""
        for index, sample in enumerate(samples):
            self.index = index
            yield sample

    def check(self, condition: bool, name: str, **data) -> None:
        self.result.checks += 1
        if not condition:
            self.result.failures.append(
                Failure(self.index, name, {k: _fmt(v) for k, v in data.items()})
            )


# S1-S4 decide every check on the integer samples.  For forms x, a of one
# arity, _sq_int(x, a) = (g, dx, da) gives the gauge |x - a|^2 = g/(dx*da)^2,
# _level_int the level and _in_tangent_int the membership; the tangent ball
# of parameter s*eps is read with the products en*sn and ed*sd.

def _run_s1(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in samples:
        a, eps, x = sample["anchor"], sample["eps"], sample["sphere"]
        s_in, s_at, s_out = sample["s_inside"], sample["s_at"], sample["s_outside"]
        en, ed = eps
        g, dx, da = _sq_int(x, a)
        rec.check(
            g * ed == 2 * en * x[0][-1] * dx * da * da,
            "gauge equality on the sphere", anchor=a, eps=eps, x=x,
        )
        rec.check(g != 0, "sphere point differs from the anchor", x=x)
        rec.check(
            not _in_tangent_int(x, a, en * s_in[0], ed * s_in[1]),
            "outside every shrunken tangent ball", x=x, s=s_in,
        )
        rec.check(
            not _in_tangent_int(x, a, en * s_at[0], ed * s_at[1]),
            "outside the tangent ball itself", x=x,
        )
        rec.check(
            _in_tangent_int(x, a, en * s_out[0], ed * s_out[1]),
            "inside every enlarged tangent ball", x=x, s=s_out,
        )
        level_num, level_den = _level_int(x, a, en, ed)
        rec.check(level_num == level_den, "level one on the sphere", x=x)


def _run_s2(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in samples:
        a, eps, x = sample["anchor"], sample["eps"], sample["x"]
        en, ed = eps
        t = tn, td = _level_int(x, a, en, ed)
        rec.check(0 < tn < td, "interior level in (0,1)", x=x, t=t)
        rec.check(_in_tangent_int(x, a, en, ed), "interior point inside", x=x)
        g, dx, da = _sq_int(x, a)
        rec.check(
            g * ed * td == 2 * tn * en * x[0][-1] * dx * da * da,
            "point sits on its level sphere", x=x, t=t,
        )
        rec.check(
            not _in_tangent_int(x, a, en * tn, ed * td),
            "level sphere is outside its own tangent ball", x=x, t=t,
        )
        rec.check(
            _in_tangent_int(x, a, en * (tn + td), ed * 2 * td),  # (t+1)/2 * eps
            "strictly larger levels swallow the point", x=x, t=t,
        )


def _run_s3(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in samples:
        a, eps, x = sample["anchor"], sample["eps"], sample["x"]
        en, ed = eps
        t = tn, td = _level_int(x, a, en, ed)
        g, dx, da = _sq_int(x, a)
        # the gauge equals 2*l*eps*x_n for the level l = p/q iff gauge * q == p * unit
        gauge, unit = g * ed, 2 * en * x[0][-1] * dx * da * da
        rec.check(en * x[0][-1] > 0, "level equation is nondegenerate", x=x)
        rec.check(gauge * td == tn * unit, "own level satisfies the equality", x=x)
        for wrong in ((tn, 2 * td), (2 * tn, td), (3 * tn + td, 3 * td)):  # t/2, 2t, t+1/3
            rec.check(
                gauge * wrong[1] != wrong[0] * unit,
                "no other level satisfies the equality", x=x, t=t, wrong=wrong,
            )


def _run_s4(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in samples:
        a, eps, x, s = sample["anchor"], sample["eps"], sample["x"], sample["s"]
        (en, ed), (sn, sd) = eps, s
        t = tn, td = _level_int(x, a, en, ed)
        f = fn, fd = t if tn < td else _ONE  # separating_f: the level, capped at 1
        inside = _in_tangent_int(x, a, en * sn, ed * sd)
        rec.check(0 <= fn <= fd, "separating value stays in [0,1]", x=x, f=f)
        rec.check((fn * sd < sn * fd) == inside, "sublevel identity", x=x, s=s, f=f)
        if x[0][-1]:  # interior, so x != a
            rec.check(
                (tn * sd < sn * td) == inside,
                "tangent-ball/level duality", x=x, s=s, t=t,
            )
            rec.check(
                (tn < td) == _in_tangent_int(x, a, en, ed),
                "duality at the full parameter", x=x, t=t,
            )


def _run_s5(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    # samples is the prefix length here, capped at 250: the certificates are
    # linear in the prefix, but the cap fixes the check count of a run
    # (2 * (2 * prefix + 2)), which perfbench's expected_checks reads
    prefix = min(cfg.samples, 250)
    topo = TopologySpec.niemytzki(cfg.dimension)
    for sample in samples:
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
        verdict = decide_convergence(fam, topo, prefix=prefix)
        rec.check(verdict.converges is False, "prefix is certified non-convergent")
        for message in certificate_failures(verdict, fam, topo, prefix=prefix):
            rec.check(False, message)
        rec.check(True, "certificates verified")


def _run_s6(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    rng = random.Random(cfg.seed + 1)  # witness stream, separate from the samples
    for sample in samples:
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


def _run_s7(samples: Iterator[dict], cfg: SuiteConfig, rec: _Recorder) -> None:
    for sample in samples:
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


_INTEGER_SUITES = ("S1", "S2", "S3", "S4")


def run_suite(cfg: SuiteConfig) -> SuiteResult:
    """Run one suite to completion and report every counterexample."""
    key = _canonical_suite(cfg.suite)
    runner, generate, _ = _SUITES[key]
    result = SuiteResult(
        suite=key, dimension=cfg.dimension, samples=cfg.samples, seed=cfg.seed
    )
    start = time.perf_counter()
    rec = _Recorder(result)
    runner(rec.each(generate(cfg)), cfg, rec)
    result.elapsed = time.perf_counter() - start
    return result
