import math
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from niemytzki import harness
from niemytzki.geometry import (
    BallSpec,
    Point,
    _level_int,
    _unscaled,
    in_ball,
    in_tangent_ball,
    translate,
)
from niemytzki.harness import (
    DENOMINATOR_CAP,
    SamplingError,
    SuiteConfig,
    UnknownSuite,
    _draw_inside,
    _rand_rat,
    generate_samples,
    run_suite,
    suite_names,
)
from niemytzki.setdsl import UNKNOWN, Complement, parse
from niemytzki.topology import TangentCircle

import oracles
from oracles import suite_checks_ref


class TestSampling:
    def test_identical_seeds_give_identical_streams(self):
        cfg = SuiteConfig("S1", samples=25, seed=42, dimension=3)
        assert list(generate_samples(cfg)) == list(generate_samples(cfg))

    def test_different_seeds_differ(self):
        a = list(generate_samples(SuiteConfig("S4", samples=10, seed=1)))
        b = list(generate_samples(SuiteConfig("S4", samples=10, seed=2)))
        assert a != b

    def test_denominators_are_capped(self):
        cfg = SuiteConfig("S4", samples=50, seed=7, dimension=2)
        for sample in generate_samples(cfg):
            for c in sample["x"].coords:
                assert 0 < c.denominator  # normalized
            assert sample["eps"].denominator <= 10_000

    def test_rejection_postcondition(self):
        cfg = SuiteConfig("S2", samples=100, seed=11, dimension=2)
        from niemytzki.geometry import tangent_gauge

        for sample in generate_samples(cfg):
            a, eps, x = sample["anchor"], sample["eps"], sample["x"]
            assert tangent_gauge(x, a) < 2 * eps * x.coords[-1]

    @pytest.mark.parametrize("lo, hi", [
        (Fr(-2), Fr(2)), (Fr(-7, 3), Fr(-1, 3)), (Fr(0), Fr(5, 7)), (Fr(-5, 7), Fr(0)),
        (Fr(1, 4), Fr(1, 2)), (Fr(-1, 10_000), Fr(1, 10_000)), (-3, 3),
    ])
    @pytest.mark.parametrize("den", [1, 3, 7, 12, 9_999, DENOMINATOR_CAP])
    def test_rational_bounds_are_ceil_and_floor(self, lo, hi, den):
        # den 1, 7, 12 and 10^4 make lo*den and hi*den exact integers for
        # the integer, seventh, third or quarter, and 1/10^4 bounds
        calls = []

        class Scripted:
            def randint(self, a, b):
                calls.append((a, b))
                return den if (a, b) == (1, DENOMINATOR_CAP) else a

        a, b = math.ceil(lo * den), math.floor(hi * den)
        bounds = Fr(lo).as_integer_ratio(), Fr(hi).as_integer_ratio()
        if a > b:
            with pytest.raises(SamplingError):
                _rand_rat(Scripted(), *bounds)
            assert calls == [(1, DENOMINATOR_CAP)] * 64
        else:
            assert Fr(*_rand_rat(Scripted(), *bounds)) == Fr(a, den)
            assert calls == [(1, DENOMINATOR_CAP), (a, b)]

    def test_exhausted_rejection_raises(self):
        draws = []

        def draw():
            draws.append(None)
            return [(2, 1), (0, 1)]

        with pytest.raises(SamplingError, match="^region empty after the rejection "
                                                "budget was exhausted$"):
            _draw_inside(Point.boundary(0).scaled, draw, Fr(0), Fr(1))
        assert len(draws) == 512

    def test_sphere_records_come_from_the_parameterization(self):
        cfg = SuiteConfig("S1", samples=20, seed=3, dimension=4)
        for sample in generate_samples(cfg):
            assert sample["direction"][-1] >= 1


_coord = st.fractions(min_value=-3, max_value=3, max_denominator=60)
_positive = st.fractions(min_value=Fr(1, 60), max_value=3, max_denominator=60)


def _keeps(base, offsets, center, radius):
    """Whether _draw_inside keeps its first draw: later draws fall on the
    center, which every ball holds."""
    draws = iter([[o.as_integer_ratio() for o in offsets]])
    fallback = [(0, 1)] * (len(offsets) - 1) + [center.as_integer_ratio()]
    x = _draw_inside(base.scaled, lambda: next(draws, fallback), center, radius)
    return _unscaled(x) == translate(base, offsets).coords


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(_coord, min_size=n - 1, max_size=n - 1),
    st.lists(_coord, min_size=n - 1, max_size=n - 1),
    _positive, _positive)))
@example(([0], [1], Fr(1), Fr(1)))  # on the sphere
def test_offset_test_agrees_with_the_tangent_ball(case):
    head, offset_head, last, eps = case
    a = Point.boundary(*head)
    offsets = offset_head + [last]
    assert _keeps(a, offsets, eps, eps) == in_tangent_ball(translate(a, offsets), a, eps)


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(_coord, min_size=n, max_size=n),
    st.lists(_coord, min_size=n, max_size=n),
    _positive)))
@example(([0, 1], [1, 0], Fr(1)))  # on the sphere
def test_offset_test_agrees_with_the_ball(case):
    coords, offsets, radius = case
    center = Point(tuple(coords[:-1]) + (abs(coords[-1]),))
    offsets[-1] = max(offsets[-1], -center.coords[-1])  # stay in the half-space
    assert _keeps(center, offsets, Fr(0), radius) == in_ball(
        translate(center, offsets), BallSpec(center, radius))


class TestSuites:
    @pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S4", "S6", "S7"])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_small_runs_are_clean(self, suite, dimension):
        result = run_suite(SuiteConfig(suite, samples=300, seed=42, dimension=dimension))
        assert result.failures == []
        assert result.checks > 0

    def test_s5_prefix_run(self):
        result = run_suite(SuiteConfig("S5", samples=50, seed=42, dimension=2))
        assert result.failures == []

    def test_s5_builds_each_term_once(self, monkeypatch):
        # _run_s5, decide_convergence and certificate_failures all read the
        # terms; the family object builds each of them once
        built = []
        build = TangentCircle._term
        monkeypatch.setattr(TangentCircle, "_term", lambda fam, k: built.append(k) or build(fam, k))
        result = run_suite(SuiteConfig("S5", samples=6, seed=42, dimension=2))
        assert result.ok and result.checks == 2 * (2 * 6 + 2)  # two families
        assert built == list(range(1, 7)) * 2

    def test_alias_names(self):
        assert run_suite(SuiteConfig("boundary-identity", samples=20, seed=1)).ok
        assert run_suite(SuiteConfig("s4", samples=20, seed=1)).ok

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite(SuiteConfig("S99", samples=10))

    def test_results_are_reproducible(self):
        cfg = SuiteConfig("S3", samples=200, seed=9, dimension=3)
        assert run_suite(cfg).to_json() == run_suite(cfg).to_json()

    def test_json_omits_wall_time(self):
        data = run_suite(SuiteConfig("S7", samples=20, seed=5)).to_json()
        assert set(data) == {"suite", "dimension", "samples", "seed", "checks",
                             "failures", "ok"}

    def test_s7_failure_data_reads_as_text(self, monkeypatch):
        # a set prints as the set language spells it, a point as (c1,...,cn)
        sample = {"e1": parse("cball(0,0;1) | point(2,3)", 3), "e2": parse("cantor", 3),
                  "p": (Fr(1, 2), Fr(3))}
        run, _, name = harness._SUITES["S7"]
        monkeypatch.setitem(harness._SUITES, "S7", (run, lambda cfg: iter([sample]), name))
        monkeypatch.setattr(harness, "member", lambda e, p, member=harness.member:
                            UNKNOWN if isinstance(e, Complement) else member(e, p))
        result = run_suite(SuiteConfig("S7", samples=1, dimension=3)).to_json()
        assert result["failures"][0] == {
            "index": 0, "check": "complement is three-valued negation",
            "data": {"e": "cball(0,0;1) | point(2,3)", "p": "(1/2,3)"}}

    def test_all_suites_are_registered(self):
        assert suite_names() == ["S1", "S2", "S3", "S4", "S5", "S6", "S7"]


# --- S1-S4, decided on integers, against the Fraction references ---------------------

def _reference_json(cfg, records):
    """run_suite's JSON for cfg as suite_checks_ref decides the records."""
    checks, failures = 0, []
    for index, record in enumerate(records):
        names, failed = suite_checks_ref(cfg.suite, record)
        checks += len(names)
        failures += [{"index": index, "check": name, "data": data} for name, data in failed]
    return {"suite": cfg.suite, "dimension": cfg.dimension, "samples": cfg.samples,
            "seed": cfg.seed, "checks": checks, "failures": failures, "ok": not failures}


@pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S4"])
@pytest.mark.parametrize("dimension", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, 2405])
def test_integer_checks_equal_the_reference(suite, dimension, seed):
    cfg = SuiteConfig(suite, samples=40, seed=seed, dimension=dimension)
    assert run_suite(cfg).to_json() == _reference_json(cfg, generate_samples(cfg))


def _moved(form, i, step=1):
    """The form with coordinate i moved by step/d."""
    X, d = form
    return tuple(c + step if j == i % len(X) else c for j, c in enumerate(X)), d


def _stream_fault(suite, fault):
    """Apply fault to each sample of the suite's integer stream, which the
    public records then carry as well."""
    def apply(mp):
        run, generate, name = harness._SUITES[suite]
        mp.setitem(harness._SUITES, suite, (run, lambda cfg: map(fault, generate(cfg)), name))
    return apply


def _level_fault(shift):
    """The level of interior points, where it is defined, moved by shift
    (a function of the level) in the suites and in the reference alike."""
    def faulty(x, a, en, ed):
        n, d = _level_int(x, a, en, ed)
        return shift(Fr(n, d)).as_integer_ratio() if x[0][-1] else (n, d)

    def apply(mp):
        mp.setattr(harness, "_level_int", faulty)
        mp.setattr(oracles, "level_ref", lambda x, a, eps, level=oracles.level_ref:
                   shift(level(x, a, eps)))
    return apply


def _membership_negated(mp):
    mp.setattr(harness, "_in_tangent_int", lambda *args, inside=harness._in_tangent_int:
               not inside(*args))
    mp.setattr(oracles, "in_tangent_ball_ref", lambda *args, inside=oracles.in_tangent_ball_ref:
               not inside(*args))


# Faults of the integer streams, by suite, and faults of the kernel as the
# suites and the reference call it: the identities among gauge, level and
# membership hold for every input, so only a faulted kernel fails them.
FAULTS = {
    "S1": {
        "sphere point moved off the sphere": _stream_fault(
            "S1", lambda s: {**s, "sphere": _moved(s["sphere"], 0)}),
        "sphere point on the anchor": _stream_fault(
            "S1", lambda s: {**s, "sphere": s["anchor"]}),
        "levels swapped": _stream_fault("S1", lambda s: {
            **s, "s_inside": s["s_outside"], "s_at": (2, 1), "s_outside": s["s_inside"]}),
    },
    "S2": {
        "eps halved": _stream_fault("S2", lambda s: {**s, "eps": (s["eps"][0], 2 * s["eps"][1])}),
        "x lifted by 1": _stream_fault("S2", lambda s: {**s, "x": _moved(s["x"], -1, s["x"][1])}),
    },
    "S3": {"eps negated": _stream_fault(
        "S3", lambda s: {**s, "eps": (-s["eps"][0], s["eps"][1])})},
    "S4": {"s raised by 1": _stream_fault(
        "S4", lambda s: {**s, "s": (s["s"][0] + s["s"][1], s["s"][1])})},
}
KERNEL_FAULTS = {
    "level + 1/8": _level_fault(lambda t: t + Fr(1, 8)),
    "level - 1": _level_fault(lambda t: t - 1),  # below 0 inside the tangent ball
    # the next three make the true level one of S3's wrong levels
    "level - 1/3": _level_fault(lambda t: t - Fr(1, 3)),
    "level halved": _level_fault(lambda t: t / 2),
    "level doubled": _level_fault(lambda t: 2 * t),
    "membership negated": _membership_negated,
}
for faults in FAULTS.values():
    faults.update(KERNEL_FAULTS)
del FAULTS["S3"]["membership negated"]  # S3 reads no membership


def _faulted_runs(mp, suite, fault, dimension):
    """run_suite's JSON under the fault, and the reference's."""
    FAULTS[suite][fault](mp)
    cfg = SuiteConfig(suite, samples=30, seed=5, dimension=dimension)
    records = list(generate_samples(cfg))
    if suite == "S1":  # the public record leaves the sphere point out
        for record, sample in zip(records, harness._SUITES[suite][1](cfg)):
            record["x"] = _unscaled(sample["sphere"])
    return run_suite(cfg).to_json(), _reference_json(cfg, records)


@pytest.mark.parametrize("suite, fault", [(suite, name) for suite, faults in FAULTS.items()
                                          for name in faults])
@pytest.mark.parametrize("dimension", [2, 3])
def test_faults_fail_as_the_reference_says(monkeypatch, suite, fault, dimension):
    got, want = _faulted_runs(monkeypatch, suite, fault, dimension)
    assert not got["ok"]
    assert got == want


def test_every_check_fails_under_some_fault(monkeypatch):
    checks, failed = set(), set()
    for suite, faults in FAULTS.items():
        cfg = SuiteConfig(suite, samples=30, seed=5, dimension=3)
        for record in generate_samples(cfg):
            checks.update((suite, name) for name in suite_checks_ref(suite, record)[0])
        for fault in faults:
            with monkeypatch.context() as mp:
                got, _ = _faulted_runs(mp, suite, fault, 3)
            failed.update((suite, f["check"]) for f in got["failures"])
    assert len(checks) == 18
    assert failed == checks
