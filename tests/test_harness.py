import math
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from niemytzki.geometry import BallSpec, Point, in_ball, in_tangent_ball, translate
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
        if a > b:
            with pytest.raises(SamplingError):
                _rand_rat(Scripted(), lo, hi)
            assert calls == [(1, DENOMINATOR_CAP)] * 64
        else:
            assert _rand_rat(Scripted(), lo, hi) == Fr(a, den)
            assert calls == [(1, DENOMINATOR_CAP), (a, b)]

    def test_exhausted_rejection_raises(self):
        draws = []

        def draw():
            draws.append(None)
            return [Fr(2), Fr(0)]

        with pytest.raises(SamplingError, match="^region empty after the rejection "
                                                "budget was exhausted$"):
            _draw_inside(Point.boundary(0), draw, Fr(0), Fr(1))
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
    draws = iter([offsets])
    fallback = [Fr(0)] * (len(offsets) - 1) + [center]
    x = _draw_inside(base, lambda: next(draws, fallback), center, radius)
    return x == translate(base, offsets)


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

    def test_all_suites_are_registered(self):
        assert suite_names() == ["S1", "S2", "S3", "S4", "S5", "S6", "S7"]
