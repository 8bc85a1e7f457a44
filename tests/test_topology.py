import random
from fractions import Fraction as Fr

import pytest

from niemytzki.geometry import BallSpec, Point, in_ball, tangent_gauge, tangent_sphere_point
from niemytzki import setdsl
from niemytzki.setdsl import ParseError, parse
from niemytzki.topology import (
    BlockingNeighborhood,
    ConvergenceVerdict,
    DiscretenessRadii,
    FiniteList,
    HalfBall,
    IndexBound,
    InteriorBall,
    TangentBall,
    TangentCircle,
    TopologySpec,
    UndecidableMembership,
    Vertical,
    certificate_failures,
    contains,
    decide_convergence,
    local_base_element,
    refine,
)

from oracles import isolating_radii_ref, isolation_failures_ref

NIEM2 = TopologySpec.niemytzki(2)
EUCL2 = TopologySpec.euclidean(2)


class TestTopologySpec:
    def test_normalization_identifies_the_extremes(self):
        assert TopologySpec.euclidean(2) == TopologySpec.modified(parse("all"), 2)
        assert TopologySpec.niemytzki(2) == TopologySpec.modified(parse("empty"), 2)
        assert TopologySpec.modified(parse("!all"), 2).kind == "niemytzki"

    def test_kind_of_a_proper_modification(self):
        assert TopologySpec.modified(parse("cantor"), 2).kind == "modified"

    def test_text_is_normalized_once(self, monkeypatch):
        text = "cantor | point(1/2) | cball(3;1)"
        calls = {"_normal": 0, "_arities": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(setdsl, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(setdsl, name, counted)
        spec = TopologySpec.modified(text, 2)
        assert calls == {"_normal": 0, "_arities": 0}  # parsed normal, no arity walk
        monkeypatch.undo()
        assert spec == TopologySpec.modified(parse(text), 2)
        with pytest.raises(ParseError):
            TopologySpec.modified("point(1,2)", 2)


class TestBasicOpenInvariants:
    def test_interior_ball_needs_room(self):
        InteriorBall(Point.of(0, 1), Fr(1, 2))
        with pytest.raises(ValueError):
            InteriorBall(Point.of(0, 1), Fr(1))
        with pytest.raises(ValueError):
            InteriorBall(Point.boundary(0), Fr(1, 2))

    def test_boundary_shapes_need_boundary_centers(self):
        with pytest.raises(ValueError):
            HalfBall(Point.of(0, 1), Fr(1))
        with pytest.raises(ValueError):
            TangentBall(Point.of(0, 1), Fr(1))

    def test_basic_opens_are_ball_records(self):
        for b in (InteriorBall(Point.of(0, 1), Fr(1, 2)), HalfBall(Point.boundary(0), 1),
                  TangentBall(Point.boundary(0), 1)):
            assert isinstance(b, BallSpec)
            assert isinstance(b.radius, Fr)
        with pytest.raises(ValueError, match="radius must be positive"):
            HalfBall(Point.boundary(0), 0)

    def test_contains_is_in_ball_off_tangent_balls(self):
        rng = random.Random(5)
        balls = (InteriorBall(Point.of(0, 1), Fr(1, 2)), HalfBall(Point.boundary(0), 1))
        for _ in range(200):
            x = Point.of(Fr(rng.randint(-12, 12), 8), Fr(rng.randint(0, 12), 8))
            for b in balls:
                assert contains(b, x) == in_ball(x, b)

    def test_json_has_a_kind_tag(self):
        data = TangentBall(Point.boundary(0), Fr(1)).to_json()
        assert data == {"kind": "tangent-ball", "center": ["0", "0"], "radius": "1"}


class TestLocalBase:
    def test_tangent_ball_at_a_niemytzki_boundary_point(self):
        elem = local_base_element(NIEM2, Point.boundary(0), 1)
        assert elem == TangentBall(Point.boundary(0), Fr(1))

    def test_half_ball_at_a_euclidean_boundary_point(self):
        elem = local_base_element(EUCL2, Point.boundary(0), 1)
        assert elem == HalfBall(Point.boundary(0), Fr(1))

    def test_rational_point_of_the_rationals_modification(self):
        topo = TopologySpec.modified(parse("rationals"), 2)
        elem = local_base_element(topo, Point.boundary("1/2"), 1)
        assert isinstance(elem, HalfBall)

    def test_interior_radius_clamp(self):
        elem = local_base_element(NIEM2, Point.of(0, "1/4"), 1)
        assert elem == InteriorBall(Point.of(0, "1/4"), Fr(1, 8))
        small = local_base_element(NIEM2, Point.of(0, 4), 1)
        assert small.radius == Fr(1)

    def test_interior_points_ignore_the_boundary_set(self):
        p = Point.of("1/3", "5/7")
        for topo in (NIEM2, EUCL2, TopologySpec.modified(parse("bernstein"), 2)):
            # clamp: min(eps, p_n/2) = min(2/3, 5/14) = 5/14
            assert local_base_element(topo, p, "2/3") == InteriorBall(p, Fr(5, 14))
            assert local_base_element(topo, p, "1/4") == InteriorBall(p, Fr(1, 4))

    def test_bernstein_boundary_point_is_undecidable(self):
        topo = TopologySpec.modified(parse("bernstein"), 2)
        with pytest.raises(UndecidableMembership):
            local_base_element(topo, Point.boundary(0), 1)

    def test_element_always_contains_its_point(self):
        rng = random.Random(3)
        topo = TopologySpec.modified(parse("lattice | cantor"), 2)
        for _ in range(200):
            if rng.random() < 0.5:
                p = Point.of(Fr(rng.randint(-8, 8), rng.randint(1, 8)),
                             Fr(rng.randint(1, 16), rng.randint(1, 8)))
            else:
                p = Point.boundary(Fr(rng.randint(-8, 8), rng.randint(1, 8)))
            eps = Fr(rng.randint(1, 9), rng.randint(1, 9))
            assert contains(local_base_element(topo, p, eps), p)

    def test_monotone_in_eps(self):
        p = Point.boundary("1/3")
        small = local_base_element(NIEM2, p, "1/2")
        large = local_base_element(NIEM2, p, "3/2")
        for d in ("1/10", "1/4", "2/5"):
            x = tangent_sphere_point(p, Fr(d), (1, 1))
            if contains(small, x):
                assert contains(large, x)


class TestContains:
    def test_tangent_ball_contains_its_anchor(self):
        assert contains(TangentBall(Point.boundary(0), Fr(1)), Point.boundary(0))

    def test_half_ball_contains_its_center(self):
        assert contains(HalfBall(Point.boundary(0), Fr(1)), Point.boundary(0))

    def test_sphere_point_is_excluded(self):
        assert not contains(TangentBall(Point.boundary(0), Fr(1)), Point.of(1, 1))


class TestRefine:
    def test_same_element_refines_to_itself_on_the_boundary(self):
        t = TangentBall(Point.boundary(0), Fr(1))
        assert refine(t, t, Point.boundary(0)) == t

    def test_nested_tangent_balls(self):
        a = Point.boundary(0)
        big, small = TangentBall(a, Fr(1)), TangentBall(a, Fr(1, 2))
        assert refine(big, small, a) == small

    def test_interior_margin_value(self):
        # tangent ball of parameter 1 at the origin, interior ball at (0,1):
        # at x = (0, 3/4) the margins are 15/32 and 3/16, the clamp 3/8
        b1 = TangentBall(Point.boundary(0), Fr(1))
        b2 = InteriorBall(Point.of(0, 1), Fr(1, 2))
        x = Point.of(0, "3/4")
        result = refine(b1, b2, x)
        assert result == InteriorBall(x, Fr(3, 16))

    def test_precondition_is_checked(self):
        # (0, 1/2) lies on the sphere of B((0,1), 1/2), not inside it
        b1 = TangentBall(Point.boundary(0), Fr(1))
        b2 = InteriorBall(Point.of(0, 1), Fr(1, 2))
        with pytest.raises(ValueError):
            refine(b1, b2, Point.of(0, "1/2"))

    def test_mixed_boundary_refinement(self):
        a = Point.boundary(0)
        t = TangentBall(a, Fr(2))
        h = HalfBall(Point.boundary("1/2"), Fr(1))
        result = refine(t, h, a)
        assert isinstance(result, TangentBall)
        assert contains(result, a)
        for d in ("1/9", "1/3"):
            y = tangent_sphere_point(a, Fr(d) * result.radius, (2, 1))
            assert contains(result, y)
            assert contains(t, y) and contains(h, y)

    def test_half_ball_pair_at_an_off_center_point(self):
        x = Point.boundary(0)
        h1 = HalfBall(Point.boundary("1/2"), Fr(1))
        h2 = HalfBall(x, Fr(1, 3))
        result = refine(h1, h2, x)
        assert isinstance(result, HalfBall)
        assert result.center == x
        for y in (x, Point.of("1/8", "1/8"), Point.of("-1/8", 0)):
            if contains(result, y):
                assert contains(h1, y) and contains(h2, y)


class TestSequenceFamilies:
    def test_vertical_levels(self):
        fam = Vertical(Point.boundary(0), Fr(1))
        from niemytzki.geometry import t_level

        for k in (1, 2, 5, 40):
            x = fam.term(k)
            assert x == Point.of(0, Fr(1, k))
            assert t_level(x, fam.anchor, Fr(1, 2)) == Fr(1, k) / 1  # h/(2*eps*k), eps=1/2
        assert t_level(fam.term(3), fam.anchor, Fr(2)) == Fr(1, 12)

    def test_tangent_circle_gauge_identity_holds_exactly(self):
        anchor = Point.boundary("1/3")
        fam = TangentCircle(anchor, Fr(3, 2))
        for k in range(1, 1001):
            x = fam.term(k)
            assert tangent_gauge(x, anchor) == 2 * fam.eps * x.coords[-1]
        for dim in (3, 4):
            anchor = Point.boundary(*([0] * (dim - 1)))
            fam = TangentCircle(anchor, Fr(3, 2))
            for k in list(range(1, 50)) + [997, 1000]:
                x = fam.term(k)
                assert tangent_gauge(x, anchor) == 2 * fam.eps * x.coords[-1]


class TestDecideConvergence:
    def test_vertical_under_niemytzki(self):
        fam = Vertical(Point.boundary(0), Fr(1))
        verdict = decide_convergence(fam, NIEM2, fam.anchor)
        assert verdict.converges is True
        bound = verdict.certificates[0]
        assert isinstance(bound, IndexBound)
        assert bound.form == "linear" and bound.coefficient == Fr(1, 2)
        assert certificate_failures(verdict, fam, NIEM2) == []

    def test_vertical_under_euclidean(self):
        fam = Vertical(Point.boundary(0), Fr(1))
        verdict = decide_convergence(fam, EUCL2, fam.anchor)
        assert verdict.certificates[0].coefficient == Fr(1)
        assert certificate_failures(verdict, fam, EUCL2) == []

    def test_tangent_circle_is_discrete_under_niemytzki(self):
        fam = TangentCircle(Point.boundary(0), Fr(1))
        verdict = decide_convergence(fam, NIEM2, fam.anchor)
        assert verdict.converges is False
        blocking, radii = verdict.certificates
        assert isinstance(blocking, BlockingNeighborhood)
        assert blocking.neighborhood == TangentBall(Point.boundary(0), Fr(1))
        assert isinstance(radii, DiscretenessRadii)
        assert len(radii.entries) == 100
        assert all(r > 0 for _, r in radii.entries)
        assert certificate_failures(verdict, fam, NIEM2) == []

    def test_tangent_circle_converges_under_euclidean(self):
        fam = TangentCircle(Point.boundary(0), Fr(1))
        verdict = decide_convergence(fam, EUCL2, fam.anchor)
        assert verdict.converges is True
        assert verdict.certificates[0].form == "quadratic"
        assert verdict.certificates[0].coefficient == Fr(4)
        assert certificate_failures(verdict, fam, EUCL2) == []

    def test_tangent_circle_converges_when_the_anchor_keeps_half_balls(self):
        topo = TopologySpec.modified(parse("rationals"), 2)
        fam = TangentCircle(Point.boundary("1/2"), Fr(1))
        assert decide_convergence(fam, topo, fam.anchor).converges is True

    def test_discrete_at_an_excluded_anchor(self):
        topo = TopologySpec.modified(parse("lattice"), 2)
        fam = TangentCircle(Point.boundary("1/2"), Fr(1))
        verdict = decide_convergence(fam, topo, fam.anchor)
        assert verdict.converges is False
        assert certificate_failures(verdict, fam, topo) == []

    def test_an_index_bound_of_unknown_form_fails(self):
        # holds raised ValueError instead of failing the check
        fam = TangentCircle(Point.boundary(0), Fr(1))
        verdict = ConvergenceVerdict(True, (IndexBound("cubic", Fr(1), "k^3 > 1/eps"),))
        assert certificate_failures(verdict, fam, NIEM2, prefix=3) == [
            "index bound of unknown form 'cubic'"]

    def test_bernstein_anchor_aborts(self):
        topo = TopologySpec.modified(parse("bernstein"), 2)
        fam = Vertical(Point.boundary(0), Fr(1))
        with pytest.raises(UndecidableMembership):
            decide_convergence(fam, topo, fam.anchor)

    def test_finite_lists_are_inconclusive(self):
        fam = FiniteList((Point.of(0, 1), Point.of(0, "1/2")))
        verdict = decide_convergence(fam, NIEM2, Point.boundary(0))
        assert verdict.converges is None
        assert verdict.certificates == ()

    def test_limit_must_be_the_anchor(self):
        fam = Vertical(Point.boundary(0), Fr(1))
        with pytest.raises(ValueError):
            decide_convergence(fam, NIEM2, Point.boundary(1))


class TestVerdictJson:
    def test_inconclusive_serialization(self):
        v = ConvergenceVerdict(None, ())
        assert v.to_json() == {"converges": "inconclusive", "certificates": []}

    def test_blocking_serialization_round_trip_fields(self):
        fam = TangentCircle(Point.boundary(0), Fr(1))
        verdict = decide_convergence(fam, NIEM2, fam.anchor)
        data = verdict.to_json()
        assert data["converges"] is False
        kinds = [c["kind"] for c in data["certificates"]]
        assert kinds == ["blocking-neighborhood", "discreteness-radii"]


# S5's two (anchor_first, eps) pairs and one more
_CIRCLES = ((Fr(0), Fr(1)), (Fr(1, 3), Fr(3, 2)), (Fr(-5, 7), Fr(2, 9)))


def _circle(anchor_first, eps, n):
    return TangentCircle(Point.boundary(anchor_first, *[Fr(0)] * (n - 2)), eps)


def _radii_failures(fam, entries, prefix):
    """certificate_failures of a niemytzki verdict whose radii are entries."""
    topo = TopologySpec.niemytzki(fam.anchor.dimension)
    verdict = ConvergenceVerdict(False, (DiscretenessRadii(tuple(entries)),))
    return certificate_failures(verdict, fam, topo, prefix=prefix)


def _ref_failures(fam, entries, prefix):
    plain = [(p.coords, r) for p, r in entries]
    return isolation_failures_ref(plain, fam.anchor.coords, fam.eps, prefix)


class TestIsolationAgainstThePairOracle:
    @pytest.mark.parametrize("prefix", [0, 1, 2, 3, 7, 50, 100])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("anchor_first, eps", _CIRCLES)
    def test_radii_equal_the_pairwise_ones(self, anchor_first, eps, n, prefix):
        fam = _circle(anchor_first, eps, n)
        verdict = decide_convergence(fam, TopologySpec.niemytzki(n), fam.anchor, prefix)
        entries = verdict.certificates[1].entries
        assert [(p.coords, r) for p, r in entries] == isolating_radii_ref(
            fam.anchor.coords, eps, prefix)

    @pytest.mark.parametrize("prefix", [1, 2, 7, 30])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("anchor_first, eps", _CIRCLES)
    def test_honest_certificates_pass_both_checks(self, anchor_first, eps, n, prefix):
        fam = _circle(anchor_first, eps, n)
        verdict = decide_convergence(fam, TopologySpec.niemytzki(n), fam.anchor, prefix)
        entries = verdict.certificates[1].entries
        assert _radii_failures(fam, entries, prefix) == [] == _ref_failures(
            fam, entries, prefix)

    def _honest(self, prefix=10):
        fam = _circle(Fr(0), Fr(1), 2)
        verdict = decide_convergence(fam, NIEM2, fam.anchor, prefix)
        return fam, list(verdict.certificates[1].entries)

    def _same_failures(self, fam, entries, prefix=10):
        got = _radii_failures(fam, entries, prefix)
        assert got == _ref_failures(fam, entries, prefix)
        return got

    def test_a_raised_radius_admits_its_neighbour(self):
        fam, entries = self._honest()
        entries[0] = (entries[0][0], Fr(7, 10))  # below term 1's height 1
        assert self._same_failures(fam, entries) == [
            "isolating ball of term 1 admits term 2"]

    def test_an_entry_without_an_interior_ball_is_reported(self):
        # term 1 of the circle at 0 with eps 1 has height 1: a radius of 5
        # raised ValueError from InteriorBall instead of failing the check
        fam, entries = self._honest(3)
        entries[0] = (entries[0][0], Fr(5))
        assert self._same_failures(fam, entries, 3) == [
            "isolating ball of term 1 is not an interior ball"]

    @pytest.mark.parametrize("radius", [Fr(1), Fr(0), Fr(-1, 2)], ids=["height", "zero", "negative"])
    def test_a_radius_outside_the_height_is_reported(self, radius):
        fam, entries = self._honest()
        assert entries[0][0].coords[-1] == 1
        entries[0] = (entries[0][0], radius)
        assert self._same_failures(fam, entries) == [
            "isolating ball of term 1 is not an interior ball"]

    def test_an_entry_of_another_dimension_is_reported(self):
        # contains raised DimensionMismatch instead of failing the check
        fam, entries = self._honest(3)
        entries[1] = (Point.of(Fr(4, 5), 0, Fr(2, 5)), entries[1][1])
        assert self._same_failures(fam, entries, 3) == [
            "radii entry 2 is not term 2", "isolating ball of term 2 lies in another dimension"]

    def test_an_entry_that_is_no_point_is_reported(self):
        # the sort key raised AttributeError on the coordinate tuple instead
        # of failing the check
        fam, entries = self._honest(3)
        entries[0] = (entries[0][0].coords, entries[0][1])
        assert _radii_failures(fam, entries, 3) == [
            "radii entry 1 is not term 1", "isolating ball of term 1 is not a point"]

    def test_an_inexact_radius_is_reported(self):
        # rat raised TypeError on the float instead of failing the check
        fam, entries = self._honest(3)
        entries[0] = (entries[0][0], 0.5)
        assert self._same_failures(fam, entries, 3) == [
            "isolating ball of term 1 has no exact radius"]

    def test_a_boundary_entry_is_reported(self):
        fam, entries = self._honest()
        entries[1] = (fam.anchor, Fr(1, 2))
        assert self._same_failures(fam, entries) == [
            "radii entry 2 is not term 2", "isolating ball of term 2 is not an interior ball"]

    def test_swapped_entries(self):
        fam, entries = self._honest()
        entries[1], entries[4] = entries[4], entries[1]
        assert self._same_failures(fam, entries) == [
            "radii entry 2 is not term 2", "radii entry 5 is not term 5"]

    def test_forged_entries(self):
        fam, _ = self._honest()
        forged = [(Point.of(10, 1), Fr(1, 2)), (Point.of(20, 1), Fr(1, 2))]
        assert self._same_failures(fam, forged) == (
            ["radii entry 1 is not term 1", "radii entry 2 is not term 2"]
            + [f"radii certificate omits term {k}" for k in range(3, 11)])

    def test_truncated_entries(self):
        fam, entries = self._honest()
        assert self._same_failures(fam, entries[:3]) == [
            f"radii certificate omits term {k}" for k in range(4, 11)]
        assert self._same_failures(fam, [entries[0], entries[4], entries[9]]) == (
            ["radii entry 2 is not term 2", "radii entry 3 is not term 3"]
            + [f"radii certificate omits term {k}" for k in range(4, 11)])

    def test_entries_past_the_prefix(self):
        fam, entries = self._honest(12)
        assert self._same_failures(fam, entries) == [
            "radii entry 11 lies beyond the prefix", "radii entry 12 lies beyond the prefix"]

    def test_every_pair_is_still_checked(self):
        # radii the lemma would never give: each ball reaches past its
        # neighbours, so the failures come from entries far apart in x_1
        fam, entries = self._honest()
        widened = [(p, p.coords[-1] * Fr(99, 100)) for p, _ in entries]
        got = self._same_failures(fam, widened)
        assert "isolating ball of term 1 admits term 3" in got
