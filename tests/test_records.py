"""The record classes (``geometry._record``): construction, equality, hash,
repr, immutability and pickling, across the modules that define them."""

import pickle
from fractions import Fraction as Fr

import pytest

from niemytzki.descriptive import PUBLIC_FLAGS, DescClass, infer
from niemytzki.geometry import BallSpec, Point
from niemytzki.harness import Failure, SuiteConfig, SuiteResult
from niemytzki.setdsl import Cantor, Complement, Inter, SinglePoint, Union, parse
from niemytzki.theorems import PropertyReport, TraceStep, classify
from niemytzki.topology import (
    BasicOpen,
    BlockingNeighborhood,
    ConvergenceVerdict,
    DiscretenessRadii,
    FiniteList,
    HalfBall,
    IndexBound,
    InteriorBall,
    SequenceFamily,
    TangentBall,
    TangentCircle,
    TopologySpec,
    Vertical,
)

A = Point.boundary(0)
X = Point.of(Fr(1, 2), 1)
MEMBERS = (SinglePoint((Fr(1),)), Cantor())

# one hashable record of each class that is not a set expression (those are
# pinned in test_node_kinds), and a few nodes
HASHABLE = [
    X, BallSpec(X, Fr(1, 3)), BasicOpen(X, 1), InteriorBall(X, Fr(1, 2)), HalfBall(A, 1),
    TangentBall(A, 1), TopologySpec.niemytzki(2), SequenceFamily(), Vertical(A, 1),
    TangentCircle(A, 1), FiniteList((X, A)), IndexBound("linear", Fr(1), "k > 1/eps"),
    BlockingNeighborhood(TangentBall(A, 1)), DiscretenessRadii(((X, Fr(1, 4)),)),
    ConvergenceVerdict(True, (IndexBound("linear", Fr(1), "k > 1/eps"),)),
    infer(parse("cantor", 2)), SuiteConfig("S1"),
    Union(MEMBERS), Inter(MEMBERS), Complement(Cantor()),
]
IDS = [type(r).__name__ for r in HASHABLE]


@pytest.mark.parametrize("record", HASHABLE, ids=IDS)
def test_the_hash_is_that_of_the_field_tuple(record):
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


@pytest.mark.parametrize("record", HASHABLE, ids=IDS)
def test_a_record_refuses_assignment_and_deletion(record):
    name = record._fields[0] if record._fields else "anything"
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(record, name, 1)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(record, name)


@pytest.mark.parametrize("record", HASHABLE, ids=IDS)
def test_a_copy_is_equal_and_pickles_its_fields(record):
    copy = type(record)(*(getattr(record, f) for f in record._fields))
    assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and pickle.dumps(restored) == pickle.dumps(record)


def test_records_of_different_classes_are_never_equal():
    assert TangentBall(A, 1) != HalfBall(A, 1)
    assert hash(TangentBall(A, 1)) == hash(HalfBall(A, 1))  # the same field tuple
    assert Union(MEMBERS) != Inter(MEMBERS)
    assert BallSpec(X, 1) != BasicOpen(X, 1)
    assert X.__eq__((X.coords,)) is NotImplemented
    assert X != X.coords


def test_fields_include_the_inherited_ones():
    assert BallSpec._fields == BasicOpen._fields == InteriorBall._fields == ("center", "radius")
    assert TangentBall._fields == HalfBall._fields == ("center", "radius")
    assert SequenceFamily._fields == () and TangentCircle._fields == ("anchor", "eps")
    assert DescClass._fields == PUBLIC_FLAGS and len(PUBLIC_FLAGS) == 10
    assert Failure._fields == ("index", "check", "data")


def test_repr_strings():
    assert repr(Point.of(Fr(1, 2), 0)) == "Point(coords=(Fraction(1, 2), Fraction(0, 1)))"
    assert repr(TangentBall(A, 1)) == (
        "TangentBall(center=Point(coords=(Fraction(0, 1), Fraction(0, 1))), "
        "radius=Fraction(1, 1))")
    assert repr(Union(MEMBERS)) == (
        "Union(members=(SinglePoint(coords=(Fraction(1, 1),)), Cantor()))")
    assert repr(SuiteConfig("S1")) == "SuiteConfig(suite='S1', samples=10000, seed=42, dimension=2)"
    assert repr(ConvergenceVerdict(None)) == "ConvergenceVerdict(converges=None, certificates=())"
    assert repr(Failure(3, "c", {"x": "1"})) == "Failure(index=3, check='c', data={'x': '1'})"
    assert repr(IndexBound("linear", Fr(1), "d")) == (
        "IndexBound(form='linear', coefficient=Fraction(1, 1), description='d')")


def test_records_holding_dicts_are_unhashable():
    step = classify("cantor", 2).trace[0]
    assert isinstance(step, TraceStep)
    for record in (Failure(0, "c", {}), step, classify("cantor", 2)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert isinstance(classify("cantor", 2), PropertyReport)
    assert classify("cantor", 2) == classify("cantor", 2)


def test_a_steps_json_form_is_not_part_of_its_value():
    fresh, cached = (TraceStep("R2", "c", ("locally_compact",), {"equals_all(A)": "false"}, "false")
                     for _ in range(2))
    assert cached.to_json() is cached.to_json()  # built once, then shared
    assert "_json" in vars(cached) and "_json" not in vars(fresh)
    assert fresh == cached and repr(fresh) == repr(cached)
    assert pickle.dumps(fresh) == pickle.dumps(cached)
    assert pickle.loads(pickle.dumps(cached)).to_json() == fresh.to_json()


def test_keyword_construction_and_defaults():
    assert SuiteConfig("S2") == SuiteConfig(suite="S2", samples=10_000, seed=42, dimension=2)
    cfg = SuiteConfig(seed=3, suite="S4", dimension=3)
    assert (cfg.suite, cfg.samples, cfg.seed, cfg.dimension) == ("S4", 10_000, 3, 3)
    assert SuiteConfig("S1", 5, 6, 4) == SuiteConfig("S1", samples=5, seed=6, dimension=4)
    assert ConvergenceVerdict(True).certificates == ()
    assert TangentBall(center=A, radius=Fr(1, 2)) == TangentBall(A, Fr(1, 2))
    with pytest.raises(TypeError):
        SuiteConfig()
    with pytest.raises(TypeError):
        SuiteConfig("S1", size=3)
    with pytest.raises(TypeError):
        SuiteConfig("S1", 1, 2, 3, 4)
    with pytest.raises(TypeError):
        Point((0, 1), (1, 1))


def test_suite_results_do_not_share_their_failures():
    first = SuiteResult(suite="S1", dimension=2, samples=1, seed=0)
    second = SuiteResult("S1", 2, 1, 0)
    first.failures.append(Failure(0, "c", {}))
    first.checks += 1
    assert second.failures == [] and second.checks == 0
    assert (second.elapsed, first.ok, second.ok) == (0.0, False, True)
    kept = [Failure(1, "d", {})]
    assert SuiteResult("S2", 3, 4, 5, 6, kept, 0.5).failures is kept


def test_post_init_runs_on_subclasses():
    with pytest.raises(ValueError, match="must stay inside the open half-space"):
        InteriorBall(X, 1)
    with pytest.raises(ValueError, match="centered at interior points"):
        InteriorBall(A, Fr(1, 2))
    with pytest.raises(ValueError, match="ball radius must be positive"):
        InteriorBall(X, 0)  # BallSpec's check, reached through super()
    with pytest.raises(ValueError, match="centered on the boundary"):
        TangentBall(X, 1)
    assert InteriorBall(X, "1/3").radius == Fr(1, 3)  # coerced by BallSpec
    assert Point(("1/2", 0)).coords == (Fr(1, 2), Fr(0))
    with pytest.raises(ValueError, match="below the boundary"):
        Point.of(0, -1)


def test_kept_terms_are_no_part_of_a_family():
    fam, fresh = TangentCircle(A, 1), TangentCircle(A, 1)
    assert fam.term(3) is fam.term(3) == fresh.term(3)
    with pytest.raises(ValueError, match="indexed from 1"):
        fam.term(0)
    other = TangentCircle(A, 1)
    assert fam == other and hash(fam) == hash(other) and repr(fam) == repr(other)
    assert pickle.dumps(fam) == pickle.dumps(other)
    assert pickle.loads(pickle.dumps(fam)).term(3) == fam.term(3)
