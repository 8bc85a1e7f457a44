"""Every node kind through every tree operation, and the errors a tree that
is not an expression, whose arities disagree or which holds a leaf that
parse would refuse, is refused with."""

import pickle
from fractions import Fraction as Fr

import pytest

from niemytzki.descriptive import _DISJOINT, _INSIDE, _ball_forms, compare_topologies, infer, subset
from niemytzki.geometry import DimensionMismatch, _scaled, _unscaled
from niemytzki.setdsl import (
    IN,
    OUT,
    UNKNOWN,
    All,
    Bernstein,
    Cantor,
    ClosedBall,
    Complement,
    Empty,
    FiniteSet,
    Inter,
    Lattice,
    OpenBall,
    Rationals,
    SetExpr,
    SinglePoint,
    Union,
    _COORDS,
    arity,
    member,
    normalize,
    parse,
    structural_candidates,
    to_text,
)
from niemytzki.theorems import classify
from niemytzki.topology import TopologySpec

ZERO = (Fr(0),)
TWO_COORDS = (Fr(0), Fr(5))


@pytest.mark.parametrize("e", [
    SinglePoint(TWO_COORDS),
    FiniteSet((ZERO, TWO_COORDS)),
    ClosedBall(TWO_COORDS, Fr(1)),
    OpenBall(TWO_COORDS, Fr(1)),
], ids=["point", "finite", "cball", "oball"])
def test_member_refuses_a_leaf_of_another_arity(e):
    with pytest.raises(DimensionMismatch):
        member(e, ZERO)


# One message for the one arity rule, whichever kind of leaf breaks it.
ARITY_MESSAGE = r"^dimension \d+ vs \d+$"
ONE_COORD = {"point": SinglePoint(ZERO), "finite": FiniteSet((ZERO, (Fr(1),))),
             "ball": ClosedBall(ZERO, Fr(1))}
TWO = {"point": SinglePoint(TWO_COORDS), "finite": FiniteSet((TWO_COORDS, (Fr(1), Fr(1)))),
       "ball": OpenBall(TWO_COORDS, Fr(1))}


@pytest.mark.parametrize("kind", list(ONE_COORD))
def test_one_message_for_a_leaf_of_another_arity(kind):
    for e, p in ((ONE_COORD[kind], TWO_COORDS), (TWO[kind], ZERO),
                 (Union((ONE_COORD[kind], Cantor())), TWO_COORDS)):
        with pytest.raises(DimensionMismatch, match=ARITY_MESSAGE):
            member(e, p)
    for other in ONE_COORD.values():
        for a, b in ((ONE_COORD[kind], TWO[kind]), (TWO[kind], ONE_COORD[kind]),
                     (other, TWO[kind]), (TWO[kind], other)):
            with pytest.raises(DimensionMismatch, match=ARITY_MESSAGE):
                subset(a, b)


def test_member_refuses_cantor_without_coordinates():
    with pytest.raises(DimensionMismatch):
        member(Cantor(), ())


@pytest.mark.parametrize("e", [42, Union((All(), 42)), Complement(42)],
                         ids=["top", "in-union", "in-complement"])
@pytest.mark.parametrize("call", [lambda e: member(e, ZERO), to_text, infer, normalize,
                                  lambda e: structural_candidates(e, 1)],
                         ids=["member", "to_text", "infer", "normalize",
                              "structural_candidates"])
def test_a_node_that_is_not_an_expression_is_refused(call, e):
    with pytest.raises(TypeError, match="set expression"):
        call(e)


# one instance of every kind of node, each table's rows exercised in turn
SAMPLES = {
    Empty: Empty(), All: All(), Rationals: Rationals(), Lattice: Lattice(),
    Cantor: Cantor(), Bernstein: Bernstein(),
    SinglePoint: SinglePoint(ZERO), FiniteSet: FiniteSet((ZERO, (Fr(1),))),
    ClosedBall: ClosedBall(ZERO, Fr(1)), OpenBall: OpenBall(ZERO, Fr(1)),
    Complement: Complement(Cantor()),
    Union: Union((Cantor(), SinglePoint((Fr(5),)))),
    Inter: Inter((Cantor(), OpenBall(ZERO, Fr(1)))),
}


def test_every_node_kind_has_a_sample():
    assert set(SAMPLES) == set(SetExpr.__subclasses__())


@pytest.mark.parametrize("kind", list(SAMPLES), ids=lambda kind: kind.__name__)
def test_every_tree_operation_has_a_row_for_every_kind(kind):
    e = SAMPLES[kind]
    assert member(e, ZERO) in (IN, OUT, UNKNOWN)
    assert parse(to_text(e)) == e
    infer(e)
    assert classify(e, 2).boundary_dim in (-1, 0, 1, None)
    for c, r in (((Fr(0),), Fr(1, 2)), ((Fr(9),), Fr(1))):
        assert _INSIDE[type(e)](e, _scaled(c), r) in (True, False)
        assert _DISJOINT[type(e)](e, _scaled(c), r) in (True, False)
    assert arity(e) in (None, 1)
    assert all(len(g) == 1 for g in _COORDS[type(e)](e))
    assert all(len(p) == 1 for p in structural_candidates(e, 1))
    assert all(len(_unscaled(q)) == 1 and r > 0 for _, q, r in _ball_forms(e, 1))


NESTED = Union((Inter((SinglePoint((Fr(1, 3),)), Complement(ClosedBall((Fr(2),), Fr(1, 2))))),
               Cantor(), Inter((FiniteSet((ZERO, (Fr(5, 7),))),
                                Complement(Union((OpenBall((Fr(1),), Fr(3)), Bernstein())))))))


@pytest.mark.parametrize("e", [*SAMPLES.values(), NESTED],
                         ids=[*(kind.__name__ for kind in SAMPLES), "nested"])
def test_a_pickled_node_round_trips_with_its_hash(e):
    # the hash and the membership test are cached beside the fields: neither
    # changes the value, and the test, a closure, is never pickled
    fresh = pickle.loads(pickle.dumps(e))
    member(e, ZERO)
    h = hash(e)
    assert h == hash(tuple(getattr(e, f) for f in e._fields))  # the record hash
    assert pickle.dumps(e) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(e))
    assert restored == e and hash(restored) == h and repr(restored) == repr(e)


@pytest.mark.parametrize("kind", list(SAMPLES), ids=lambda kind: kind.__name__)
def test_member_refuses_a_query_without_coordinates(kind):
    with pytest.raises(DimensionMismatch):
        member(SAMPLES[kind], ())


MIXED = [
    Union((ClosedBall(ZERO, Fr(1)), ClosedBall(TWO_COORDS, Fr(1)))),
    Inter((SinglePoint(ZERO), Complement(OpenBall(TWO_COORDS, Fr(1))))),
    FiniteSet((ZERO, TWO_COORDS)),
]


@pytest.mark.parametrize("e", MIXED, ids=["balls", "point-and-ball", "finite"])
def test_a_tree_whose_arities_disagree_is_refused(e):
    for call in (normalize, infer, lambda e: classify(e, 2), lambda e: classify(e, 3),
                 lambda e: TopologySpec(2, e), lambda e: subset(e, All())):
        with pytest.raises(DimensionMismatch):
            call(e)


def test_a_tree_of_another_arity_than_the_dimension_is_refused():
    e = SinglePoint((Fr(0), Fr(0)))
    assert arity(normalize(e)) == 2
    assert classify(e, 3).boundary_dim == 0
    assert TopologySpec(3, e).boundary_set == e
    for dimension in (2, 4):
        with pytest.raises(DimensionMismatch):
            classify(e, dimension)
        with pytest.raises(DimensionMismatch):
            TopologySpec(dimension, e)


def test_a_tree_without_coordinates_fits_every_dimension():
    for dimension in (2, 3, 4):
        assert classify(Union((Cantor(), Lattice())), dimension).dimension == dimension
        TopologySpec(dimension, Complement(Bernstein()))


# Leaves parse refuses to write, with what a tree holding one is refused with.
BAD_LEAVES = {
    "oball-radius-0": (OpenBall(ZERO, Fr(0)), ValueError),
    "cball-radius-0": (ClosedBall(ZERO, Fr(0)), ValueError),
    "cball-radius-negative": (ClosedBall(ZERO, Fr(-1)), ValueError),
    "radius-float": (OpenBall(ZERO, 0.5), TypeError),
    "coordinate-float": (SinglePoint((0.5,)), TypeError),
    "coordinate-bool": (FiniteSet(((True,),)), TypeError),
    "finite-empty": (FiniteSet(()), ValueError),
    "no-coordinates": (SinglePoint(()), DimensionMismatch),
    # a float equal to a kept rational, so that dropping duplicates alone
    # would hide it
    "duplicate-float": (Union((SinglePoint((Fr(1),)), SinglePoint((1.0,)))), TypeError),
}


@pytest.mark.parametrize("case", list(BAD_LEAVES.values()), ids=list(BAD_LEAVES))
@pytest.mark.parametrize("call", [
    normalize, infer, lambda e: subset(e, All()), lambda e: subset(Cantor(), e),
    lambda e: compare_topologies(e, Cantor()), lambda e: compare_topologies(Cantor(), e),
    lambda e: classify(e, 2), lambda e: TopologySpec(2, e),
], ids=["normalize", "infer", "subset-left", "subset-right", "compare_topologies-left",
        "compare_topologies-right", "classify", "TopologySpec"])
def test_a_leaf_parse_refuses_is_refused(call, case):
    e, error = case
    for tree in (e, Complement(e), Inter((Cantor(), e))):
        with pytest.raises(error):
            call(tree)
