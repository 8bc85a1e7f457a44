"""Every node kind through every tree operation, and the errors a tree that
is not an expression, or whose arities disagree, is refused with."""

from fractions import Fraction as Fr

import pytest

from niemytzki.descriptive import _DISJOINT, _INSIDE, infer, infer_normal, subset
from niemytzki.geometry import DimensionMismatch
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
    arity,
    member,
    normalize,
    parse,
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


def test_member_refuses_cantor_without_coordinates():
    with pytest.raises(DimensionMismatch):
        member(Cantor(), ())


@pytest.mark.parametrize("e", [42, Union((All(), 42)), Complement(42)],
                         ids=["top", "in-union", "in-complement"])
@pytest.mark.parametrize("call", [lambda e: member(e, ZERO), to_text, infer],
                         ids=["member", "to_text", "infer"])
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
    assert infer(e) == infer_normal(e)
    assert classify(e, 2).boundary_dim in (-1, 0, 1, None)
    for c, r in (((Fr(0),), Fr(1, 2)), ((Fr(9),), Fr(1))):
        assert _INSIDE[type(e)](e, c, r) in (True, False)
        assert _DISJOINT[type(e)](e, c, r) in (True, False)
    assert arity(e) in (None, 1)


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
