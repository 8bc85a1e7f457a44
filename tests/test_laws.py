"""Laws of set algebra as a soundness net: two expressions that the laws
make equal denote one set, so no `infer` flag and no `classify` verdict may
be True for one and False for the other.  Unknown on one side is allowed;
the laws are independent of the rules under test.  The order of the
topologies is a law too: `compare(A, B)` is `compare(B, A)` read backwards.
And where `subset(A, B)` is True, every flag and verdict monotone in the
set keeps a True answer on one side from being False on the other.

Trees are `random_expr` trees of depth 3 at n = 2 and n = 3, drawn through
their seed."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niemytzki.descriptive import PUBLIC_FLAGS, TopologyOrder, compare, subset
from niemytzki.setdsl import All, Empty, FiniteSet, Inter, SinglePoint, Union, complement, join, random_expr
from niemytzki.theorems import classify
from niemytzki.trivalent import FALSE, TRUE, UNKNOWN


def _union(*members):
    return join(Union, members)


def _inter(*members):
    return join(Inter, members)


LAWS = {
    "de_morgan": lambda a, b, c: [
        (complement(_union(a, b)), _inter(complement(a), complement(b))),
        (complement(_inter(a, b)), _union(complement(a), complement(b))),
    ],
    "distributivity": lambda a, b, c: [
        (_inter(a, _union(b, c)), _union(_inter(a, b), _inter(a, c))),
        (_union(a, _inter(b, c)), _inter(_union(a, b), _union(a, c))),
    ],
    "absorption": lambda a, b, c: [
        (_union(a, _inter(a, b)), a),
        (_inter(a, _union(a, b)), a),
    ],
    "commutation": lambda a, b, c: [
        (_union(a, b), _union(b, a)),
        (_inter(a, b), _inter(b, a)),
    ],
    "association": lambda a, b, c: [
        (_union(_union(a, b), c), _union(a, _union(b, c))),
        (_inter(_inter(a, b), c), _inter(a, _inter(b, c))),
    ],
    "complement_pairs": lambda a, b, c: [
        (_union(a, complement(a)), All()),
        (_inter(a, complement(a)), Empty()),
    ],
    "constants": lambda a, b, c: [
        (_inter(a, Empty()), Empty()),
        (_union(a, All()), All()),
        (_union(a, Empty()), a),
        (_inter(a, All()), a),
    ],
}


_coordinate = st.builds(Fr, st.integers(-8, 8), st.integers(1, 8))  # as random_expr draws one


@st.composite
def _trees(draw, count):
    """A dimension and `count` seeded trees of that dimension."""
    n = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return n, [random_expr(rng, n, max_depth=3) for _ in range(count)]


@st.composite
def _point_pairs(draw):
    """A dimension and the pairs point(p) = finite{p} and finite{p;q} =
    point(p) | point(q), each joined with a tree both ways, and the
    complements of those joins."""
    n, (tree,) = draw(_trees(1))
    point = st.tuples(*[_coordinate] * (n - 1))
    p, q = draw(point), draw(point)
    pairs = []
    for left, right in ((SinglePoint(p), FiniteSet((p,))),
                        (FiniteSet((p, q)), _union(SinglePoint(p), SinglePoint(q)))):
        joins = [(op(left, tree), op(right, tree)) for op in (_union, _inter)]
        pairs += joins + [(complement(x), complement(y)) for x, y in joins]
    return n, pairs


def _verdicts(e, n):
    """Every `infer` flag and every `classify` verdict of e, by name."""
    report = classify(e, n)
    flags = report.set_classes  # infer(e), as classify read it
    return {**{f"flag.{name}": getattr(flags, name) for name in PUBLIC_FLAGS},
            **{name: report.verdict(name) for name in report.property_names()}}


def contradictions(x, y, n):
    """Names on which x and y, equal sets, get opposite settled answers: True
    against False, or two different settled dimensions."""
    vx, vy = _verdicts(x, n), _verdicts(y, n)
    unsettled = (UNKNOWN, None)
    return [name for name in vx
            if vx[name] not in unsettled and vy[name] not in unsettled and vx[name] != vy[name]]


@pytest.mark.parametrize("law", LAWS)
@settings(max_examples=120)
@given(_trees(3))
def test_a_law_of_set_algebra_never_contradicts(law, case):
    n, (a, b, c) = case
    for x, y in LAWS[law](a, b, c):
        assert not contradictions(x, y, n), (x, y)


@settings(max_examples=200)
@given(_point_pairs())
def test_points_and_finite_sets_of_the_same_points_never_contradict(case):
    n, pairs = case
    for x, y in pairs:
        assert not contradictions(x, y, n), (x, y)


# the order of tau(B) against tau(A), given that of tau(A) against tau(B)
_MIRROR = {TopologyOrder.FINER: TopologyOrder.COARSER, TopologyOrder.COARSER: TopologyOrder.FINER,
           **{order: order for order in (TopologyOrder.EQUAL, TopologyOrder.INCOMPARABLE,
                                         TopologyOrder.UNKNOWN)}}


@settings(max_examples=200)
@given(_trees(2))
def test_compare_mirrors_its_arguments(case):
    _, (a, b) = case
    fwd, rev, order = compare(a, b)
    assert compare(b, a) == (rev, fwd, _MIRROR[order]), (a, b)


def test_the_check_sees_a_contradiction():
    assert "flag.equals_empty" in contradictions(All(), Empty(), 2)
    assert not contradictions(All(), All(), 2)


# Answers monotone in the set, for A ⊆ B: countable and empty pass from B
# down to A; co-countable, all of L_n and a closed uncountable subset pass
# from A up to B, and so do the verdicts of R1, R2 and R4, which read them.
_DOWN = ("flag.countable", "flag.equals_empty")
_UP = ("flag.co_countable", "flag.equals_all", "flag.contains_closed_uncountable",
       "metrizable", "locally_compact", "lindelof")


def monotonicity_breaks(a, b, n):
    """Names on which a True answer for one side of A ⊆ B is False for the
    other, the way the set's order forbids."""
    va, vb = _verdicts(a, n), _verdicts(b, n)
    return ([name for name in _DOWN if vb[name] is TRUE and va[name] is FALSE]
            + [name for name in _UP if va[name] is TRUE and vb[name] is FALSE])


@settings(max_examples=300)
@given(_trees(2))
def test_a_true_subset_keeps_every_monotone_answer(case):
    n, (a, b) = case
    for x, y in ((_inter(a, b), a), (_inter(a, b), b), (a, _union(a, b)), (b, _union(a, b)),
                 (_inter(a, b), _union(a, b))):
        # only the structural rules answer True, so one candidate is budget enough
        if subset(x, y, budget=1) is TRUE:
            assert not monotonicity_breaks(x, y, n), (x, y)


def test_the_monotonicity_check_sees_a_break():
    assert monotonicity_breaks(Empty(), All(), 2) == []
    assert set(monotonicity_breaks(All(), Empty(), 2)) >= {
        "flag.equals_empty", "flag.equals_all", "metrizable", "locally_compact", "lindelof"}
