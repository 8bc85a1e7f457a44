"""Sound three-valued inference of descriptive-set classes of boundary sets.

Flags are about the set A in the Euclidean space L_n ≅ R^m (m = n-1 >= 1):
countability, closed/open, G_delta/F_sigma, compactness, whether A contains
a closed uncountable subset, and whether A is all of L_n or empty.  The flag
"contains a closed uncountable subset" is the pivot of the Lindelöf
characterization; it is evaluated on the complement of A by the theorem
layer.

A set's flags and its complement's make one record, a pair of ints
(true_bits, false_bits): the set's flags in the low half, the complement's
in the high half, so the complement's record is the set's with the halves
swapped.  The engine applies primitive axioms bottom-up (once per kind, at
import: no primitive's flags depend on its coordinates), combines members'
masks over the connectives, and closes the record under rules valid in R^m:
the implications below on each half, and cross rules between the halves (A
countable iff its complement co-countable, closed iff open, G_delta iff
F_sigma, all iff empty; a bounded A has an unbounded complement, and L_n an
empty one).  Only this closure checks for contradictions.  The implications
include:

  * closed or open  => both G_delta and F_sigma,
  * countable       => F_sigma and no closed uncountable subset,
  * co-countable    => G_delta (the complement, countable, is F_sigma),
  * closed+bounded <=> compact (Heine-Borel),
  * uncountable G_delta => contains a closed uncountable subset (the
    perfect-set property of uncountable G_delta sets, a trusted axiom),
  * a Bernstein set and its complement contain no uncountable compacta and
    are neither G_delta nor F_sigma (trusted axioms).

Two witness searches settle flags the rules leave Unknown on a union or an
intersection.  The closed-ball search tries candidate balls B[c, r], each
held as the scaled form of c and the radius r: the balls about each ball
leaf (``_balls_in_ball``; no other kind of leaf offers any, so a new
primitive needs no row for this search), moved on integers from the leaf's
cached form and harvested leaf by leaf as the search reads them, then six
fixed balls, formed once per arity; equal balls are tried once, and every
candidate harvested is tested and counts against the budget.  A candidate
of a union's member ball lies in it, so the union's complement harvests
none: it reads the ball leaves under the union's other members, then the
fixed balls, however many member balls there are.  The ``_INSIDE`` and
``_DISJOINT`` rows test a candidate against a node on its form: only the
ball rows add or subtract two radii as Fractions, and the Cantor row reads
its first-axis interval by the set language's one integer Cantor walk,
exact on the line.  A union reads only the leaves its index puts near the
candidate.  The point search is the set language's one search loop on the
tree's structural candidate forms, harvested leaf by leaf as it reads them.
The structural subset rules are three-valued.  They first split a union on
the left and an intersection on the right into their members, two exact
identities whose parts combine by Kleene conjunction, and decide a point
leaf in a set by that set's member test on the leaf's cached forms: IN
proves True and OUT proves False.  Every other row proves True or leaves
Unknown.  A ball on the left is decided by one row, ``_INSIDE`` read with
the ball's own kind: exact inside a ball of either kind, inside a union read
only at the balls the index puts near its center and at the members that
are neither points nor balls, and inside a complement when the closed ball
misses its body, which is sound for an open ball too.

:func:`compare` settles A ⊆ B and B ⊆ A, each by :func:`subset`, and reads
the order of tau(A) and tau(B) off the two verdicts; :func:`compare_topologies`
is that order alone.  :func:`subset` remembers its answers per process in one
bounded memo keyed by the text and dimension each tree was parsed from, as
:func:`~niemytzki.setdsl.parse` records them on the tree, so the memo holds
no tree alive and a repeated compare of texts parsed again is two lookups.
Every entry point takes any tree and normalises it, which for a tree marked
normal, as :func:`~niemytzki.setdsl.parse` returns one, is a single read.

True/False answers are sound claims; Unknown is the fallback — the engine
never guesses.  A contradiction between rules raises SoundnessError and
signals an implementation bug, never a property of the input.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator

from .geometry import _record, _Scaled, _scaled, _sq_sign
from .setdsl import (
    All,
    Bernstein,
    Cantor,
    ClosedBall,
    Complement,
    DEFAULT_BUDGET,
    Empty,
    IN,
    Inter,
    Lattice,
    NodeTable,
    OpenBall,
    Rationals,
    SetExpr,
    Union,
    WITHIN,
    _PARSED,
    _POINT_KINDS,
    _cantor_meets,
    _check_search,
    _first_in,
    _point_forms,
    _shifted,
    _structural,
    _too_deep,
    arity,
    complement,
    find_witness,
    join,
    leaves,
    member_test,
    normalize,
    on_axis,
)
from .trivalent import FALSE, TRUE, UNKNOWN, Verdict

T, F, U = TRUE, FALSE, UNKNOWN

class SoundnessError(RuntimeError):
    """Two rules produced contradictory flags: an engine bug, never an input."""


@_record
class DescClass:
    """Three-valued descriptive-class record of a boundary set."""

    countable: Verdict
    co_countable: Verdict
    closed: Verdict
    open: Verdict
    g_delta: Verdict
    f_sigma: Verdict
    compact: Verdict
    contains_closed_uncountable: Verdict
    equals_all: Verdict
    equals_empty: Verdict

    def to_json(self) -> dict[str, str]:
        return {name: getattr(self, name).value for name in PUBLIC_FLAGS}


PUBLIC_FLAGS = DescClass._fields
_ALL_FLAGS = PUBLIC_FLAGS + ("bounded",)


# --- flag records ----------------------------------------------------------------
# bit i is flag i of _ALL_FLAGS for the set, bit _HALF + i that of its complement

_HALF = len(_ALL_FLAGS)
_BIT = {name: 1 << i for i, name in enumerate(_ALL_FLAGS)}
_LOW = (1 << _HALF) - 1


def _mask(*names: str) -> int:
    return sum(_BIT[name] for name in names)


def _bits(flags: dict[str, Verdict], shift: int = 0) -> tuple[int, int]:
    """The true and the false bits of the decided flags, on the half at shift."""
    return tuple(_mask(*[name for name, v in flags.items() if v is want]) << shift
                 for want in (T, F))


def _flip(record: tuple[int, int]) -> tuple[int, int]:
    """The record of the complement: the two halves swapped."""
    t, f = record
    return t >> _HALF | (t & _LOW) << _HALF, f >> _HALF | (f & _LOW) << _HALF


# --- primitive axioms ---------------------------------------------------------
# Order of flags: countable, co_countable, closed, open, g_delta, f_sigma,
# compact, contains_closed_uncountable, equals_all, equals_empty, bounded.

def _row(ct, cc, cl, op, gd, fs, cp, cu, ea, ee, bd) -> tuple[int, int]:
    return _bits(dict(zip(_ALL_FLAGS, (ct, cc, cl, op, gd, fs, cp, cu, ea, ee, bd))))


_PRIMITIVE_AXIOMS = {
    Empty: _row(T, F, T, T, T, T, T, F, F, T, T),
    All: _row(F, T, T, T, T, T, F, T, T, F, F),
    # Q^m is countable and dense; it is F_sigma but not G_delta (Baire
    # category, trusted axiom), hence neither closed nor open.
    Rationals: _row(T, F, F, F, F, T, F, F, F, F, F),
    Lattice: _row(T, F, T, F, T, T, F, F, F, F, F),
    Cantor: _row(F, F, T, F, T, T, T, T, F, F, T),
    # Bernstein sets and their complements meet every uncountable compactum
    # yet contain none, so they are neither G_delta nor F_sigma, neither
    # closed nor open, and hold no closed uncountable subset.  The row holds
    # for both halves: the complement of a Bernstein set is one too.
    Bernstein: tuple(x | x << _HALF for x in _row(F, F, F, F, F, F, F, F, F, F, F)),
    **dict.fromkeys(_POINT_KINDS, _row(T, F, T, F, T, T, T, F, F, F, T)),
    ClosedBall: _row(F, F, T, F, T, T, T, T, F, F, T),
    OpenBall: _row(F, F, F, T, T, T, F, T, F, F, T),
}


# --- implication closure -------------------------------------------------------

# Each row holds for a set and for its complement alike.
_IMPLICATIONS: list[tuple[dict[str, Verdict], dict[str, Verdict]]] = [
    ({"closed": T}, {"g_delta": T, "f_sigma": T}),
    ({"open": T}, {"g_delta": T, "f_sigma": T}),
    ({"countable": T}, {"f_sigma": T, "contains_closed_uncountable": F,
                        "co_countable": F, "equals_all": F}),
    ({"co_countable": T}, {"g_delta": T, "countable": F, "equals_empty": F}),
    ({"contains_closed_uncountable": T}, {"countable": F, "equals_empty": F}),
    ({"closed": T, "countable": F}, {"contains_closed_uncountable": T}),
    ({"g_delta": T, "countable": F}, {"contains_closed_uncountable": T}),
    ({"closed": T, "contains_closed_uncountable": F}, {"countable": T}),
    ({"g_delta": T, "contains_closed_uncountable": F}, {"countable": T}),
    ({"closed": T, "bounded": T}, {"compact": T}),
    ({"closed": F}, {"compact": F}),
    ({"bounded": F}, {"compact": F}),
    ({"compact": T}, {"closed": T, "bounded": T}),
    ({"bounded": T}, {"equals_all": F}),
    ({"equals_empty": T}, {"countable": T, "closed": T, "open": T, "compact": T,
                           "bounded": T, "equals_all": F,
                           "contains_closed_uncountable": F}),
    ({"equals_all": T}, {"co_countable": T, "closed": T, "open": T,
                         "countable": F, "bounded": F, "equals_empty": F,
                         "contains_closed_uncountable": T}),
    ({"f_sigma": F}, {"closed": F, "open": F, "countable": F, "compact": F,
                      "equals_empty": F, "equals_all": F}),
    ({"g_delta": F}, {"closed": F, "open": F, "co_countable": F,
                      "equals_empty": F, "equals_all": F}),
]

# Rows from flags of one side to flags of the other, either way round: each
# flag of the complement that is a flag of the set, and two bounded facts.
_CROSS = [
    ({x: v}, {y: v})
    for pair in (("countable", "co_countable"), ("closed", "open"),
                 ("g_delta", "f_sigma"), ("equals_all", "equals_empty"))
    for x, y in (pair, pair[::-1]) for v in (T, F)
] + [
    ({"bounded": T}, {"bounded": F}),  # the other side contains the exterior of a ball
    ({"equals_all": T}, {"bounded": T}),  # the other side is empty
]

# Every row as masks (needs-true, needs-false, sets-true, sets-false), once
# for each side it reads.
_RULES = tuple(
    _bits(premises, src) + _bits(conclusions, dst)
    for rows, shifts in ((_IMPLICATIONS, ((0, 0), (_HALF, _HALF))),
                         (_CROSS, ((0, _HALF), (_HALF, 0))))
    for premises, conclusions in rows for src, dst in shifts
)


def _close(record: tuple[int, int], tree: object) -> tuple[int, int]:
    """The least record above `record` that every rule leaves as it is.  A
    flag it makes both true and false is a contradiction about `tree`, the
    set whose record it is."""
    t, f = record
    changed = True
    while changed:
        changed = False
        for need_t, need_f, put_t, put_f in _RULES:
            if (put_t & ~t or put_f & ~f) and t & need_t == need_t and f & need_f == need_f:
                t |= put_t
                f |= put_f
                changed = True
    clash = t & f
    if clash:
        names = ", ".join(f"{_ALL_FLAGS[i % _HALF]} of the {'complement' if i >= _HALF else 'set'}"
                          for i in range(2 * _HALF) if clash >> i & 1)
        raise SoundnessError(f"contradiction on {names} for {tree!r}")
    return t, f


# The joint record of each kind of primitive and of its complement, settled
# once: no primitive's flags depend on its coordinates, and each side decides
# both flags a witness search could settle (a test holds this).
_PRIMITIVE_PAIRS = {kind: _close(row, kind.__name__) for kind, row in _PRIMITIVE_AXIOMS.items()}


# --- closed-ball witness search -------------------------------------------------

def _ball_within(q: _Scaled, r: Fraction, b: SetExpr, kind: type = ClosedBall) -> bool:
    """Whether the ball of the kind (a ClosedBall or an OpenBall) about the
    form q with radius r lies in the ball b."""
    # strict only for a closed ball inside an open one
    within = WITHIN[type(b) if kind is ClosedBall else ClosedBall]
    return within(r, b.radius) and within(_sq_sign(q, b.scaled, b.radius - r), 0)


# The two union rows read the query's arity nowhere: the query is a
# candidate ball of the tree's own arity, and every point or ball they
# compare with it goes through geometry._sq_sign, which refuses another arity.

def _union_inside(e: Union, q: _Scaled, r: Fraction, kind: type = ClosedBall) -> bool:
    # no point holds a ball, and a ball that holds the query has its center
    # within R of the query's along the first axis
    index = e.index
    return any(_INSIDE[type(m)](m, q, r, kind) for m in chain(index.balls_near(q), index.others))


def _union_disjoint(e: Union, q: _Scaled, r: Fraction) -> bool:
    # a point or a ball that meets the query meets its slab along the first
    # axis; the balls first: the query often lies in one of them, which
    # settles the answer before the points near it are found by bisection
    index = e.index
    return (all(_DISJOINT[type(m)](m, q, r) for m in index.balls_near(q, r))
            and all(_sq_sign(form, q, r) > 0 for form in index.points_between(q, r))
            and all(_DISJOINT[type(m)](m, q, r) for m in index.others))


def _lattice_disjoint(e: Lattice, q: _Scaled, r: Fraction) -> bool:
    # along some axis [c_i - r, c_i + r] holds no integer: the last multiple
    # of the denominator at or below its top lies below its bottom
    (X, d), n, k = q, r.numerator, r.denominator
    w, den = n * d, d * k
    return any((x * k + w) // den * den < x * k - w for x in X)


def _cantor_disjoint(e: Cantor, q: _Scaled, r: Fraction) -> bool:
    # off C x {0} along a later axis, or along the first an interval that
    # misses C: exact for m = 1
    (X, d), n, k = q, r.numerator, r.denominator
    w = n * d
    return (any(abs(x) * k > w for x in X[1:])
            or not _cantor_meets(X[0] * k - w, X[0] * k + w, d * k))


# Sound tests that a ball, given as the scaled form q of its center and its
# radius r, lies in the set e, and that the closed ball B[c, r] misses e: one
# row per kind of node.  _INSIDE takes the ball's kind, closed unless told:
# a ball row is exact for either kind, and a complement's row reads the
# closed ball, which holds the open one.
_INSIDE = NodeTable({
    All: lambda e, q, r, kind=ClosedBall: True,
    # none of these contains a ball of positive radius
    **dict.fromkeys((Empty, Rationals, Lattice, Cantor, Bernstein, *_POINT_KINDS),
                    lambda e, q, r, kind=ClosedBall: False),
    **dict.fromkeys((ClosedBall, OpenBall),
                    lambda e, q, r, kind=ClosedBall: _ball_within(q, r, e, kind)),
    Complement: lambda e, q, r, kind=ClosedBall: _DISJOINT[type(e.body)](e.body, q, r),
    Union: _union_inside,
    Inter: lambda e, q, r, kind=ClosedBall: all(_INSIDE[type(m)](m, q, r, kind)
                                                for m in e.members),
})

_DISJOINT = NodeTable({
    Empty: lambda e, q, r: True,
    # rationals are dense; a Bernstein set meets every closed ball (a ball
    # is an uncountable compactum)
    **dict.fromkeys((All, Rationals, Bernstein), lambda e, q, r: False),
    **dict.fromkeys(_POINT_KINDS, lambda e, q, r: all(_sq_sign(form, q, r) > 0
                                                      for form in _point_forms(e))),
    Lattice: _lattice_disjoint,
    Cantor: _cantor_disjoint,
    # disjoint if the point of B[c, r] nearest the center lies outside the ball
    **dict.fromkeys((ClosedBall, OpenBall), lambda e, q, r: not WITHIN[type(e)](
        _sq_sign(q, e.scaled, r + e.radius), 0)),
    Complement: lambda e, q, r: _INSIDE[type(e.body)](e.body, q, r),
    Union: _union_disjoint,
    Inter: lambda e, q, r: any(_DISJOINT[type(m)](m, q, r) for m in e.members),
})

# The centers of the small balls about a ball: off its center along each
# axis by these fractions u/v of its radius
_OFFSETS = ((3, 4), (1, 2), (-3, 4), (-1, 2))


def _balls_in_ball(e: SetExpr) -> list[tuple[_Scaled, Fraction]]:
    """Balls about the center of a ball and about points off it along each
    axis, as (form, radius)."""
    form, n, k = e.scaled, e.radius.numerator, e.radius.denominator
    eighth = Fraction(n, 8 * k)
    return [(form, Fraction(n, 2 * k)), (form, Fraction(n, 4 * k)),
            *((_shifted(form, i, u * n, v * k), eighth)
              for i in range(len(form[0])) for u, v in _OFFSETS)]


# Like setdsl._probes, formed once per arity and bounded.
@lru_cache(maxsize=32)
def _fixed_balls(m: int) -> tuple[tuple[_Scaled, Fraction], ...]:
    """The candidates every search in R^m tries after its leaves', as (form, radius)."""
    zeros, halves = on_axis(Fraction(0), m), (Fraction(1, 2),) * m
    return tuple((_scaled(c), r) for c, r in (
        (zeros, Fraction(1)),
        (zeros, Fraction(1, 2)),
        (halves, Fraction(1, 4)),
        (halves, Fraction(1, 16)),
        ((Fraction(5, 2),) + halves[1:], Fraction(1, 4)),
        ((Fraction(-5, 2),) + halves[1:], Fraction(1, 4)),
    ))


def _ball_forms(nodes: Iterable[SetExpr], m: int) -> Iterator[tuple[_Scaled, Fraction]]:
    """The candidate balls of a search in R^m, in order, each once, as (form,
    radius): those about each ball among the nodes, harvested node by node
    as read (no other kind of leaf offers any), then the fixed ones.  Forms
    are canonical, so equal balls have equal keys."""
    seen = set()
    for cands in chain((_balls_in_ball(node) for node in nodes if type(node) in WITHIN),
                       (_fixed_balls(m),)):
        for q, r in cands:
            key = q, r.numerator, r.denominator
            if key not in seen:
                seen.add(key)
                yield q, r


_BALL_SEARCH_BUDGET = 1000


def _closed_ball_witness(e: SetExpr, m: int) -> bool:
    # A candidate that a member ball of a union offers lies strictly inside
    # that ball (3r/4 + r/8 < r), so it cannot miss the union: the union's
    # complement harvests only the leaves of its other members, then the
    # fixed balls.  One that a nested leaf offers again is tested, and
    # _DISJOINT's ball row refuses it.
    nodes = leaves(e)
    if type(e) is Complement and type(e.body) is Union:
        nodes = (leaf for other in e.body.index.others for leaf in leaves(other))
    inside = _INSIDE[type(e)]
    return any(inside(e, q, r) for q, r in islice(_ball_forms(nodes, m), _BALL_SEARCH_BUDGET))


# --- inference -----------------------------------------------------------------

_EVERY = ("closed", "open", "g_delta", "f_sigma", "compact")

# Per connective, over the set's half: the flags true when true for every
# member, those true when true for some member, and those false when false
# for some member.
_CONNECTIVES = NodeTable({
    Union: (_mask(*_EVERY, "countable", "equals_empty", "bounded"),
            _mask("co_countable", "contains_closed_uncountable", "equals_all"),
            _mask("countable", "equals_empty", "bounded")),
    Inter: (_mask(*_EVERY, "co_countable", "equals_all"),
            _mask("countable", "equals_empty", "bounded"),
            _mask("co_countable", "contains_closed_uncountable", "equals_all")),
})


def _combine_node(e: SetExpr) -> tuple[int, int]:
    """The set's half of a union's or an intersection's record, from its
    members' records."""
    every, some, false_some = _CONNECTIVES[type(e)]
    all_t, any_t, any_f = -1, 0, 0
    for t, f in map(_flags, e.members):
        all_t &= t
        any_t |= t
        any_f |= f
    return all_t & every | any_t & some, any_f & false_some


def _point_witness(e: SetExpr, m: int) -> bool:
    # the structural candidates alone, a leaf's harvested only if the span
    # lets the search read them and no earlier leaf's candidate was In
    return _first_in(e, m, _structural(e, m)) is not None


# flag, the value a witness settles it to, the search for that witness
_SEARCHES = (("contains_closed_uncountable", T, _closed_ball_witness),
             ("equals_empty", F, _point_witness))


# Bounded so a long session of fresh expressions cannot grow it without
# limit.  A 15-s benchmark run fills 1,163 entries on the corpus workload and
# 14,387 on the wide one, five a round (2-core machine, Python 3.11), so wide
# nears the bound.  A key holds its tree alive, with the caches on its nodes,
# so a text parsed again while its record is cached reads that tree from
# setdsl.parse's table, and the parser reads that tree's leaves there too.
@lru_cache(maxsize=2**14)
def _pair_flags(key: SetExpr) -> tuple[int, int]:
    """Joint record of a union or an intersection and of its complement.

    One closure settles both halves: anything either side learns (through
    its own rules, the ball-witness search, or a membership witness) flows
    to the other, so the engine answers symmetrically about a set and its
    complement.
    """
    record = _close(_combine_node(key), key)
    m = arity(key) or 1
    # each search runs at most once, while its flag is Unknown: a flag never
    # returns to Unknown, and a search's answer is fixed
    for shift, expr in ((0, key), (_HALF, complement(key))):
        for name, found, witness in _SEARCHES:
            bit = _BIT[name] << shift
            t, f = record
            if not (t | f) & bit and witness(expr, m):
                record = _close((t | bit, f) if found is T else (t, f | bit), key)
    return record


def _flags(e: SetExpr) -> tuple[int, int]:
    if type(e) is Complement:
        return _flip(_flags(e.body))
    return _PRIMITIVE_PAIRS.get(type(e)) or _pair_flags(e)


def flag_record(e: SetExpr) -> tuple[int, int]:
    """The flag record of a boundary-set expression: its flags in the low
    half, its complement's in the high half (see the module docstring)."""
    return _flags(normalize(e))


def desc_class(record: tuple[int, int], half: int = 0) -> DescClass:
    """The public flags on one half of a flag record: 0 for the set, 1 for
    its complement."""
    t, f = (x >> half * _HALF for x in record)
    return DescClass(*(T if t >> i & 1 else F if f >> i & 1 else U
                       for i in range(len(PUBLIC_FLAGS))))


def infer(e: SetExpr) -> DescClass:
    """Descriptive-class record of a boundary-set expression."""
    return desc_class(flag_record(e))


def contains_closed_uncountable(e: SetExpr) -> Verdict:
    """Whether the set contains a closed (in L_n) uncountable subset.

    Exposed separately because the Lindelöf characterization applies it to
    the complement of the boundary set.
    """
    return infer(e).contains_closed_uncountable


# --- subset and the topology poset ----------------------------------------------

def _every(verdicts: Iterable[Verdict]) -> Verdict:
    """The Kleene conjunction of the verdicts, read up to the first False."""
    every = T
    for v in verdicts:
        if v is F:
            return F
        every &= v
    return every


def _structural_subset(a: SetExpr, b: SetExpr) -> Verdict:
    """Sound three-valued structural subset test.  Only a point's member
    test answers False; the splits and the complement row pass it on."""
    if a == b or isinstance(a, Empty) or isinstance(b, All):
        return T
    # exact splits: no later row proves what the parts do not
    if isinstance(a, Union):
        return _every(_structural_subset(m, b) for m in a.members)
    if isinstance(b, Inter):
        return _every(_structural_subset(a, m) for m in b.members)
    if isinstance(b, Union) and a in b.index.members:
        return T
    if type(a) in WITHIN:  # the one ball row: exact wherever _INSIDE is
        return T if _INSIDE[type(b)](b, a.scaled, a.radius, type(a)) else U
    if type(a) in _POINT_KINDS:
        try:  # member on each point, read off its cached form
            return _every(member_test(b, len(form[0]))(form) for form in _point_forms(a))
        except RecursionError:
            raise _too_deep() from None
    if isinstance(b, Union) and any(_structural_subset(a, m) is T for m in b.members):
        return T
    if isinstance(a, Inter) and any(_structural_subset(m, b) is T for m in a.members):
        return T
    if isinstance(a, Complement) and isinstance(b, Complement):
        return _structural_subset(b.body, a.body)
    if isinstance(a, Lattice) and isinstance(b, Rationals):
        return T
    if isinstance(a, Cantor) and isinstance(b, (ClosedBall, OpenBall)):
        # the Cantor set lies on the segment between these ends; balls are convex
        m = len(b.center)
        test, rest = member_test(b, m), (0,) * (m - 1)
        return T if all(test(((end,) + rest, 1)) is IN for end in (0, 1)) else U
    return U


def _memo_key(e: SetExpr) -> object:
    """The key of a normal tree in the subset memo: the (text, dimension) that
    setdsl.parse built it from, else the tree itself."""
    return getattr(e, "_parse_key", e)


def _memo_tree(key: object) -> SetExpr:
    # a parse key's tree is alive: the caller of subset holds it
    return key if isinstance(key, SetExpr) else _PARSED[key]


# Bounded, as _pair_flags is.  A key is a parse text where there is one, so
# an entry holds no tree alive, and a repeated subset of texts that were
# parsed again is one lookup.  typed: budgets and seeds that compare equal
# may search differently, as setdsl._start's key says.
@lru_cache(maxsize=2**12, typed=True)
def _subset_memo(key1: object, key2: object, budget: int, seed) -> Verdict:
    e1, e2 = _memo_tree(key1), _memo_tree(key2)
    if (verdict := _structural_subset(e1, e2)) is not U:
        return verdict
    # find_witness reads the dimension off gap: e1's arity, else e2's
    gap = join(Inter, (e1, complement(e2)))
    return U if find_witness(gap, budget=budget, seed=seed) is None else F


def subset(e1: SetExpr, e2: SetExpr, budget: int = DEFAULT_BUDGET, seed: int = 0) -> Verdict:
    """Three-valued subset test: the structural rules prove True, or False
    where a point of e1 is OUT of e2 by e2's member test; what they leave
    Unknown a witness in e1 \\ e2, searched within the budget, proves False.
    A budget that is not an ``int``, below 1 or above ``sys.maxsize``, and
    a seed that is not hashable, or not None, an int, a float, a str or
    bytes, are refused whatever the sets, by the rule ``find_witness``
    keeps.

    Answers are remembered per process, in one bounded memo keyed by the
    text and dimension each tree was parsed from (a tree built otherwise is
    its own key), with the budget and the seed; with ``seed=None`` an answer
    is fixed for the process once it has been given.  An error is never
    remembered.
    """
    _check_search(budget, seed)
    return _subset_memo(_memo_key(normalize(e1)), _memo_key(normalize(e2)), budget, seed)


class TopologyOrder(Enum):
    FINER = "finer"
    COARSER = "coarser"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    UNKNOWN = "unknown"

    @staticmethod
    def of(fwd: Verdict, rev: Verdict) -> "TopologyOrder":
        """The order given the verdicts of A ⊆ B (fwd) and B ⊆ A (rev)."""
        if fwd is T and rev is T:
            return TopologyOrder.EQUAL
        if fwd is T:
            return TopologyOrder.FINER
        if rev is T:
            return TopologyOrder.COARSER
        if fwd is F and rev is F:
            return TopologyOrder.INCOMPARABLE
        return TopologyOrder.UNKNOWN


def compare_topologies(eA: SetExpr, eB: SetExpr, budget: int = DEFAULT_BUDGET, seed: int = 0) -> TopologyOrder:
    """Order of tau(A) versus tau(B): A ⊆ B iff tau(A) ⊇ tau(B).

    FINER means tau(A) ⊇ tau(B) is established (EQUAL when both inclusions
    are); whether the inclusion is strict may be open.
    """
    return compare(eA, eB, budget=budget, seed=seed)[2]


def compare(eA: SetExpr, eB: SetExpr, budget: int = DEFAULT_BUDGET,
            seed: int = 0) -> tuple[Verdict, Verdict, TopologyOrder]:
    """A ⊆ B, B ⊆ A and the order of tau(A) versus tau(B)."""
    eA, eB = normalize(eA), normalize(eB)  # once: each subset then reads the mark
    fwd = subset(eA, eB, budget=budget, seed=seed)
    rev = subset(eB, eA, budget=budget, seed=seed)
    return fwd, rev, TopologyOrder.of(fwd, rev)
