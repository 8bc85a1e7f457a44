"""Sound three-valued inference of descriptive-set classes of boundary sets.

Flags are about the set A in the Euclidean space L_n ≅ R^m (m = n-1 >= 1):
countability, closed/open, G_delta/F_sigma, compactness, whether A contains
a closed uncountable subset, and whether A is all of L_n or empty.  The flag
"contains a closed uncountable subset" is the pivot of the Lindelöf
characterization; it is evaluated on the complement of A by the theorem
layer.

The engine applies primitive axioms bottom-up, combines them over the
boolean connectives, and then closes the flag record under a fixed list of
implications valid in R^m, e.g.:

  * closed or open  => both G_delta and F_sigma,
  * countable       => F_sigma and no closed uncountable subset,
  * co-countable    => G_delta (the complement, countable, is F_sigma),
  * closed+bounded <=> compact (Heine-Borel),
  * uncountable G_delta => contains a closed uncountable subset (the
    perfect-set property of uncountable G_delta sets, a trusted axiom),
  * a Bernstein set and its complement contain no uncountable compacta and
    are neither G_delta nor F_sigma (trusted axioms).

True/False answers are sound claims; Unknown is the fallback — the engine
never guesses.  A contradiction between rules raises SoundnessError and
signals an implementation bug, never a property of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .geometry import DimensionMismatch, sq_dist_coords
from .setdsl import (
    All,
    Bernstein,
    Cantor,
    ClosedBall,
    Complement,
    Empty,
    FiniteSet,
    IN,
    Inter,
    Lattice,
    NodeTable,
    OpenBall,
    Rationals,
    SetExpr,
    SinglePoint,
    Union,
    WITHIN,
    arity,
    axis,
    complement,
    find_witness,
    join,
    leaves,
    member,
    normalize,
    structural_candidates,
)
from .trivalent import FALSE, TRUE, UNKNOWN, Verdict, all3

T, F, U = TRUE, FALSE, UNKNOWN

PUBLIC_FLAGS = (
    "countable",
    "co_countable",
    "closed",
    "open",
    "g_delta",
    "f_sigma",
    "compact",
    "contains_closed_uncountable",
    "equals_all",
    "equals_empty",
)

_ALL_FLAGS = PUBLIC_FLAGS + ("bounded",)


class SoundnessError(RuntimeError):
    """Two rules produced contradictory flags: an engine bug, never an input."""


@dataclass(frozen=True)
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


# --- primitive axioms ---------------------------------------------------------
# Order of flags: countable, co_countable, closed, open, g_delta, f_sigma,
# compact, contains_closed_uncountable, equals_all, equals_empty, bounded.

def _row(ct, cc, cl, op, gd, fs, cp, cu, ea, ee, bd) -> dict[str, Verdict]:
    return dict(zip(_ALL_FLAGS, (ct, cc, cl, op, gd, fs, cp, cu, ea, ee, bd)))


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
    # closed nor open, and hold no closed uncountable subset.
    Bernstein: _row(F, F, F, F, F, F, F, F, F, F, F),
    SinglePoint: _row(T, F, T, F, T, T, T, F, F, F, T),
    FiniteSet: _row(T, F, T, F, T, T, T, F, F, F, T),
    ClosedBall: _row(F, F, T, F, T, T, T, T, F, F, T),
    OpenBall: _row(F, F, F, T, T, T, F, T, F, F, T),
}


# --- implication closure -------------------------------------------------------

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


def _merge(flags: dict[str, Verdict], update: dict[str, Verdict], context: SetExpr) -> bool:
    """Settle each Unknown flag that `update` decides; a decided flag that
    disagrees is a contradiction.  Whether any flag changed."""
    changed = False
    for name, want in update.items():
        if want is U:
            continue
        have = flags[name]
        if have is U:
            flags[name] = want
            changed = True
        elif have is not want:
            raise SoundnessError(
                f"contradiction on {name} for {context!r}: {have.value} vs {want.value}"
            )
    return changed


def _close(flags: dict[str, Verdict], context: SetExpr) -> dict[str, Verdict]:
    changed = True
    while changed:
        changed = False
        for premises, conclusions in _IMPLICATIONS:
            if all(flags[name] is want for name, want in premises.items()):
                changed |= _merge(flags, conclusions, context)
    return flags


# --- combinators ---------------------------------------------------------------

def _all_true(verdicts) -> Verdict:
    return T if all(v is T for v in verdicts) else U


def _any_true(verdicts) -> Verdict:
    return T if any(v is T for v in verdicts) else U


def _any_false(verdicts) -> Verdict:
    return F if any(v is F for v in verdicts) else U


# flag: (its rule over the members of a union, over those of an intersection)
_CONNECTIVE_RULES = {
    "countable": (all3, _any_true),
    "co_countable": (_any_true, all3),
    "closed": (_all_true, _all_true),
    "open": (_all_true, _all_true),
    "g_delta": (_all_true, _all_true),
    "f_sigma": (_all_true, _all_true),
    "compact": (_all_true, _all_true),
    "contains_closed_uncountable": (_any_true, _any_false),
    "equals_all": (_any_true, all3),
    "equals_empty": (all3, _any_true),
    "bounded": (all3, _any_true),
}
_SIDE = NodeTable({Union: 0, Inter: 1})  # which rule of the pair a connective reads


_SWAP_PAIRS = (
    ("countable", "co_countable"),
    ("co_countable", "countable"),
    ("closed", "open"),
    ("open", "closed"),
    ("g_delta", "f_sigma"),
    ("f_sigma", "g_delta"),
    ("equals_all", "equals_empty"),
    ("equals_empty", "equals_all"),
)


def _swap(inner: dict[str, Verdict]) -> dict[str, Verdict]:
    """Flags of the complement that follow directly from flags of the set."""
    out = {dst: inner[src] for dst, src in _SWAP_PAIRS}
    out["compact"] = U
    out["contains_closed_uncountable"] = U
    if inner["bounded"] is T:
        out["bounded"] = F  # the complement contains the exterior of a ball
    elif inner["equals_all"] is T:
        out["bounded"] = T  # the complement is empty
    else:
        out["bounded"] = U
    return out


# --- closed-ball witness search -------------------------------------------------

_ONE_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def _interval_misses_cantor(lo: Fraction, hi: Fraction, depth: int = 0) -> bool:
    """Sound test that the closed interval [lo, hi] avoids the Cantor set."""
    if hi < 0 or lo > 1:
        return True
    if lo > _ONE_THIRD and hi < _TWO_THIRDS:
        return True
    if depth > 64:
        return False
    if hi <= _ONE_THIRD:
        return _interval_misses_cantor(3 * lo, 3 * hi, depth + 1)
    if lo >= _TWO_THIRDS:
        return _interval_misses_cantor(3 * lo - 2, 3 * hi - 2, depth + 1)
    return False


def _ball_within(c: tuple[Fraction, ...], r: Fraction, kind: type, b: SetExpr) -> bool:
    """Whether the ball of center c, radius r and kind (ClosedBall or
    OpenBall) lies in the ball b."""
    # strict only for a closed ball inside an open one
    within = WITHIN[type(b) if kind is ClosedBall else ClosedBall]
    return within(r, b.radius) and within(sq_dist_coords(c, b.center), (b.radius - r) ** 2)


# Sound tests that the closed ball B[c, r] lies in the set e, and that it
# misses e: one row per kind of node.
_INSIDE = NodeTable({
    All: lambda e, c, r: True,
    # none of these contains a ball of positive radius
    **dict.fromkeys((Empty, Rationals, Lattice, Cantor, Bernstein, SinglePoint, FiniteSet),
                    lambda e, c, r: False),
    **dict.fromkeys((ClosedBall, OpenBall), lambda e, c, r: _ball_within(c, r, ClosedBall, e)),
    Complement: lambda e, c, r: _DISJOINT[type(e.body)](e.body, c, r),
    Union: lambda e, c, r: any(_INSIDE[type(m)](m, c, r) for m in e.members),
    Inter: lambda e, c, r: all(_INSIDE[type(m)](m, c, r) for m in e.members),
})

_DISJOINT = NodeTable({
    Empty: lambda e, c, r: True,
    # rationals are dense; a Bernstein set meets every closed ball (a ball
    # is an uncountable compactum)
    **dict.fromkeys((All, Rationals, Bernstein), lambda e, c, r: False),
    SinglePoint: lambda e, c, r: sq_dist_coords(e.coords, c) > r * r,
    FiniteSet: lambda e, c, r: all(sq_dist_coords(pt, c) > r * r for pt in e.points),
    # disjoint if along some axis the interval [c_i - r, c_i + r] holds no integer
    Lattice: lambda e, c, r: any(math.ceil(ci - r) > math.floor(ci + r) for ci in c),
    Cantor: lambda e, c, r: (_interval_misses_cantor(c[0] - r, c[0] + r)
                             or any(ci - r > 0 or ci + r < 0 for ci in c[1:])),
    # disjoint if the point of B[c, r] nearest the center lies outside the ball
    **dict.fromkeys((ClosedBall, OpenBall), lambda e, c, r: not WITHIN[type(e)](
        sq_dist_coords(c, e.center), (r + e.radius) ** 2)),
    Complement: lambda e, c, r: _INSIDE[type(e.body)](e.body, c, r),
    Union: lambda e, c, r: all(_DISJOINT[type(m)](m, c, r) for m in e.members),
    Inter: lambda e, c, r: any(_DISJOINT[type(m)](m, c, r) for m in e.members),
})


def _candidate_balls(e: SetExpr, m: int) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    cands: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for node in leaves(e):
        if isinstance(node, (ClosedBall, OpenBall)):
            center, radius = node.center, node.radius
            cands.append((center, radius / 2))
            cands.append((center, radius / 4))
            for i in range(len(center)):
                for frac in (Fraction(3, 4), Fraction(1, 2), Fraction(-3, 4), Fraction(-1, 2)):
                    cands.append((axis(center, i, frac * radius), radius / 8))
    zeros = (Fraction(0),) * m
    halves = (Fraction(1, 2),) * m
    cands.extend(
        [
            (zeros, Fraction(1)),
            (zeros, Fraction(1, 2)),
            (halves, Fraction(1, 4)),
            (halves, Fraction(1, 16)),
            ((Fraction(5, 2),) + (Fraction(1, 2),) * (m - 1), Fraction(1, 4)),
            ((Fraction(-5, 2),) + (Fraction(1, 2),) * (m - 1), Fraction(1, 4)),
        ]
    )
    return list(dict.fromkeys(cands))


_BALL_SEARCH_BUDGET = 1000


def _closed_ball_witness(e: SetExpr, m: int) -> bool:
    for center, radius in _candidate_balls(e, m)[:_BALL_SEARCH_BUDGET]:
        if _INSIDE[type(e)](e, center, radius):
            return True
    return False


# --- inference -----------------------------------------------------------------

def _combine_node(e: SetExpr) -> dict[str, Verdict]:
    """Flags of a complement-free node from axioms and its children's records."""
    if type(e) in _PRIMITIVE_AXIOMS:
        return dict(_PRIMITIVE_AXIOMS[type(e)])
    side = _SIDE[type(e)]
    parts = list(map(_flags, e.members))  # no comprehension frame per level
    return {name: rules[side]([p[name] for p in parts])
            for name, rules in _CONNECTIVE_RULES.items()}


def _point_witness(e: SetExpr, m: int) -> bool:
    return any(member(e, cand) is IN for cand in structural_candidates(e, m))


# Bounded so a long session of fresh expressions cannot grow it without
# limit; the benchmark's corpus and wide workloads stay well below it.
@lru_cache(maxsize=2**14)
def _pair_flags(key: SetExpr) -> tuple[dict[str, Verdict], dict[str, Verdict]]:
    """Joint records of a complement-free expression and of its complement.

    The two sides are closed together: anything either side learns (through
    its own rules, the ball-witness search, or a membership witness) flows
    to the other through the swap, so the engine answers symmetrically about
    a set and its complement.
    """
    ckey = complement(key)
    a = _close(_combine_node(key), key)
    if isinstance(key, Bernstein):
        # the complement of a Bernstein set is again a Bernstein set
        b = dict(_PRIMITIVE_AXIOMS[Bernstein])
    else:
        b = _swap(a)
    b = _close(b, ckey)

    m = arity(key) or 1
    # each side's searches run at most once, while their flag is Unknown:
    # a search's answer is fixed, so a failed one is not worth repeating
    searches = [
        (flags, expr, name, found, witness)
        for flags, expr in ((a, key), (b, ckey))
        for name, found, witness in (
            ("contains_closed_uncountable", T, _closed_ball_witness),
            ("equals_empty", F, _point_witness),
        )
    ]
    changed = True
    while changed:
        changed = False
        if _merge(a, _swap(b), key):
            _close(a, key)
            changed = True
        if _merge(b, _swap(a), ckey):
            _close(b, ckey)
            changed = True
        for search in list(searches):
            flags, expr, name, found, witness = search
            if flags[name] is not U:
                continue
            searches.remove(search)
            if witness(expr, m):
                flags[name] = found
                _close(flags, expr)
                changed = True
    return a, b


def _flags(e: SetExpr) -> dict[str, Verdict]:
    if isinstance(e, Complement):
        return _pair_flags(e.body)[1]
    return _pair_flags(e)[0]


def infer(e: SetExpr) -> DescClass:
    """Descriptive-class record of a boundary-set expression."""
    return infer_normal(normalize(e))


def infer_normal(e: SetExpr) -> DescClass:
    """:func:`infer` of an expression already in normal form, such as one
    built with ``complement`` or ``join`` from normal parts."""
    flags = _flags(e)
    return DescClass(**{name: flags[name] for name in PUBLIC_FLAGS})


def contains_closed_uncountable(e: SetExpr) -> Verdict:
    """Whether the set contains a closed (in L_n) uncountable subset.

    Exposed separately because the Lindelöf characterization applies it to
    the complement of the boundary set.
    """
    return infer(e).contains_closed_uncountable


# --- subset and the topology poset ----------------------------------------------

def _point_list(e: SetExpr) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    if isinstance(e, SinglePoint):
        return (e.coords,)
    if isinstance(e, FiniteSet):
        return e.points
    return None


def _structural_subset(a: SetExpr, b: SetExpr) -> bool:
    """Sound (never falsely True) structural subset test."""
    if a == b or isinstance(a, Empty) or isinstance(b, All):
        return True
    if isinstance(b, Union) and any(_structural_subset(a, m) for m in b.members):
        return True
    if isinstance(a, Union) and all(_structural_subset(m, b) for m in a.members):
        return True
    if isinstance(a, Inter) and any(_structural_subset(m, b) for m in a.members):
        return True
    if isinstance(b, Inter) and all(_structural_subset(a, m) for m in b.members):
        return True
    if isinstance(a, Complement) and isinstance(b, Complement):
        return _structural_subset(b.body, a.body)
    pts = _point_list(a)
    if pts is not None:
        try:
            return all(member(b, p) is IN for p in pts)
        except DimensionMismatch:  # pragma: no cover
            return False
    if isinstance(a, Lattice) and isinstance(b, Rationals):
        return True
    if isinstance(a, Cantor) and isinstance(b, (ClosedBall, OpenBall)):
        # the Cantor set lies on the segment between these ends; balls are convex
        rest = (Fraction(0),) * (len(b.center) - 1)
        return all(member(b, (end,) + rest) is IN for end in (Fraction(0), Fraction(1)))
    if isinstance(a, (ClosedBall, OpenBall)) and isinstance(b, (ClosedBall, OpenBall)):
        return _ball_within(a.center, a.radius, type(a), b)
    return False


def subset(e1: SetExpr, e2: SetExpr, budget: int = 1000, seed: int = 0) -> Verdict:
    """Three-valued subset test: structural rules prove True, a witness in
    e1 \\ e2 proves False, otherwise Unknown."""
    e1, e2 = normalize(e1), normalize(e2)
    if _structural_subset(e1, e2):
        return T
    # find_witness reads the dimension off gap: e1's arity, else e2's
    gap = join(Inter, (e1, complement(e2)))
    if find_witness(gap, budget=budget, seed=seed) is not None:
        return F
    return U


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


def compare_topologies(eA: SetExpr, eB: SetExpr, budget: int = 1000, seed: int = 0) -> TopologyOrder:
    """Order of tau(A) versus tau(B): A ⊆ B iff tau(A) ⊇ tau(B).

    FINER means tau(A) ⊇ tau(B) is established (EQUAL when both inclusions
    are); whether the inclusion is strict may be open.
    """
    return TopologyOrder.of(
        subset(eA, eB, budget=budget, seed=seed), subset(eB, eA, budget=budget, seed=seed)
    )
