"""Boundary-set expressions: grammar, parser and decidable membership oracle.

Expressions describe subsets A of the boundary hyperplane L_n ≅ R^(n-1);
points are given by their first n-1 coordinates.  Grammar, with ``rat``
being ``integer [ "/" positive-integer ]`` and coordinate arity n-1:

    expr      := term { "|" term }
    term      := factor { "&" factor }
    factor    := "!" factor | "(" expr ")" | primitive
    primitive := "empty" | "all" | "rationals" | "lattice" | "cantor"
               | "bernstein" | "point(" coords ")"
               | "finite{" coords { ";" coords } "}"
               | "cball(" coords ";" rat ")" | "oball(" coords ";" rat ")"

Membership is a three-valued :class:`~niemytzki.trivalent.Verdict`, named
here ``IN``, ``OUT`` and ``UNKNOWN``.  Only rational points are
representable, so ``rationals`` holds every representable point (``IN``);
the uncountable picture is handled by class-level inference in
:mod:`niemytzki.descriptive`.  ``bernstein`` is purely symbolic and its
membership is always ``UNKNOWN``: Bernstein sets are non-constructive,
only their class-level facts are usable.  ``cantor`` is the middle-thirds
set embedded as C × {0}^(n-2), decided exactly on the eventually periodic
ternary expansion of the rational first coordinate.

Every expression the library returns is normal (see :func:`normalize`): no
double complement, no complemented ``empty`` or ``all``, no union directly
inside a union nor intersection inside an intersection, no repeated member
and no one-member union or intersection.  Given normal arguments,
:func:`complement` and :func:`join` return normal results, so derived
expressions are built normal and never normalised again.

Each operation on the tree is one table keyed by node type, mostly a
:class:`NodeTable`, so a walk decides a node's kind with one lookup.  A new
primitive needs a row in each: ``_TEXT`` and ``_MEMBER`` here,
``_PRIMITIVE_AXIOMS``, ``_INSIDE`` and ``_DISJOINT`` in
:mod:`niemytzki.descriptive`, ``_BOUNDARY_DIM`` in :mod:`niemytzki.theorems`,
and, if it carries coordinates, the leaf-arity rule ``_COORDS``.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import DimensionMismatch, sq_dist_coords
from .trivalent import Verdict, all3, any3

IN = Verdict.TRUE
OUT = Verdict.FALSE
UNKNOWN = Verdict.UNKNOWN


# --- abstract syntax ---------------------------------------------------------

class SetExpr:
    """Base class of boundary-set expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(SetExpr):
    pass


@dataclass(frozen=True)
class All(SetExpr):
    pass


@dataclass(frozen=True)
class Rationals(SetExpr):
    pass


@dataclass(frozen=True)
class Lattice(SetExpr):
    """The integer lattice Z^(n-1)."""


@dataclass(frozen=True)
class Cantor(SetExpr):
    """The middle-thirds Cantor set embedded as C × {0}^(n-2)."""


@dataclass(frozen=True)
class Bernstein(SetExpr):
    """Symbolic Bernstein set: membership of individual points is unknowable."""


@dataclass(frozen=True)
class SinglePoint(SetExpr):
    coords: tuple[Fraction, ...]


@dataclass(frozen=True)
class FiniteSet(SetExpr):
    points: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ClosedBall(SetExpr):
    center: tuple[Fraction, ...]
    radius: Fraction


@dataclass(frozen=True)
class OpenBall(SetExpr):
    center: tuple[Fraction, ...]
    radius: Fraction


@dataclass(frozen=True)
class Complement(SetExpr):
    body: SetExpr


@dataclass(frozen=True)
class Union(SetExpr):
    members: tuple[SetExpr, ...]


@dataclass(frozen=True)
class Inter(SetExpr):
    members: tuple[SetExpr, ...]


# the primitives written as a bare word, in the order of the grammar
_PLAIN_PRIMITIVES = {
    "empty": Empty,
    "all": All,
    "rationals": Rationals,
    "lattice": Lattice,
    "cantor": Cantor,
    "bernstein": Bernstein,
}
_PLAIN_NAMES = {kind: name for name, kind in _PLAIN_PRIMITIVES.items()}


class NodeTable(dict):
    """One tree operation: the function for each kind of node, keyed by its
    exact type (no node class subclasses another), so a walk decides a
    node's kind with one lookup.  A type with no row is not a node."""

    __slots__ = ()

    def __missing__(self, kind: type):
        raise TypeError(f"not a set expression: {kind.__name__}")


# Whether a squared distance lies within a ball's squared radius: the one
# comparison where a closed ball (<=) and an open ball (<) differ.
WITHIN = {ClosedBall: operator.le, OpenBall: operator.lt}


def complement(e: SetExpr) -> SetExpr:
    """The complement of a normal expression, in normal form."""
    if isinstance(e, Complement):
        return e.body
    if isinstance(e, All):
        return Empty()
    if isinstance(e, Empty):
        return All()
    return Complement(e)


def join(kind: type, members: Iterable[SetExpr]) -> SetExpr:
    """The union or intersection (``kind``) of normal expressions, in normal
    form: members of the same kind are flattened one level, duplicates
    dropped and a single member returned as it is."""
    flat: list[SetExpr] = []
    for m in members:
        if isinstance(m, kind):
            flat.extend(m.members)
        else:
            flat.append(m)
    if not flat:
        raise ValueError("unions and intersections need at least one member")
    seen = tuple(dict.fromkeys(flat))
    return seen[0] if len(seen) == 1 else kind(seen)


def normalize(e: SetExpr) -> SetExpr:
    """Structural normal form: no double complements, no complemented
    constants, flattened and deduplicated unions/intersections.

    A tree with more than :data:`MAX_TREE_DEPTH` nested connectives raises
    ValueError: the library walks trees recursively, and the bound keeps
    every walk within the recursion limit.  A tree whose coordinate groups
    differ in arity raises DimensionMismatch.
    """
    e = _normal(e, MAX_TREE_DEPTH)
    found = set(_arities(e))
    if len(found) > 1:
        raise DimensionMismatch(f"coordinate groups of arities {sorted(found)} in one set")
    return e


def normalize_for(e: SetExpr, dimension: int) -> SetExpr:
    """:func:`normalize` for a session of the given dimension: a tree whose
    coordinate groups do not have dimension - 1 coordinates raises
    DimensionMismatch, as :func:`parse` raises ParseError on such text."""
    e = normalize(e)
    found = arity(e)
    if found not in (None, dimension - 1):
        raise DimensionMismatch(f"a set of arity {found} in dimension {dimension}")
    return e


def _normal(e: SetExpr, room: int) -> SetExpr:
    # room: how many more nested connectives the tree may have
    if not isinstance(e, (Complement, Union, Inter)):
        return e
    if room == 0:
        raise _too_deep()
    if isinstance(e, Complement):
        return complement(_normal(e.body, room - 1))
    return join(type(e), [_normal(m, room - 1) for m in e.members])


def _too_deep() -> ValueError:
    return ValueError(f"expression tree deeper than {MAX_TREE_DEPTH} levels")


def leaves(e: SetExpr) -> Iterator[SetExpr]:
    """The primitives of the expression tree, pre-order, left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Complement):
            stack.append(node.body)
        elif isinstance(node, (Union, Inter)):
            stack.extend(reversed(node.members))
        else:
            yield node


# The coordinate groups each kind of leaf carries; other nodes carry none.
_COORDS = {
    SinglePoint: lambda e: (e.coords,),
    FiniteSet: lambda e: e.points,
    **dict.fromkeys((ClosedBall, OpenBall), lambda e: (e.center,)),
}


def _arities(e: SetExpr) -> Iterator[int]:
    """The arity of each coordinate group of the tree, leaves in pre-order."""
    for leaf in leaves(e):
        if type(leaf) in _COORDS:
            yield from map(len, _COORDS[type(leaf)](leaf))


def arity(e: SetExpr) -> Optional[int]:
    """Coordinate arity carried by the expression, None if purely symbolic."""
    return next(_arities(e), None)


# --- printing ----------------------------------------------------------------

def _coords_text(coords: Sequence[Fraction]) -> str:
    return ",".join(str(c) for c in coords)


def to_text(e: SetExpr) -> str:
    """Canonical text form; parse(to_text(e), n) == e for normalized e.

    A tree too deep to print within the recursion limit raises ValueError,
    as in :func:`normalize`."""
    try:
        return _TEXT[type(e)](e)
    except RecursionError:
        raise _too_deep() from None


def _complement_text(e: Complement) -> str:
    body = _TEXT[type(e.body)](e.body)
    return f"!({body})" if type(e.body) in (Union, Inter) else f"!{body}"


def _inter_text(e: Inter) -> str:
    parts = []
    for m in e.members:
        t = _TEXT[type(m)](m)
        parts.append(f"({t})" if type(m) is Union else t)
    return " & ".join(parts)


_TEXT = NodeTable({
    **{kind: (lambda e, name=name: name) for kind, name in _PLAIN_NAMES.items()},
    SinglePoint: lambda e: f"point({_coords_text(e.coords)})",
    FiniteSet: lambda e: "finite{" + ";".join(_coords_text(p) for p in e.points) + "}",
    ClosedBall: lambda e: f"cball({_coords_text(e.center)};{e.radius})",
    OpenBall: lambda e: f"oball({_coords_text(e.center)};{e.radius})",
    Complement: _complement_text,
    Union: lambda e: " | ".join(_TEXT[type(m)](m) for m in e.members),
    Inter: _inter_text,
})


# --- parsing -----------------------------------------------------------------

class ParseError(ValueError):
    """Syntax or arity error, with the byte offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN_RE = re.compile(r"(?P<num>-?\d+)|(?P<name>[a-z]+)|(?P<sym>[|&!(){};,/])")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        pos = _WS_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def _integer(text: str, pos: int) -> int:
    if len(text.lstrip("-")) > _Parser.MAX_DIGITS:
        raise ParseError(f"integer literal longer than {_Parser.MAX_DIGITS} digits", pos)
    try:
        return int(text)
    except ValueError as exc:  # the interpreter's own limit set below MAX_DIGITS
        raise ParseError("integer literal too long", pos) from exc


class _Parser:
    # Deepest nesting of "(" and "!" accepted.  The parser and the engine
    # recurse once or more per level, so an expression nested this deep
    # still runs through every command within Python's default recursion
    # limit of 1000 frames: the deepest tree at the cap, a union and an
    # intersection in each "(", takes classify about 830.
    MAX_DEPTH = 100
    # Longest integer literal accepted, in digits: Python's default limit
    # for int(), held here so a raised or lifted limit does not change it.
    MAX_DIGITS = 4300

    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.length = len(text)
        self.i = 0
        self.depth = 0
        self.want = dimension - 1

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, expect: str | None = None):
        tok = self._peek()
        if tok is None:
            raise ParseError(
                f"unexpected end of input" + (f", expected {expect!r}" if expect else ""),
                self.length,
            )
        if expect is not None and tok[1] != expect:
            raise ParseError(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> SetExpr:
        e = self.expr()
        self.end()
        return _normal(e, MAX_TREE_DEPTH)  # coords() checked every arity

    def end(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])

    def expr(self) -> SetExpr:
        terms = [self.term()]
        while (tok := self._peek()) and tok[1] == "|":
            self._next()
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Union(tuple(terms))

    def term(self) -> SetExpr:
        factors = [self.factor()]
        while (tok := self._peek()) and tok[1] == "&":
            self._next()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Inter(tuple(factors))

    def factor(self) -> SetExpr:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        if tok[1] not in ("!", "("):
            return self.primitive()
        self._next()
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {self.MAX_DEPTH} levels", tok[2])
        if tok[1] == "!":
            inner = Complement(self.factor())
        else:
            inner = self.expr()
            self._next(")")
        self.depth -= 1
        return inner

    def primitive(self) -> SetExpr:
        kind, name, pos = self._next()
        if kind != "name":
            raise ParseError(f"expected a primitive, found {name!r}", pos)
        if name in _PLAIN_PRIMITIVES:
            return _PLAIN_PRIMITIVES[name]()
        if name == "point":
            self._next("(")
            coords = self.coords()
            self._next(")")
            return SinglePoint(coords)
        if name == "finite":
            self._next("{")
            points = [self.coords()]
            while (tok := self._peek()) and tok[1] == ";":
                self._next()
                points.append(self.coords())
            self._next("}")
            return FiniteSet(tuple(points))
        if name in ("cball", "oball"):
            self._next("(")
            center = self.coords()
            self._next(";")
            rpos = self._peek()[2] if self._peek() else self.length
            radius = self.rational()
            self._next(")")
            if radius <= 0:
                raise ParseError("radius must be positive", rpos)
            return (ClosedBall if name == "cball" else OpenBall)(center, radius)
        raise ParseError(f"unknown primitive {name!r}", pos)

    def coords(self) -> tuple[Fraction, ...]:
        start = self._peek()[2] if self._peek() else self.length
        values = [self.rational()]
        while (tok := self._peek()) and tok[1] == ",":
            self._next()
            values.append(self.rational())
        if len(values) != self.want:
            raise ParseError(
                f"expected {self.want} coordinate(s) for this dimension, got {len(values)}",
                start,
            )
        return tuple(values)

    def rational(self) -> Fraction:
        kind, text, pos = self._next()
        if kind != "num":
            raise ParseError(f"expected a rational, found {text!r}", pos)
        num = _integer(text, pos)
        if (tok := self._peek()) and tok[1] == "/":
            self._next()
            dkind, dtext, dpos = self._next()
            if dkind != "num":
                raise ParseError(f"expected a denominator, found {dtext!r}", dpos)
            den = _integer(dtext, dpos)
            if den <= 0:
                raise ParseError("denominator must be a positive integer", dpos)
            return Fraction(num, den)
        return Fraction(num)


# Most connectives (!, |, &) on one root-to-leaf path of a tree that
# normalize accepts: as many as the parser builds, a union and an
# intersection inside each "(" plus the top union and intersection.
MAX_TREE_DEPTH = 2 * _Parser.MAX_DEPTH + 2


def parse(text: str, dimension: int = 2) -> SetExpr:
    """Parse a boundary-set expression for a session of the given dimension.

    Raises :class:`ParseError` with a byte offset on syntax errors and on
    coordinate groups whose arity differs from dimension - 1.
    """
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    return _Parser(text, dimension).parse()


def parse_rational(text: str) -> Fraction:
    """Read one ``rat`` literal, ``integer [ "/" positive-integer ]``, the
    way the parser reads the radii and coordinates of an expression."""
    parser = _Parser(text, 2)
    value = parser.rational()
    parser.end()
    return value


# --- membership --------------------------------------------------------------

def in_cantor(x: Fraction) -> bool:
    """Exact middle-thirds membership for a rational in [0, 1].

    x lies in C iff some ternary expansion of x uses only digits {0, 2}.  The
    digit-0 and digit-2 branches cover the disjoint intervals [0, 1/3] and
    [2/3, 1], so at most one of them is ever playable: the walk
    m -> 3m or 3m - 2q on the numerator (denominator q fixed) is
    deterministic, dies inside the middle gap, and x is in C iff it revisits
    a state.
    """
    if x < 0 or x > 1:
        return False
    q = x.denominator
    m = x.numerator
    seen = set()
    while m not in seen:
        seen.add(m)
        t = 3 * m
        if t <= q:
            m = t
        elif t >= 2 * q:
            m = t - 2 * q
        else:
            return False
    return True


def member(e: SetExpr, p: Sequence[Fraction]) -> Verdict:
    """Three-valued membership of a boundary point (n-1 rational coordinates).

    A tree too deep to walk within the recursion limit raises ValueError,
    as in :func:`normalize`."""
    try:
        return _MEMBER[type(e)](e, tuple(p))
    except RecursionError:
        raise _too_deep() from None


def _checked(coords: tuple[Fraction, ...], p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """A coordinate group of the set, once its arity is the query point's."""
    if len(coords) != len(p):
        raise DimensionMismatch(f"arity {len(coords)} in the set, {len(p)} in the query point")
    return coords


def _cantor_member(e: Cantor, p: tuple[Fraction, ...]) -> Verdict:
    if not p:
        raise DimensionMismatch("cantor needs at least one coordinate")
    rest_zero = all(c == 0 for c in p[1:])
    return IN if rest_zero and in_cantor(p[0]) else OUT


def _finite_member(e: FiniteSet, p: tuple[Fraction, ...]) -> Verdict:
    for pt in e.points:
        _checked(pt, p)
    return IN if p in e.points else OUT


def _ball_member(e: SetExpr, p: tuple[Fraction, ...]) -> Verdict:
    d2 = sq_dist_coords(p, _checked(e.center, p))
    return IN if WITHIN[type(e)](d2, e.radius * e.radius) else OUT


_MEMBER = NodeTable({
    Empty: lambda e, p: OUT,
    All: lambda e, p: IN,
    Rationals: lambda e, p: IN,  # every representable point has rational coordinates
    Lattice: lambda e, p: IN if all(c.denominator == 1 for c in p) else OUT,
    Cantor: _cantor_member,
    Bernstein: lambda e, p: UNKNOWN,
    SinglePoint: lambda e, p: IN if _checked(e.coords, p) == p else OUT,
    FiniteSet: _finite_member,
    ClosedBall: _ball_member,
    OpenBall: _ball_member,
    Complement: lambda e, p: ~_MEMBER[type(e.body)](e.body, p),
    Union: lambda e, p: any3(_MEMBER[type(m)](m, p) for m in e.members),
    Inter: lambda e, p: all3(_MEMBER[type(m)](m, p) for m in e.members),
})


# --- witness search ----------------------------------------------------------

_CANTOR_SAMPLES = (
    Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 4), Fraction(3, 4), Fraction(1, 9), Fraction(2, 9),
    Fraction(7, 9), Fraction(8, 9),
)

_PROBE_VALUES = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(5),
)


def axis(center: tuple[Fraction, ...], i: int, offset: Fraction) -> tuple[Fraction, ...]:
    """The center moved by offset along coordinate axis i."""
    return center[:i] + (center[i] + offset,) + center[i + 1:]


def structural_candidates(e: SetExpr, m: int) -> list[tuple[Fraction, ...]]:
    """Deterministic candidate points harvested from the expression tree."""
    acc: list[tuple[Fraction, ...]] = []

    def pad(first: Fraction) -> tuple[Fraction, ...]:
        return (first,) + (Fraction(0),) * (m - 1)

    for node in leaves(e):
        if isinstance(node, SinglePoint):
            acc.append(node.coords)
        elif isinstance(node, FiniteSet):
            acc.extend(node.points)
        elif isinstance(node, (ClosedBall, OpenBall)):
            acc.append(node.center)
            half = node.radius / 2
            for i in range(len(node.center)):
                acc.append(axis(node.center, i, half))
                acc.append(axis(node.center, i, -half))
            if isinstance(node, ClosedBall):
                acc.append(axis(node.center, 0, node.radius))
        elif isinstance(node, Cantor):
            acc.extend(pad(c) for c in _CANTOR_SAMPLES)
        elif isinstance(node, Lattice):
            acc.extend((pad(Fraction(0)), pad(Fraction(1)), pad(Fraction(-1))))
            acc.append((Fraction(1),) * m)
        elif isinstance(node, (Rationals, All)):
            acc.append(pad(Fraction(0)))
            acc.append(pad(Fraction(1, 2)))

    return list(dict.fromkeys(cand for cand in acc if len(cand) == m))


def _probe_points(m: int) -> list[tuple[Fraction, ...]]:
    probes = []
    for v in _PROBE_VALUES:
        probes.append((v,) + (Fraction(0),) * (m - 1))
    for v in (Fraction(1), Fraction(-1), Fraction(1, 2)):
        probes.append((v,) * m)
    if m > 1:
        for v in (Fraction(1), Fraction(2)):
            probes.append((Fraction(0),) * (m - 1) + (v,))
    return probes


def find_witness(
    e: SetExpr, budget: int = 1000, seed: int = 0, dimension: int | None = None
) -> Optional[tuple[Fraction, ...]]:
    """Search for a point with membership In: structural candidates first,
    then seeded random rationals.  Absence of a witness proves nothing."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    m = (dimension - 1) if dimension is not None else (arity(e) or 1)
    rng = random.Random(seed)

    def randoms() -> Iterator[tuple[Fraction, ...]]:
        while True:
            yield tuple(
                Fraction(rng.randint(-300, 300), rng.randint(1, 100)) for _ in range(m)
            )

    pool = itertools.chain(structural_candidates(e, m), _probe_points(m), randoms())
    for cand in itertools.islice(pool, budget):
        if member(e, cand) is IN:
            return cand
    return None


# --- random expressions (seeded corpora) --------------------------------------

def random_expr(rng: random.Random, dimension: int = 2, max_depth: int = 4) -> SetExpr:
    """Seeded random normalized expression, for corpora and property suites."""
    m = dimension - 1

    def coords() -> tuple[Fraction, ...]:
        return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(m))

    def radius() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 8))

    def prim() -> SetExpr:
        roll = rng.randint(0, 9)
        if roll < len(_PLAIN_NAMES):
            return tuple(_PLAIN_NAMES)[roll]()
        if roll == 6:
            return SinglePoint(coords())
        if roll == 7:
            return FiniteSet(tuple(coords() for _ in range(rng.randint(1, 3))))
        if roll == 8:
            return ClosedBall(coords(), radius())
        return OpenBall(coords(), radius())

    def build(depth: int) -> SetExpr:
        if depth <= 0:
            return prim()
        roll = rng.randint(0, 5)
        if roll <= 2:
            return prim()
        if roll == 3:
            return Complement(build(depth - 1))
        members = tuple(build(depth - 1) for _ in range(rng.randint(2, 3)))
        return Union(members) if roll == 4 else Inter(members)

    return _normal(build(max_depth), MAX_TREE_DEPTH)  # every arity is m
