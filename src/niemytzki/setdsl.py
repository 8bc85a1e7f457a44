"""Boundary-set expressions: grammar, parser and decidable membership oracle.

Expressions describe subsets A of the boundary hyperplane L_n ≅ R^(n-1);
points are given by their first n-1 coordinates.  Grammar, with ``rat``
being ``integer [ "/" positive-integer ]`` in ASCII digits, whitespace
allowed between tokens, and coordinate arity n-1:

    expr      := term { "|" term }
    term      := factor { "&" factor }
    factor    := "!" factor | "(" expr ")" | primitive
    primitive := "empty" | "all" | "rationals" | "lattice" | "cantor"
               | "bernstein" | "point(" coords ")"
               | "finite{" coords { ";" coords } "}"
               | "cball(" coords ";" rat ")" | "oball(" coords ";" rat ")"

The text is read in one pass: one regex search finds the first character
that is neither whitespace nor the start of a token (``-`` starts one only
before a digit), before any token is read, and one ``findall`` gives the
text of every token.  No offset is kept: a :class:`ParseError` finds the
offset of its token by reading the text again.

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
expressions are built normal and never normalised again.  The parser
builds through these two as it reads, so :func:`parse` returns the normal
tree without a second pass; :func:`normalize` applies them bottom-up to a
tree built in Python, and :func:`normalize_for` takes text or a tree.

A normal tree is one :func:`parse` could return: besides that form, each
coordinate and radius is an ``int`` or a ``Fraction`` whose terms have at
most ``_Parser.MAX_DIGITS`` digits, each radius is positive, each finite
set has a point and every coordinate group has the same arity, at least
one.  A tree known to be normal is marked so at its
root, beside its fields as its hash is: :func:`parse` and :func:`normalize`
mark what they return, and :func:`complement` marks its result when its
argument is marked.  :func:`join` does not mark, since its members may
differ in arity.  A marked complement may be one connective deeper than
:data:`MAX_TREE_DEPTH` allows; every walk has room for that level, as
:func:`~niemytzki.theorems.classify` walks the complement of each set.
:func:`normalize` of a marked tree is one read, so every entry point takes
any tree and each tree is normalised once.  :func:`parse` first looks the
text and dimension up in a table of weak references, ``_PARSED``, and
returns the tree already alive for them: a text parsed again while a caller
or a cache holds its tree is not read again, and what that tree caches (its
hash, index, member test and scaled forms) is reused.  The table holds no
tree alive and never an error, so it needs no clearing.  A tree it stores
records its key at its root, so a cache may hold that key, not the tree, and
find the tree again here while it lives.

Each operation on the tree is one table keyed by node type, mostly a
:class:`NodeTable`, so a walk decides a node's kind with one lookup.  A new
primitive needs a row in each of eight: ``_TEXT``, ``_MEMBER_TESTS``, the
coordinate groups ``_COORDS`` and the witness candidates
``_POINT_CANDIDATES`` here, ``_PRIMITIVE_AXIOMS``, ``_INSIDE`` and
``_DISJOINT`` in :mod:`niemytzki.descriptive`, ``_BOUNDARY_DIM`` in
:mod:`niemytzki.theorems`.  The ball-witness search of
:mod:`niemytzki.descriptive` needs none: only the kinds of ``WITHIN``, the
balls, offer it candidates.  A primitive's axiom row is closed once into
its kind's record in ``_PRIMITIVE_PAIRS``, whose two halves hold the flags
of the primitive and of its complement.  That table is never searched, so the
closed row must decide, on both halves, every flag a witness search settles.
The two point leaves, ``point`` and ``finite``, differ only in their text,
their ``==`` and the fields ``_COORDS`` reads: they share one row in every
other table, and read their cached forms through ``_point_forms``.  A
primitive that carries coordinates also needs a cached ``scaled`` form of
them and a place in :class:`UnionIndex`: a union reads its coordinate leaves
only through that index, sorted by first coordinate, so a leaf the index
does not know is tested as one of its ``others`` on every query.

Membership is one test per node, built once from its ``_MEMBER_TESTS`` row
and its members' tests and cached beside the node's fields, as its hash is.
A test reads the query point as its integer form ``(X, d)`` from
``geometry._scaled`` and stops at the first member that settles the Kleene
and/or; the arity of the query is checked once, at the root, against the
arities the node caches beside its test.  The same row, in the same walk,
gives the node's support, cached in the same slot: the span [lo, hi] of
first coordinates outside which the test never answers IN (``NOWHERE`` if
it never does, ``ANYWHERE`` if no interval bounds it), and whether it can
ever answer OUT.  Points, finite sets and balls give their x_1 hull and
``cantor`` [0, 1]; ``empty`` and ``bernstein`` are nowhere, ``all``,
``rationals`` and ``lattice`` anywhere; an intersection meets its members'
spans, a union takes their hull, reading its index, and ``!b`` is nowhere
exactly when b never answers OUT.  :func:`member` is the arity check and
one call.  Every search for a point, here and in
:mod:`niemytzki.descriptive`, is one loop, ``_first_in``: it builds the
test once, returns None at once when the span is nowhere, before any
candidate is formed or drawn, and does not test a candidate whose x_1 lies
outside the span, so every answer is the one a search testing every
candidate gives.  :func:`find_witness` runs it on one stream of integer
forms, cut at the budget: the tree's structural candidates, then the probe
points, formed once per arity m, then the seeded random candidates, drawn
as the search reads them from the seed's start state, formed once per
seed.  The structural candidates are harvested lazily too, by
``_structural``: each leaf's ``_POINT_CANDIDATES`` row gives canonical
forms (a point leaf its cached ones, a ball its center's and those moved
off it on integers by ``_shifted``, the plain leaves theirs, formed once
per arity), each kept once as an (X, d) tuple, and a leaf's row is read
only when the search gets past the leaf before it.  A ``Fraction`` is made
only for the witness that is returned, so a witness is always a tuple of
them; :func:`structural_candidates` reads the same forms back as
``Fraction`` tuples.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
import sys
import weakref
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator, Optional

from .geometry import (
    DimensionMismatch,
    _check_int,
    _form,
    _positive,
    _record,
    _Scaled,
    _scaled,
    _sq_sign,
    _unscaled,
    check_dimension,
    rat,
)
from .trivalent import Verdict

IN = Verdict.TRUE
OUT = Verdict.FALSE
UNKNOWN = Verdict.UNKNOWN


# --- abstract syntax ---------------------------------------------------------

class SetExpr:
    """Base class of boundary-set expressions."""

    # What a node caches beside its fields: its hash (see geometry._record),
    # its membership test (see _compiled), the mark that it is normal (see
    # normalize) and, at the root of a tree that parse built, the (text,
    # dimension) key of parse's table, by which descriptive.subset remembers
    # its answers.  A scaled form or a union's index sits in __dict__.
    __slots__ = ("_hash", "_member_test", "_is_normal", "_parse_key")


@_record
class Empty(SetExpr):
    pass


@_record
class All(SetExpr):
    pass


@_record
class Rationals(SetExpr):
    pass


@_record
class Lattice(SetExpr):
    """The integer lattice Z^(n-1)."""


@_record
class Cantor(SetExpr):
    """The middle-thirds Cantor set embedded as C × {0}^(n-2)."""


@_record
class Bernstein(SetExpr):
    """Symbolic Bernstein set: membership of individual points is unknowable."""


# Each coordinate leaf caches the ``geometry._scaled`` form of its
# coordinates as ``scaled``, beside its fields as ``Point.scaled`` is, so a
# point is brought to integers once however many balls it is tested against.

@_record
class SinglePoint(SetExpr):
    coords: tuple[Fraction, ...]

    @cached_property
    def scaled(self) -> _Scaled:
        return _scaled(self.coords)


@_record
class FiniteSet(SetExpr):
    points: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def scaled(self) -> tuple[_Scaled, ...]:
        """One form per point, in order."""
        return tuple(map(_scaled, self.points))


@_record
class ClosedBall(SetExpr):
    center: tuple[Fraction, ...]
    radius: Fraction

    @cached_property
    def scaled(self) -> _Scaled:
        return _scaled(self.center)


@_record
class OpenBall(SetExpr):
    center: tuple[Fraction, ...]
    radius: Fraction

    @cached_property
    def scaled(self) -> _Scaled:
        return _scaled(self.center)


@_record
class Complement(SetExpr):
    body: SetExpr


@_record
class Union(SetExpr):
    members: tuple[SetExpr, ...]

    @cached_property
    def index(self) -> "UnionIndex":
        return UnionIndex(self.members)


@_record
class Inter(SetExpr):
    members: tuple[SetExpr, ...]


# The point leaves: their text, == and coordinate fields differ, and they
# share every other row.
_POINT_KINDS = (SinglePoint, FiniteSet)


def _point_forms(e: SetExpr) -> tuple[_Scaled, ...]:
    """The cached scaled forms of a point leaf's points, in order."""
    return e.scaled if type(e) is FiniteSet else (e.scaled,)


# the primitives written as a bare word, in the order of the grammar
_PLAIN_PRIMITIVES = {"empty": Empty, "all": All, "rationals": Rationals, "lattice": Lattice,
                     "cantor": Cantor, "bernstein": Bernstein}
_PLAIN_NAMES = {kind: name for name, kind in _PLAIN_PRIMITIVES.items()}


class NodeTable(dict):
    """One tree operation: the function for each kind of node, keyed by its
    exact type (no node class subclasses another), so a walk decides a
    node's kind with one lookup.  A type with no row is not a node."""

    __slots__ = ()

    def __missing__(self, kind: type):
        raise TypeError(f"not a set expression: {kind.__name__}")


# Whether a point lies within a ball, as WITHIN[kind](sign, 0) on the sign
# of |p - q|^2 - r^2 from ``geometry._sq_sign`` (and as WITHIN[kind](r, R)
# between two radii): the one comparison where a closed ball (<=) and an
# open ball (<) differ.
WITHIN = {ClosedBall: operator.le, OpenBall: operator.lt}


def _marked(e: SetExpr) -> SetExpr:
    """e, marked as normal: a tree that :func:`normalize` accepts, in its
    normal form."""
    object.__setattr__(e, "_is_normal", True)
    return e


def complement(e: SetExpr) -> SetExpr:
    """The complement of a normal expression, in normal form, marked normal
    when e is marked."""
    if isinstance(e, Complement):
        c = e.body
    elif isinstance(e, All):
        c = Empty()
    elif isinstance(e, Empty):
        c = All()
    else:
        c = Complement(e)
    return _marked(c) if getattr(e, "_is_normal", False) else c


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
    constants, flattened and deduplicated unions/intersections.  The result
    is marked normal, and a marked tree is returned as it is.

    A tree with more than :data:`MAX_TREE_DEPTH` nested connectives raises
    ValueError: the library walks trees recursively, and the bound keeps
    every walk within the recursion limit.  A tree whose coordinate groups
    differ in arity raises DimensionMismatch, and a leaf that :func:`parse`
    would refuse raises as :func:`_arities` says.
    """
    if getattr(e, "_is_normal", False):
        return e
    normal = _normal(e, MAX_TREE_DEPTH)
    # the leaves of e, not of its normal form: a duplicate dropped there,
    # such as point(1.0) beside point(1), would go unchecked
    found = set(_arities(e))
    if len(found) > 1:
        raise DimensionMismatch(f"coordinate groups of arities {sorted(found)} in one set")
    return _marked(normal)


def normalize_for(e: SetExpr | str, dimension: int) -> SetExpr:
    """The normal tree of text, read by :func:`parse`, or of a tree built in
    Python, for a session of the given dimension: a dimension that is not
    an int (a bool included) raises TypeError, one below 2 ValueError, and
    a tree whose coordinate groups do not have dimension - 1 coordinates
    DimensionMismatch, as :func:`parse` raises ParseError on such text."""
    if isinstance(e, str):
        return parse(e, dimension)
    check_dimension(dimension)
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


# The coordinate groups a node carries itself, () for most kinds.
_COORDS = NodeTable({
    **dict.fromkeys((*_PLAIN_NAMES, Complement, Union, Inter), lambda e: ()),
    SinglePoint: lambda e: (e.coords,),
    FiniteSet: lambda e: e.points,
    **dict.fromkeys((ClosedBall, OpenBall), lambda e: (e.center,)),
})


def _arities(e: SetExpr) -> Iterator[int]:
    """The arity of each coordinate group of the tree, leaves in pre-order.

    A leaf that :func:`parse` would refuse raises as it is reached: a
    coordinate or radius that is not an ``int`` or a ``Fraction`` TypeError,
    as :func:`geometry.rat` does for a float; one whose numerator or
    denominator has more than ``_Parser.MAX_DIGITS`` digits, a radius <= 0
    or a finite set without points ValueError; a group without coordinates
    DimensionMismatch."""
    for leaf in leaves(e):
        kind = type(leaf)
        groups = _COORDS[kind](leaf)
        if kind in WITHIN:
            _positive(_exact(leaf.radius), "radius")
        if kind is FiniteSet and not groups:
            raise ValueError("a finite set needs at least one point")
        for group in groups:
            if not group:
                raise _no_coordinates()
            for c in group:
                _exact(c)
            yield len(group)


def _exact(c):
    """c, if it is an int or a Fraction (a bool is not) whose terms have at
    most ``_Parser.MAX_DIGITS`` digits, compared as ints, not by str()."""
    if type(c) not in (int, Fraction):
        raise TypeError(f"not an exact rational: {c!r}")
    if abs(c.numerator) >= _LITERAL_BOUND or c.denominator >= _LITERAL_BOUND:
        raise ValueError(f"a numerator or denominator longer than {_Parser.MAX_DIGITS} digits")
    return c


def _no_coordinates() -> DimensionMismatch:
    return DimensionMismatch("a boundary point needs at least one coordinate")


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
    return _negated(e.body, _TEXT[type(e.body)](e.body))


def _negated(body: SetExpr, text: str) -> str:
    """The text of Complement(body), given the text of body."""
    return f"!({text})" if type(body) in (Union, Inter) else f"!{text}"


def complement_text(e: SetExpr, text: str) -> str:
    """``to_text(complement(e))`` for a normal e whose text is ``text``,
    read off that text instead of printing the tree again."""
    if type(e) is Complement:
        return text[2:-1] if type(e.body) in (Union, Inter) else text[1:]
    if type(e) in (All, Empty):
        return to_text(complement(e))
    return _negated(e, text)


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


# One token per match of _TOKEN_RE, read by one findall once _BAD_RE found
# no bad character; offsets are found only for an error (module docstring).
_TOKEN_RE = re.compile(r"-?[0-9]+|[a-z]+|[|&!(){};,/]")
_BAD_RE = re.compile(r"[^\s0-9a-z|&!(){};,/-]|-(?![0-9])")


def _tokenize(text: str) -> list[str]:
    """The token texts of text, closed by one "" for its end."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


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
    # Most characters of a token that an error message quotes.
    MAX_QUOTED = 64

    # The closing "" is never read past: it is no symbol, number or name.
    def __init__(self, text: str, dimension: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.want = dimension - 1

    def _error(self, message: str, i: int) -> ParseError:
        """A ParseError at token i, whose offset is found by reading the
        text again (len(text) for the closing "")."""
        match = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None), None)
        return ParseError(message, len(self.text) if match is None else match.start())

    def _quoted(self, i: int) -> str:
        """Token i as a message quotes it: whole, or cut to its first
        MAX_QUOTED characters with its length."""
        tok, cap = self.tokens[i], self.MAX_QUOTED
        if len(tok) <= cap:
            return repr(tok)
        return f"{tok[:cap]!r} (the first {cap} of {len(tok)} characters)"

    def _unexpected(self, i: int, wanted: str, at_end: str = "") -> ParseError:
        if not self.tokens[i]:
            return self._error("unexpected end of input" + at_end, i)
        return self._error(f"expected {wanted}, found {self._quoted(i)}", i)

    def _symbol(self, sym: str) -> None:
        """Read the symbol sym."""
        if self.tokens[self.i] != sym:
            raise self._unexpected(self.i, repr(sym), f", expected {sym!r}")
        self.i += 1

    def _list(self, sep: str, part: Callable[[], object]) -> list:
        """``part { sep part }``: the parts, in order."""
        parts = [part()]
        while self.tokens[self.i] == sep:
            self.i += 1
            parts.append(part())
        return parts

    def parse(self) -> SetExpr:
        e = self.expr()  # normal, and coords() checked every arity
        self.end()
        return e

    def end(self) -> None:
        if self.tokens[self.i]:
            raise self._error(f"trailing input {self._quoted(self.i)}", self.i)

    def expr(self) -> SetExpr:
        parts = self._list("|", self.term)
        return parts[0] if len(parts) == 1 else join(Union, parts)

    def term(self) -> SetExpr:
        parts = self._list("&", self.factor)
        return parts[0] if len(parts) == 1 else join(Inter, parts)

    def factor(self) -> SetExpr:
        start = self.i
        sym = self.tokens[start]
        if sym != "!" and sym != "(":
            return self.primitive()
        self.i += 1
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise self._error(f"expression nested deeper than {self.MAX_DEPTH} levels", start)
        if sym == "!":
            inner = complement(self.factor())
        else:
            inner = self.expr()
            self._symbol(")")
        self.depth -= 1
        return inner

    def primitive(self) -> SetExpr:
        start = self.i
        name = self.tokens[start]
        self.i += 1
        if name in _PLAIN_PRIMITIVES:
            return _PLAIN_PRIMITIVES[name]()
        if name == "point":
            self._symbol("(")
            coords = self.coords()
            self._symbol(")")
            return SinglePoint(coords)
        if name == "finite":
            self._symbol("{")
            points = self._list(";", self.coords)
            self._symbol("}")
            return FiniteSet(tuple(points))
        if name == "cball" or name == "oball":
            self._symbol("(")
            center = self.coords()
            self._symbol(";")
            at = self.i
            radius = self.rational()
            self._symbol(")")
            if radius <= 0:
                raise self._error("radius must be positive", at)
            return (ClosedBall if name == "cball" else OpenBall)(center, radius)
        if not name.isalpha():  # a number, a symbol or the end
            raise self._unexpected(start, "a primitive")
        raise self._error(f"unknown primitive {self._quoted(start)}", start)

    def coords(self) -> tuple[Fraction, ...]:
        start = self.i
        values = self._list(",", self.rational)
        if len(values) != self.want:
            raise self._error(f"expected {self.want} coordinate(s) for this dimension, "
                              f"got {len(values)}", start)
        return tuple(values)

    def rational(self) -> Fraction:
        i = self.i
        num = self._integer(i, "a rational")
        if self.tokens[i + 1] != "/":
            self.i = i + 1
            return Fraction(num)
        den = self._integer(i + 2, "a denominator")
        if den <= 0:
            raise self._error("denominator must be a positive integer", i + 2)
        self.i = i + 3
        return Fraction(num, den)

    def _integer(self, i: int, wanted: str) -> int:
        """The value of token i, which must be a number."""
        tok = self.tokens[i]
        if not tok[-1:].isdigit():
            raise self._unexpected(i, wanted)
        if len(tok.lstrip("-")) > self.MAX_DIGITS:
            raise self._error(f"integer literal longer than {self.MAX_DIGITS} digits", i)
        try:
            return int(tok)
        except ValueError as exc:  # the interpreter's own limit set below MAX_DIGITS
            raise self._error("integer literal too long", i) from exc


# Most connectives (!, |, &) on one root-to-leaf path of a tree that
# normalize accepts: as many as the parser builds, a union and an
# intersection inside each "(" plus the top union and intersection.
MAX_TREE_DEPTH = 2 * _Parser.MAX_DEPTH + 2
# The least int the parser does not read: one past MAX_DIGITS digits.
_LITERAL_BOUND = 10 ** _Parser.MAX_DIGITS


# The tree parsed from each (text, dimension) while something else holds
# it.  An entry goes with its tree: no tree holds a reference cycle, so the
# last holder's release frees it at once.  Keys that compare equal read the
# same tree, since the parser reads dimension - 1 alone.
_PARSED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def parse(text: str, dimension: int = 2) -> SetExpr:
    """Parse a boundary-set expression for a session of the given dimension.

    Raises :class:`ParseError` with a byte offset on syntax errors and on
    coordinate groups whose arity differs from dimension - 1.

    The tree is returned marked normal, and it is the one already alive for
    the same text and dimension if there is one: a text parsed again while
    its tree is held, by a caller or a cache keyed by it, is not read again,
    and its index, member test, scaled forms and hash are reused as built.
    The table that finds it holds no tree alive and never an error.  A new
    tree records its key, ``(text, dimension)``, at its root:
    :func:`~niemytzki.descriptive.subset` remembers its answers by that key,
    not by the tree, and finds the tree again here.  Text that is not a str
    raises TypeError, and a dimension as :func:`normalize_for` says.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, not {type(text).__name__}")
    check_dimension(dimension)
    key = (text, dimension)
    tree = _PARSED.get(key)
    if tree is None:
        tree = _PARSED[key] = _marked(_Parser(text, dimension).parse())
        object.__setattr__(tree, "_parse_key", key)
    return tree


def parse_rational(text: str) -> Fraction:
    """Read one ``rat`` literal, ``integer [ "/" positive-integer ]``, the
    way the parser reads the radii and coordinates of an expression."""
    parser = _Parser(text, 2)
    value = parser.rational()
    parser.end()
    return value


# --- membership --------------------------------------------------------------

def _cantor_meets(lo: int, hi: int, q: int) -> bool:
    """Whether the closed interval [lo/q, hi/q] meets the middle-thirds
    Cantor set C, for q > 0.

    Clamped to [0, 1], an interval that meets C either holds 1/3 or 2/3,
    both in C, or lies in one of the thirds [0, 1/3) and (2/3, 1], where
    x -> 3x or 3x - 2 maps C's part onto C; in the middle gap it misses C.
    So the walk on the numerators (q fixed) is deterministic and exact.  The
    lower end takes the step of its own ternary walk, so a numerator seen
    twice is a point of C; that ends the walk of a single point.  A wider
    interval ends sooner: its width triples at each step, and an interval
    as wide as 1/3 holds 1/3 or 2/3.
    """
    lo, hi = max(lo, 0), min(hi, q)
    seen = set()
    while lo <= hi and lo not in seen:
        seen.add(lo)
        if 3 * hi < q:
            lo, hi = 3 * lo, 3 * hi
        elif 3 * lo > 2 * q:
            lo, hi = 3 * lo - 2 * q, 3 * hi - 2 * q
        else:
            return 3 * lo <= q or 3 * hi >= 2 * q
    return lo <= hi


class UnionIndex:
    """The members of one union, arranged so that a query reads only the
    coordinate leaves it may touch (``Union.index``, built once per node).

    The points of the union, its ``point`` members and the points of its
    ``finite`` members, are in the set ``points`` by their scaled form, and
    in ``point_forms`` sorted by first coordinate.  The balls are sorted by
    the first coordinate c_1 of their centers; with R their largest radius
    (``reach``), every ball that meets the slab |x_1 - y| <= r has c_1
    within r + R of y.  On the grid of step 1/s, s = ceil(1/R),
    ``ball_floors`` and ``ball_tops`` hold the cells of c_1 - R and c_1 + R,
    integer floor divisions on the balls' cached forms.  ``arities`` holds
    the arity of each of these points and centers.  Every other member, a
    leaf without coordinates included, is in ``others``, in order.
    """

    def __init__(self, members: tuple[SetExpr, ...]):
        self._members = members
        points: list[tuple[tuple[Fraction, ...], _Scaled]] = []
        balls: list[SetExpr] = []
        others: list[SetExpr] = []
        for m in members:
            kind = type(m)
            groups = _COORDS[kind](m)
            if not all(groups):
                others.append(m)  # a group without coordinates has no first one
            elif kind in WITHIN:
                balls.append(m)
            elif kind in _POINT_KINDS:
                points.extend(zip(groups, _point_forms(m)))
            else:
                others.append(m)
        points.sort(key=lambda pt: pt[0][0])
        balls.sort(key=lambda b: b.center[0])
        self.points = frozenset(form for _, form in points)
        self.point_forms = [form for _, form in points]
        self.reach = reach = max((b.radius for b in balls), default=0)
        self.balls = balls
        self.scale = s = -(-reach.denominator // reach.numerator) if balls else 1
        spans = [_around(b.scaled, b.scaled, reach) for b in balls]  # c_1 -+ R
        self.ball_floors = [lo * s // den for lo, den, _, _ in spans]
        self.ball_tops = [hi * s // den for _, _, hi, den in spans]
        self.arities = {len(X) for X, _ in self.point_forms} | {len(b.center) for b in balls}
        self.others = tuple(others)

    @cached_property
    def members(self) -> frozenset[SetExpr]:
        """Every member, as a set."""
        return frozenset(self._members)

    def points_between(self, q: _Scaled, r: Fraction) -> list[_Scaled]:
        """The forms of the points with |x_1 - y_1| <= r, y of form q: two
        bisections, each comparing x_1 with an end of the slab on integers."""
        lo, den, hi, _ = _around(q, q, r)  # the slab is [lo/den, hi/den]
        forms = self.point_forms
        return forms[bisect_left(forms, True, key=lambda p: p[0][0] * den >= lo * p[1]):
                     bisect_left(forms, True, key=lambda p: p[0][0] * den > hi * p[1])]

    def balls_near(self, q: _Scaled, r: Fraction = 0) -> list[SetExpr]:
        """The balls that may meet the slab |x_1 - y_1| <= r around the
        point y of scaled form q: every ball with |c_1 - y_1| <= r + R, and
        at most those within 1/s more."""
        (lo, den, hi, _), s = _around(q, q, r), self.scale
        return self.balls[bisect_left(self.ball_tops, lo * s // den):
                          bisect_right(self.ball_floors, hi * s // den)]


# The kinds a UnionIndex places, and the index of a union with none of them
_INDEXED, _BARE = frozenset((*_POINT_KINDS, *WITHIN)), UnionIndex(())

# --- membership tests ------------------------------------------------------------
# A test reads a query point as its geometry._scaled form (X, d).  For
# rational coordinates in lowest terms that form is canonical,
# gcd(X_1, ..., X_k, d) = 1, so two points are equal exactly when their
# forms are.
#
# Beside its test, a node's record holds the sorted distinct arities of its
# coordinate groups and its support: the span of first coordinates outside
# which the test never answers IN, and whether it can ever answer OUT.  A
# span is [a/b, c/g], held as the integers (a, b, c, g) with b, g > 0 and
# compared by cross-multiplying, as a query form is; or NOWHERE when the
# test never answers IN, or ANYWHERE when no interval bounds it.

_Test = Callable[[_Scaled], Verdict]

NOWHERE = "nowhere"
ANYWHERE = "anywhere"


def _compiled(e: SetExpr) -> tuple:
    """e's record, (test, arities, span, may_out), built on first use from
    its ``_MEMBER_TESTS`` row.  A value that is not a node raises TypeError."""
    build = _MEMBER_TESTS[type(e)]
    found = getattr(e, "_member_test", None)  # most calls build, so no try
    if found is None:
        found = build(e)
        object.__setattr__(e, "_member_test", found)
    return found


def _distinct(arities: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(arities)))


def _low(span: tuple[int, int, int, int]) -> Fraction:
    return Fraction(span[0], span[1])


def _high(span: tuple[int, int, int, int]) -> Fraction:
    return Fraction(span[2], span[3])


def _meet(spans: Sequence) -> object:
    """The span of an intersection: where every member's test may answer IN.
    Its ends are the bounded spans' highest low end and lowest high end, the
    first of equal ends kept."""
    if NOWHERE in spans:
        return NOWHERE
    bounded = [span for span in spans if span is not ANYWHERE]
    if not bounded:
        return ANYWHERE
    lo, hi = max(bounded, key=_low), min(bounded, key=_high)
    return NOWHERE if _low(lo) > _high(hi) else lo[:2] + hi[2:]


def _hull(spans: Sequence) -> object:
    """The span of a union: where some member's test may answer IN.  Its
    ends are the bounded spans' lowest low end and highest high end, the
    first of equal ends kept."""
    if ANYWHERE in spans:
        return ANYWHERE
    bounded = [span for span in spans if span is not NOWHERE]
    if not bounded:
        return NOWHERE
    return min(bounded, key=_low)[:2] + max(bounded, key=_high)[2:]


def _around(lo: _Scaled, hi: _Scaled, r: Fraction) -> tuple[int, int, int, int]:
    """The span from the first coordinate of the form lo less |r| to that
    of the form hi plus |r|."""
    n, k = abs(r.numerator), r.denominator
    (X, d), (Y, e) = lo, hi
    return X[0] * k - n * d, d * k, Y[0] * k + n * e, e * k


def _symbolic(test: _Test, span, may_out: bool):
    """The row of a leaf without coordinates: one record for all its kind."""
    found = (test, (), span, may_out)
    return lambda e: found


def _cantor_test(q: _Scaled) -> Verdict:
    X, d = q
    return IN if not any(X[1:]) and _cantor_meets(X[0], X[0], d) else OUT


def _points_test(e: SetExpr):
    # (a point without coordinates has no span: its tree fails the arity check)
    groups, forms = _COORDS[type(e)](e), frozenset(_point_forms(e))
    firsts = [g[0] for g in groups if g]
    span = NOWHERE
    if firsts:
        lo, hi = min(firsts), max(firsts)
        span = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return (lambda q: IN if q in forms else OUT), _distinct(map(len, groups)), span, True


def _ball_test(e: SetExpr):
    form, radius, within = e.scaled, e.radius, WITHIN[type(e)]
    span = _around(form, form, radius) if e.center else NOWHERE
    return ((lambda q: IN if within(_sq_sign(form, q, radius), 0) else OUT),
            (len(e.center),), span, True)


def _complement_test(e: Complement):
    body, arities, span, may_out = _compiled(e.body)

    def test(q: _Scaled) -> Verdict:
        v = body(q)
        return OUT if v is IN else IN if v is OUT else UNKNOWN

    # In wherever the body may be Out, which no span bounds; Out only where
    # the body may be In
    return test, arities, ANYWHERE if may_out else NOWHERE, span is not NOWHERE


def _union_test(e: Union):
    """One set lookup among the union's points, then the balls near the
    query along the first axis, then the others in order: every member of a
    union without a point or ball, which reads no index.  The others' records
    are read as columns by map and zip, which add no frame per level."""
    index = e.index if any(type(m) in _INDEXED for m in e.members) else _BARE
    members = e.members if index is _BARE else index.others
    others, arities, spans, outs = list(zip(*map(_compiled, members))) or [()] * 4
    points, balls = index.points, index.balls

    def test(q: _Scaled) -> Verdict:
        if points and q in points:
            return IN
        if balls:
            for b in index.balls_near(q):
                if WITHIN[type(b)](_sq_sign(b.scaled, q, b.radius), 0):
                    return IN
        unknown = False
        for other in others:
            v = other(q)
            if v is IN:
                return IN
            if v is UNKNOWN:
                unknown = True
        return UNKNOWN if unknown else OUT

    if points:
        (X, d), (Y, g) = index.point_forms[0], index.point_forms[-1]
        spans += ((X[0], d, Y[0], g),)
    if balls:  # each within R of its center, between the outer two centers
        spans += (_around(balls[0].scaled, balls[-1].scaled, index.reach),)
    return test, _distinct(itertools.chain(index.arities, *arities)), _hull(spans), all(outs)


def _inter_test(e: Inter):
    members, arities, spans, outs = list(zip(*map(_compiled, e.members))) or [()] * 4

    def test(q: _Scaled) -> Verdict:
        unknown = False
        for part in members:
            v = part(q)
            if v is OUT:
                return OUT
            if v is UNKNOWN:
                unknown = True
        return UNKNOWN if unknown else IN

    return test, _distinct(itertools.chain(*arities)), _meet(spans), any(outs)


# Each row builds a node's record, reading its members' records.
_MEMBER_TESTS = NodeTable({
    Empty: _symbolic(lambda q: OUT, NOWHERE, True),
    All: _symbolic(lambda q: IN, ANYWHERE, False),
    # every representable point has rational coordinates
    Rationals: _symbolic(lambda q: IN, ANYWHERE, False),
    Lattice: _symbolic(lambda q: IN if q[1] == 1 else OUT, ANYWHERE, True),
    Cantor: _symbolic(_cantor_test, (0, 1, 1, 1), True),
    Bernstein: _symbolic(lambda q: UNKNOWN, NOWHERE, False),
    **dict.fromkeys(_POINT_KINDS, _points_test),
    ClosedBall: _ball_test,
    OpenBall: _ball_test,
    Complement: _complement_test,
    Union: _union_test,
    Inter: _inter_test,
})


def member_test(e: SetExpr, m: int) -> _Test:
    """e's membership test for points of m coordinates, read as their
    ``geometry._scaled`` forms.  A query without coordinates (m = 0), or a
    tree with a coordinate group of another arity than m, raises
    DimensionMismatch; a tree too deep to walk, ValueError."""
    if not m:
        raise _no_coordinates()
    try:
        test, arities, _, _ = _compiled(e)
    except RecursionError:
        raise _too_deep() from None
    for found in arities:
        if found != m:
            raise DimensionMismatch(f"dimension {found} vs {m}")
    return test


def member(e: SetExpr, p: Sequence[Fraction]) -> Verdict:
    """Three-valued membership of a boundary point (n-1 rational coordinates,
    each read by :func:`geometry.rat`, so a float raises TypeError).

    The tree is taken as given, not normalised or checked: for a tree that
    :func:`normalize` refuses the answer means nothing.  A tree too deep to
    walk within the recursion limit raises ValueError, as in
    :func:`normalize`.  A point that is no sequence, or is a string, raises
    TypeError."""
    if isinstance(p, (str, bytes, bytearray)) or not isinstance(p, Sequence):
        raise TypeError(f"point must be a sequence of rationals, not {type(p).__name__}")
    coords = tuple(map(rat, p))
    test = member_test(e, len(coords))
    try:
        return test(_scaled(coords))
    except RecursionError:
        raise _too_deep() from None


# --- witness search ----------------------------------------------------------

_CANTOR_SAMPLES = tuple(map(Fraction, "0 1 1/3 2/3 1/4 3/4 1/9 2/9 7/9 8/9".split()))
_PROBE_VALUES = tuple(map(Fraction, "0 1 -1 2 -2 1/2 -1/2 3/2 1/3 5".split()))


def on_axis(v: Fraction, m: int) -> tuple[Fraction, ...]:
    """The point (v, 0, ..., 0) with m coordinates."""
    return (v,) + (Fraction(0),) * (m - 1)


def _shifted(form: _Scaled, i: int, u: int, v: int) -> _Scaled:
    """The form of the point moved by u/v, v > 0, along axis i, canonical as
    ``geometry._scaled`` forms it when the form is: over the denominator d*v,
    less the gcd of every integer of the form."""
    X, d = form
    N = [x * v for x in X]
    N[i] += u * d
    g = gcd(*N, d * v)
    return tuple([x // g for x in N]), d * v // g


def _ball_points(e: SetExpr, m: int) -> list[_Scaled]:
    """A ball's center and the points half a radius off it along each axis."""
    q, n, k = e.scaled, e.radius.numerator, e.radius.denominator
    return [q, *(_shifted(q, i, s * n, 2 * k) for i in range(len(q[0])) for s in (1, -1))]


# The first coordinates v of the points (v, 0, ..., 0) each leaf without
# fields offers a search; lattice offers (1, ..., 1) as well.
_AXIS_VALUES = {
    **dict.fromkeys((All, Rationals), (Fraction(0), Fraction(1, 2))),
    Lattice: (Fraction(0), Fraction(1), Fraction(-1)),
    Cantor: _CANTOR_SAMPLES,
}


@lru_cache(maxsize=128)
def _plain_forms(kind: type, m: int) -> tuple[_Scaled, ...]:
    """The candidates of a leaf without fields in R^m, formed once per arity."""
    zeros = (0,) * (m - 1)
    forms = tuple([((v.numerator, *zeros), v.denominator) for v in _AXIS_VALUES[kind]])
    return forms + (((1,) * m, 1),) if kind is Lattice else forms


# The witness candidates each kind of leaf offers a search in R^m, as
# canonical forms; some may have another arity than m.
_POINT_CANDIDATES = NodeTable({
    **dict.fromkeys((Empty, Bernstein), lambda e, m: ()),
    **dict.fromkeys(_AXIS_VALUES, lambda e, m: _plain_forms(type(e), m)),
    **dict.fromkeys(_POINT_KINDS, lambda e, m: _point_forms(e)),
    OpenBall: _ball_points,
    # a closed ball also holds the point of its sphere along the first axis
    ClosedBall: lambda e, m: _ball_points(e, m) + [
        _shifted(e.scaled, 0, e.radius.numerator, e.radius.denominator)],
})


def _structural(e: SetExpr, m: int) -> Iterator[_Scaled]:
    """The forms of e's structural candidates in R^m, in order, each once:
    the leaves' rows in pre-order, a leaf harvested only when the reader
    gets past the one before it.  Forms are canonical, so equal points have
    equal forms."""
    seen = set()
    for node in leaves(e):
        for form in _POINT_CANDIDATES[type(node)](node, m):
            if form not in seen and len(form[0]) == m:
                seen.add(form)
                yield form


def structural_candidates(e: SetExpr, m: int) -> list[tuple[Fraction, ...]]:
    """The structural witness candidates of the tree in R^m, in the order a
    search tries them, each once, as tuples of ``Fraction``s: the forms
    ``_structural`` harvests, unscaled.  A leaf's candidates of another
    arity than m are left out."""
    return list(map(_unscaled, _structural(e, m)))


# Candidates a witness search tries unless told otherwise, the default of
# find_witness, of descriptive's subset and compare_topologies and of the
# CLI's --budget.
DEFAULT_BUDGET = 1000


def _check_search(budget: int, seed) -> None:
    """Refuse a budget that is not an int (a bool included), one below 1 and
    one above sys.maxsize, which no search can be cut at, and a seed that
    cannot key a cache: the one budget and seed rule of find_witness and of
    subset, kept before any rule runs."""
    _check_int(budget, "budget")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if budget > sys.maxsize:
        raise ValueError(f"budget must be at most {sys.maxsize}")
    hash(seed)


# The probes depend only on the arity m and the random candidates on the
# seed and m, so the probes and each seed's start state are formed once per
# process.  Both caches are bounded, so a session of many seeds keeps the
# latest few.

@lru_cache(maxsize=32)
def _probes(m: int) -> tuple[_Scaled, ...]:
    """The scaled forms of the fixed probe points of R^m."""
    probes = [on_axis(v, m) for v in _PROBE_VALUES]
    for v in (Fraction(1), Fraction(-1), Fraction(1, 2)):
        probes.append((v,) * m)
    if m > 1:
        for v in (Fraction(1), Fraction(2)):
            probes.append((Fraction(0),) * (m - 1) + (v,))
    return tuple(map(_scaled, probes))


class Draws(random.Random):
    """random.Random with ``randint`` drawn in one frame: the stdlib's own
    getrandbits rejection loop, inlined, so every seed draws what a
    random.Random of the same state draws.  An empty range raises
    ValueError: at n = 0 the loop would never end."""

    def randint(self, a: int, b: int) -> int:
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r


# typed: seeds that compare equal may seed different draws (random.Random
# reads an int by its absolute value, a float by its hash: 10**20 and 1e20,
# -5 and -5.0), and an answer must not depend on which was searched first
@lru_cache(maxsize=32, typed=True)
def _start(seed) -> tuple:
    """The state random.Random(seed) starts from, formed once per seed, so
    that ``None`` reads the operating system once per process."""
    return random.Random(seed).getstate()


def _stream(seed, m: int) -> Iterator[_Scaled]:
    """The random witness candidates of one seed in R^m, in the order every
    search tries them, without end: per coordinate a/b with
    a = randint(-300, 300) and b = randint(1, 100), read in lowest terms,
    the point as its integer form (X, d), drawn as the reader reaches it.
    The draws go through ``Draws``, which draws exactly what random.Random
    draws."""
    rng = Draws()
    rng.setstate(_start(seed))
    while True:
        pairs = []
        for _ in range(m):
            a, b = rng.randint(-300, 300), rng.randint(1, 100)
            g = gcd(a, b)
            pairs.append((a // g, b // g))
        yield _form(pairs)


def _within(span, test: _Test) -> Callable[[_Scaled], Optional[Verdict]]:
    """test, for the forms whose first coordinate lies in the span; a form
    outside it gets no verdict (None) and is not tested, since the test
    never answers IN there."""
    a, b, c, g = span

    def pruned(q: _Scaled) -> Optional[Verdict]:
        x, d = q[0][0], q[1]
        return test(q) if a * d <= x * b and x * g <= c * d else None

    return pruned


def _first_in(e: SetExpr, m: int, forms: Iterable[_Scaled]) -> Optional[_Scaled]:
    """The first of the forms that e's test, for points of m coordinates,
    puts In, or None: the one search loop.  The test is built once, with
    its support; a tree whose test is nowhere In returns at once, before
    the forms are read, and a form outside a bounded span is not tested."""
    test = member_test(e, m)
    span = _compiled(e)[2]  # built beside the test
    if span is NOWHERE:
        return None
    if span is not ANYWHERE:
        test = _within(span, test)
    try:
        for form in forms:
            if test(form) is IN:
                return form
    except RecursionError:
        raise _too_deep() from None
    return None


def find_witness(
    e: SetExpr, budget: int = DEFAULT_BUDGET, seed: int = 0, dimension: int | None = None
) -> Optional[tuple[Fraction, ...]]:
    """Search for a point with membership In among budget candidates: the
    structural candidates of the tree, then fixed probe points, then seeded
    random rationals.  Absence of a witness proves nothing.  The tree is
    taken as given, as by :func:`member`.

    The search is ``_first_in`` on one stream of integer forms cut at the
    budget, so a candidate it skips outside the span still counts against
    the budget.  The structural candidates are the forms ``_structural``
    harvests leaf by leaf, so a search that stops early reads no later
    leaf's row.  The probes are formed once per arity (``_probes``), and
    the random candidates are drawn as the search reads them (``_stream``),
    only once the structural candidates and the probes are spent, from the
    seed's start state, formed once per process (``_start``).  The witness
    is returned as a tuple of ``Fraction``s, whatever numbers the tree
    holds.  The seed is a key of the start states' cache: one that is not
    hashable raises TypeError, and ``None`` reads the operating system once
    per process, not once per search, so two searches with it answer alike.
    A budget that is not an ``int`` raises TypeError, and one below 1 or
    above ``sys.maxsize`` ValueError.  A dimension that is not an ``int``
    raises TypeError, and one below 2 ValueError."""
    _check_search(budget, seed)
    if dimension is not None:
        check_dimension(dimension)
    m = (dimension - 1) if dimension is not None else (arity(e) or 1)
    forms = itertools.chain(_structural(e, m), _probes(m), _stream(seed, m))
    found = _first_in(e, m, itertools.islice(forms, budget))
    return None if found is None else _unscaled(found)


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
            return complement(build(depth - 1))
        members = [build(depth - 1) for _ in range(rng.randint(2, 3))]
        return join(Union if roll == 4 else Inter, members)

    return build(max_depth)  # normal, and every arity is m
