import ast
import enum
import gc
import random
import re
import sys
import threading
from fractions import Fraction as Fr
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from niemytzki import setdsl
from niemytzki.geometry import _scaled
from niemytzki.setdsl import (
    ANYWHERE,
    DEFAULT_BUDGET,
    IN,
    MAX_TREE_DEPTH,
    NOWHERE,
    OUT,
    UNKNOWN,
    All,
    Bernstein,
    Cantor,
    ClosedBall,
    Complement,
    Draws,
    Empty,
    FiniteSet,
    Inter,
    Lattice,
    OpenBall,
    ParseError,
    Rationals,
    SinglePoint,
    Union,
    _Parser,
    _cantor_meets,
    _compiled,
    _hull,
    _meet,
    _probes,
    _start,
    _stream,
    complement,
    complement_text,
    find_witness,
    join,
    leaves,
    member,
    normalize,
    parse,
    parse_rational,
    random_expr,
    structural_candidates,
    to_text,
)
from oracles import (
    cantor_brute,
    cantor_meets_ref,
    find_witness_ref,
    probes_ref,
    random_forms_ref,
    ref_tree,
    structural_candidates_ref,
    tokens_ref,
    tree_member_ref,
)
from test_golden import PARSE_FIXED, _mutated, _wide_union


class TestParser:
    def test_complement_of_rationals(self):
        assert parse("!rationals") == Complement(Rationals())

    def test_union_of_cantor_and_point(self):
        assert parse("cantor | point(2)") == Union((Cantor(), SinglePoint((Fr(2),))))

    def test_annulus_in_dimension_three(self):
        e = parse("cball(0,0;1) & !oball(0,0;1/2)", 3)
        assert e == Inter(
            (
                ClosedBall((Fr(0), Fr(0)), Fr(1)),
                Complement(OpenBall((Fr(0), Fr(0)), Fr(1, 2))),
            )
        )

    @pytest.mark.parametrize("text, offset", [
        ("point(\u0663)", 6),  # ARABIC-INDIC DIGIT THREE
        ("point(1/\u0664)", 8),
        ("cball(0;\uff13)", 8),  # FULLWIDTH DIGIT THREE
        ("finite{1;-\u0967}", 9),  # DEVANAGARI DIGIT ONE: the sign reads no digit
    ])
    def test_digits_are_ascii(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"unexpected character {text[offset]!r} (at offset {offset})"
        assert info.value.position == offset
        with pytest.raises(ParseError, match="unexpected character"):
            parse_rational(text[offset:])

    def test_finite_set_with_semicolons(self):
        e = parse("finite{0;1;-3/2}")
        assert e == FiniteSet(((Fr(0),), (Fr(1),), (Fr(-3, 2),)))

    def test_precedence_and_parentheses(self):
        assert parse("empty | cantor & lattice") == Union(
            (Empty(), Inter((Cantor(), Lattice())))
        )
        assert parse("(empty | cantor) & lattice") == Inter(
            (Union((Empty(), Cantor())), Lattice())
        )

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("cantor | ?")
        assert err.value.position == 9

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse("point(1,2)", 2)  # needs exactly one coordinate
        parse("point(1,2)", 3)

    def test_radius_must_be_positive(self):
        with pytest.raises(ParseError):
            parse("cball(0;0)")
        with pytest.raises(ParseError):
            parse("oball(0;-1/2)")

    def test_unknown_primitive(self):
        with pytest.raises(ParseError):
            parse("nowhere")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("cantor cantor")


def _tokens(text: str):
    """What the tokenizer reads: the token texts, or (c, offset) for the
    character it refuses, as tokens_ref gives them."""
    try:
        return setdsl._tokenize(text)[:-1]  # less the closing ""
    except ParseError as err:
        c = text[err.position]
        assert str(err) == f"unexpected character {c!r} (at offset {err.position})"
        return c, err.position


@st.composite
def _mutated_text(draw):
    """(text, n): the text of a seeded random tree at n = 2, 3 or 4, mutated
    as the parse digest's texts are."""
    n = draw(st.sampled_from((2, 3, 4)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return _mutated(rng, to_text(random_expr(rng, n))), n


class TestTokenizer:
    """The one-pass tokenizer reads what a scanner without re reads."""

    @pytest.mark.parametrize("text", ["1\x1c/2", "\u2003all", "point(\u0663)", "1--2", "a-",
                                      "-", "", "   ", "cball(-1,0;1/2)|!x"])
    def test_agrees_with_the_reference_scanner(self, text):
        assert _tokens(text) == tokens_ref(text)

    def test_re_whitespace_is_isspace(self):
        # tokens_ref skips str.isspace() characters, the tokenizer re's \s
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

    @settings(max_examples=300)
    @given(_mutated_text())
    def test_agrees_with_the_reference_scanner_on_mutated_texts(self, case):
        text, _ = case
        assert _tokens(text) == tokens_ref(text)


def _a_number_at(text: str, pos: int) -> bool:
    return re.match(r"-?[0-9]", text[pos:]) is not None


def _after(text: str, pos: int) -> str:
    """The last character before pos that is not whitespace."""
    return text[:pos].rstrip()[-1:]


# A token as a message quotes it: whole, or its first 64 characters and its length
_QUOTED = r"('[^']*')(?: \(the first 64 of (\d+) characters\))?"


def _names(text: str, pos: int, quoted: str, length: int | None = None) -> bool:
    """Whether the token at pos starts with the quoted text, and, where the
    message cut it, is that long and was cut to its first 64 characters."""
    return text.startswith(quoted, pos) and (
        length is None or len(quoted) == 64 < length == len(tokens_ref(text[pos:])[0]))


# (kind, message pattern, whether the offset points at what the message
# names), the named text read from the pattern's groups if it has any
_OFFSET_RULES = (
    ("character", r"unexpected character (.+)", lambda text, pos, c: text[pos] == c),
    ("denominator-expected", r"expected a denominator, found " + _QUOTED,
     lambda text, pos, *named: _names(text, pos, *named) and _after(text, pos) == "/"),
    ("expected", r"expected .+, found " + _QUOTED, _names),
    ("trailing", r"trailing input " + _QUOTED, _names),
    ("unknown", r"unknown primitive " + _QUOTED, _names),
    ("end", r"unexpected end of input(?:, expected '.')?", lambda text, pos: pos == len(text)),
    ("nesting", r"expression nested deeper than \d+ levels", lambda text, pos: text[pos] in "(!"),
    ("arity", r"expected \d+ coordinate\(s\) for this dimension, got \d+",
     lambda text, pos: _a_number_at(text, pos) and _after(text, pos) in "({;"),
    ("literal", r"integer literal (?:longer than \d+ digits|too long)", _a_number_at),
    ("denominator", r"denominator must be a positive integer",
     lambda text, pos: _a_number_at(text, pos) and _after(text, pos) == "/"),
    ("radius", r"radius must be positive",
     lambda text, pos: _a_number_at(text, pos) and _after(text, pos) == ";"),
)


def _checked_offset(text: str, err: ParseError) -> str:
    """The kind of err, once its offset is checked against its message."""
    pos = err.position
    message = str(err).removesuffix(f" (at offset {pos})")
    for kind, pattern, holds in _OFFSET_RULES:
        found = re.fullmatch(pattern, message)
        if found:
            named = [ast.literal_eval(g) for g in found.groups() if g is not None]
            assert holds(text, pos, *named), (text, message, pos)
            return kind
    raise AssertionError(f"no rule for {message!r}")


@settings(max_examples=300)
@given(_mutated_text())
def test_every_error_offset_points_at_what_it_names(case):
    text, n = case
    try:
        parse(text, n)
    except ParseError as err:
        _checked_offset(text, err)


def test_every_offset_rule_is_met():
    """The parse digest's texts reach every rule of _OFFSET_RULES."""
    rng, seen = random.Random(2405), set()
    for n in (2, 3, 4):
        for text in (*PARSE_FIXED, *(_mutated(rng, to_text(random_expr(rng, n)))
                                     for _ in range(400))):
            try:
                parse(text, n)
            except ParseError as err:
                seen.add(_checked_offset(text, err))
    assert seen == {kind for kind, _, _ in _OFFSET_RULES}


class TestParseTable:
    """parse returns the tree alive for the same text and dimension, and its
    table holds no tree alive itself."""

    TEXT = "point(17/3) | cball(-5;2/7) & !lattice"

    def test_one_text_and_dimension_give_one_tree_while_it_is_held(self):
        tree = parse(self.TEXT, 2)
        assert parse(self.TEXT, 2) is tree
        with pytest.raises(TypeError, match="^dimension must be an int, not float$"):
            parse(self.TEXT, 2.0)  # refused, though its key equals (text, 2)
        assert normalize(tree) is tree
        assert parse(self.TEXT.replace(" ", ""), 2) == tree
        assert parse("cantor", 3) is not parse("cantor", 2)

    def test_bad_text_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse("cantor | point(1;2)", 2)
            assert err.value.position == 16
        assert ("cantor | point(1;2)", 2) not in setdsl._PARSED

    def test_a_held_tree_is_not_read_at_another_dimension(self):
        tree = parse("point(1)", 2)
        with pytest.raises(ParseError):
            parse("point(1)", 3)
        assert parse("point(1)", 2) is tree

    def test_trees_alive_together_share_their_coordinate_leaves(self):
        a = parse("point(7919/104729) | cantor", 2)
        b = parse("point(7919/104729) & all", 2)
        leaf = a.members[0]
        assert b.members[0] is leaf
        c = parse("finite{1/7919;2} | cball(-7919;1/3) | oball(7919;2/3) | cantor", 2)
        d = parse("!(oball(7919;2/3) & cball(-7919;1/3)) & finite{1/7919;2}", 2)
        shared = {id(e) for e in leaves(c) if type(e) is not Cantor}
        assert len(shared) == 3 and shared == {id(e) for e in leaves(d)}
        assert sum(e is leaf for e in setdsl._PARSED.values()) == 1  # its leaf entry
        gone = SinglePoint((Fr(7919, 104729),))
        del a, b, leaf
        gc.collect()
        assert not [e for e in setdsl._PARSED.values() if e == gone]

    def test_a_held_leaf_leaves_each_error_as_it_was(self):
        held = [parse("cball(0;1)", 2), parse("point(1) | cantor", 2)]
        with pytest.raises(ParseError, match=r"^radius must be positive \(at offset 8\)$"):
            parse("cball(0;0)", 2)
        # a leaf's entry is keyed by its arity too: the n = 2 leaf is not
        # read at n = 3, where its text lacks a coordinate
        for text in ("point(1)", "point(1) | cantor"):
            with pytest.raises(ParseError, match=r"^expected 2 coordinate\(s\) for this "
                                                 r"dimension, got 1 \(at offset 6\)$"):
                parse(text, 3)
        assert parse("cantor | point(1)", 2).members[1] is held[1].members[0]

    def test_a_released_tree_leaves_no_entry(self):
        text = "finite{3/11;-2} | oball(9/13;1/2)"
        tree = parse(text, 2)
        assert member(tree, (Fr(3, 11),)) is IN  # builds its index and tests
        assert setdsl._PARSED[text, 2] is tree
        enabled = gc.isenabled()
        gc.disable()
        try:  # no tree holds a reference cycle, so its last release frees it
            del tree
            assert (text, 2) not in setdsl._PARSED
        finally:
            if enabled:
                gc.enable()


class TestNormalize:
    def test_double_complement_vanishes(self):
        assert parse("!!cantor") == Cantor()

    def test_complemented_constants(self):
        assert parse("!all") == Empty()
        assert parse("!empty") == All()

    def test_unions_flatten_and_dedupe(self):
        e = normalize(Union((Cantor(), Union((Lattice(), Cantor())))))
        assert e == Union((Cantor(), Lattice()))

    def test_singleton_collapses(self):
        assert normalize(Union((Cantor(), Cantor()))) == Cantor()


def _seeded_corpus():
    rng = random.Random(11)
    return [(random_expr(rng, dim, max_depth=4), dim) for _ in range(150) for dim in (2, 3)]


class TestSmartConstructors:
    """complement and join build from normal parts what normalize would."""

    def test_complement_matches_normalize(self):
        for e, _ in _seeded_corpus():
            assert complement(e) == normalize(Complement(e))

    def test_complement_text_matches_printing_the_complement(self):
        extra = [All(), Empty(), Complement(Cantor()), parse("!(cantor | lattice)"),
                 parse("!(cantor & !lattice) & rationals")]
        for e in [e for e, _ in _seeded_corpus()] + extra:
            assert complement_text(e, to_text(e)) == to_text(complement(e))

    def test_gap_matches_normalize(self):
        corpus = _seeded_corpus()
        for (e1, d1), (e2, d2) in zip(corpus, corpus[2:]):
            assert d1 == d2
            want = normalize(Inter((e1, Complement(e2))))
            assert join(Inter, (e1, complement(e2))) == want

    def test_join_of_one_normal_member_is_that_member(self):
        assert join(Union, (Union((Cantor(), Lattice())),)) == Union((Cantor(), Lattice()))
        assert join(Inter, (Cantor(), Cantor())) == Cantor()

    def test_join_needs_a_member(self):
        with pytest.raises(ValueError):
            join(Union, ())


def _reference_leaves(e):
    if isinstance(e, Complement):
        return _reference_leaves(e.body)
    if isinstance(e, (Union, Inter)):
        return [leaf for m in e.members for leaf in _reference_leaves(m)]
    return [e]


class TestLeaves:
    def test_matches_a_recursive_walk(self):
        for e, _ in _seeded_corpus():
            assert list(leaves(e)) == _reference_leaves(e)

    def test_pre_order_left_to_right(self):
        e = parse("cantor | !(lattice & point(1)) | bernstein")
        assert list(leaves(e)) == [Cantor(), Lattice(), SinglePoint((Fr(1),)), Bernstein()]


class TestLimits:
    CAP = _Parser.MAX_DEPTH

    def test_nesting_at_the_cap_parses(self):
        assert parse("(" * self.CAP + "cantor" + ")" * self.CAP) == Cantor()
        assert parse("!" * self.CAP + "cantor") == Cantor()

    def test_nesting_past_the_cap_reports_the_offset(self):
        with pytest.raises(ParseError) as err:
            parse("(" * (self.CAP + 1) + "cantor" + ")" * (self.CAP + 1))
        assert err.value.position == self.CAP
        with pytest.raises(ParseError) as err:
            parse("cantor | " + "!" * (self.CAP + 1) + "cantor")
        assert err.value.position == 9 + self.CAP

    @pytest.mark.parametrize("text, offset, kind, cut", [
        ("cantor " + "a" * 100_000, 7, "trailing", True),
        ("b" * 100_000, 0, "unknown", True),
        ("point(" + "c" * 100_000 + ")", 6, "expected", True),
        ("point(1/" + "d" * 100_000 + ")", 8, "denominator-expected", True),
        ("cantor | " + "e" * 65, 9, "unknown", True),
        ("cantor | " + "e" * 64, 9, "unknown", False),
    ], ids=["trailing", "unknown", "expected", "denominator", "cap-plus-one", "at-cap"])
    def test_a_long_token_is_quoted_cut_at_its_offset(self, text, offset, kind, cut):
        with pytest.raises(ParseError) as err:
            parse(text)
        message = str(err.value)
        assert err.value.position == offset and len(message) < 200
        assert ("(the first 64 of " in message) is cut
        assert _checked_offset(text, err.value) == kind

    def test_overlong_integer_reports_the_offset(self):
        with pytest.raises(ParseError) as err:
            parse("cball(0;" + "9" * 5000 + ")")
        assert err.value.position == 8

    def test_longest_integer_parses(self):
        digits = "9" * _Parser.MAX_DIGITS
        assert parse(f"cball(0;{digits})") == ClosedBall((Fr(0),), Fr(int(digits)))
        with pytest.raises(ParseError):
            parse(f"cball(0;{digits}9)")

    @pytest.mark.parametrize("e", [
        SinglePoint((Fr(1, 10**_Parser.MAX_DIGITS),)),
        FiniteSet(((Fr(0),), (Fr(-(10**_Parser.MAX_DIGITS), 7),))),
        OpenBall((Fr(0),), Fr(10**_Parser.MAX_DIGITS)),
    ], ids=["point-denominator", "finite-numerator", "radius"])
    def test_normalize_refuses_a_term_longer_than_the_literal_cap(self, e):
        with pytest.raises(ValueError, match=f"^a numerator or denominator longer than "
                                             f"{_Parser.MAX_DIGITS} digits$"):
            normalize(e)

    def test_normalize_takes_terms_at_the_literal_cap(self):
        big = 10**_Parser.MAX_DIGITS - 1
        for e in (SinglePoint((Fr(-big, big - 1),)), FiniteSet(((Fr(1),), (big,))),
                  ClosedBall((Fr(0),), Fr(big, big - 1))):
            assert parse(to_text(normalize(e))) == e

    @staticmethod
    def _tree(levels: int, *wraps):
        """``levels`` connectives deep, built in Python, not parsed: each
        level wraps the tree so far with the next of ``wraps`` in turn."""
        e = Cantor()
        for i in range(levels):
            e = wraps[i % len(wraps)](SinglePoint((Fr(i),)), e)
        return e

    @staticmethod
    def _deepest_text(cap: int) -> str:
        """A union and an intersection inside each of ``cap`` parentheses."""
        text = "point(0) | point(1) & cantor"
        for i in range(cap):
            text = f"point({i}) | point({i + 1}) & ({text})"
        return text

    def test_normalize_refuses_a_tree_deeper_than_the_bound(self):
        # point(0) & !(point(1) & !(...)): 600 levels, 1200 connectives
        e = self._tree(1200, lambda p, t: Complement(t), lambda p, t: Inter((p, t)))
        with pytest.raises(ValueError, match=f"deeper than {MAX_TREE_DEPTH} levels"):
            normalize(e)

    def test_normalize_takes_a_tree_at_the_bound(self):
        for wraps in ((lambda p, t: Inter((p, t)), lambda p, t: Union((p, t))),
                      (lambda p, t: Complement(t), lambda p, t: Inter((p, t)))):
            e = self._tree(MAX_TREE_DEPTH, *wraps)
            assert normalize(e) == e
            with pytest.raises(ValueError):
                normalize(Inter((SinglePoint((Fr(-1),)), e)))

    def test_the_bound_is_the_deepest_parse(self):
        e = parse(self._deepest_text(self.CAP))
        assert normalize(e) == e
        with pytest.raises(ValueError):
            normalize(Complement(e))
        with pytest.raises(ParseError):
            parse(self._deepest_text(self.CAP + 1))

    def test_normalize_takes_every_at_cap_parse(self):
        complemented_union = "cantor"
        for i in range(self.CAP // 2):
            complemented_union = f"point({i}) | !({complemented_union})"
        for text in ("!" * self.CAP + "cantor",
                     "!(point(0) | " * (self.CAP // 2) + "cantor" + ")" * (self.CAP // 2),
                     complemented_union, self._deepest_text(self.CAP)):
            assert normalize(parse(text)) == parse(text)


class TestRationalLiterals:
    @pytest.mark.parametrize("text,value", [
        ("3", Fr(3)), ("-3", Fr(-3)), ("2/4", Fr(1, 2)), (" -1 / 2 ", Fr(-1, 2)),
    ])
    def test_rat_grammar(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "", "1e5", "1e30000000", "0.5", ".5", "+1", "1/0", "1/-2", "1/2/3", "inf", "nan",
        "9" * 4301,
    ])
    def test_other_forms_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)


class TestRoundTrip:
    def test_canonical_examples(self):
        for text in (
            "empty",
            "!rationals",
            "cantor | point(2)",
            "cball(0;1) & !oball(0;1/2)",
            "finite{1/2;-3}",
            "!(cantor | lattice)",
            "(all | bernstein) & rationals",
        ):
            e = parse(text)
            assert parse(to_text(e)) == e

    def test_seeded_corpus(self):
        rng = random.Random(7)
        for _ in range(300):
            for dim in (2, 3, 4):
                e = random_expr(rng, dim, max_depth=4)
                assert parse(to_text(e), dim) == e


class TestMembership:
    def test_cantor_quarter_is_in(self):
        # 1/4 = 0.020202...(3)
        assert member(Cantor(), (Fr(1, 4),)) is IN

    def test_cantor_half_is_out(self):
        # 1/2 = 0.111...(3): the digit 1 is unavoidable
        assert member(Cantor(), (Fr(1, 2),)) is OUT

    def test_cantor_endpoints(self):
        for v, want in [(0, IN), (1, IN), ("1/3", IN), ("2/3", IN), ("1/9", IN),
                        ("4/9", OUT), ("5/9", OUT), ("7/9", IN), ("3/4", IN)]:
            assert member(Cantor(), (Fr(v),)) is want, v

    def test_cantor_embedding_needs_zero_tail(self):
        assert member(Cantor(), (Fr(1, 4), Fr(0))) is IN
        assert member(Cantor(), (Fr(1, 4), Fr(1, 5))) is OUT

    def test_every_representable_point_is_rational(self):
        for coords in [(Fr(0),), (Fr(22, 7),), (Fr(-3, 5),)]:
            assert member(Rationals(), coords) is IN
            assert member(Complement(Rationals()), coords) is OUT

    def test_lattice(self):
        assert member(Lattice(), (Fr(-4), Fr(7))) is IN
        assert member(Lattice(), (Fr(1, 2), Fr(7))) is OUT

    def test_bernstein_is_always_unknown(self):
        assert member(Bernstein(), (Fr(0),)) is UNKNOWN
        assert member(Complement(Bernstein()), (Fr(0),)) is UNKNOWN

    def test_balls(self):
        assert member(ClosedBall((Fr(0),), Fr(1)), (Fr(1),)) is IN
        assert member(OpenBall((Fr(0),), Fr(1)), (Fr(1),)) is OUT

    def test_kleene_connectives(self):
        p = (Fr(0),)
        assert member(Union((Bernstein(), All())), p) is IN
        assert member(Inter((Bernstein(), Empty())), p) is OUT
        assert member(Inter((Bernstein(), All())), p) is UNKNOWN

    @pytest.mark.parametrize("text", ["point(1/2)", "finite{0;1/2}", "cball(0;1/2)",
                                      "lattice | point(1/2)", "!cantor & oball(0;1)"])
    def test_coordinates_are_read_as_rationals(self, text):
        e = parse(text)
        assert member(e, ("1/2",)) is member(e, (Fr(1, 2),)) is IN

    @pytest.mark.parametrize("text", ["point(1/2)", "finite{1/2}", "lattice", "cantor",
                                      "cball(0;1)", "oball(0;1) | point(2)", "all"])
    def test_a_float_coordinate_is_refused(self, text):
        with pytest.raises(TypeError, match="not an exact rational"):
            member(parse(text), (0.5,))


_REF_VERDICT = {IN: True, OUT: False, UNKNOWN: None}


@st.composite
def _member_case(draw):
    """(tree, query, point): a seeded random tree at n = 2, 3 or 4 and a
    point, often one of the tree's own witness candidates, whose
    coordinates the query spells as ints, Fractions or "p/q" strings (not
    always in lowest terms)."""
    n = draw(st.sampled_from((2, 3, 4)))
    e = random_expr(random.Random(draw(st.integers(0, 2**32))), n)
    coordinate = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    anywhere = st.tuples(*[coordinate] * (n - 1))
    candidates = structural_candidates(e, n - 1)
    point = draw(st.sampled_from(candidates) | anywhere if candidates else anywhere)
    query = []
    for c in point:
        spelling = draw(st.sampled_from(("int", "fraction", "text")))
        if spelling == "text":
            k = draw(st.integers(1, 4))
            query.append(f"{c.numerator * k}/{c.denominator * k}")
        else:
            query.append(int(c) if spelling == "int" and c.denominator == 1 else c)
    return e, tuple(query), point


@settings(max_examples=500)
@given(_member_case())
def test_member_agrees_with_the_tree_oracle(case):
    e, query, point = case
    assert _REF_VERDICT[member(e, query)] is tree_member_ref(ref_tree(e), point)


# few coordinate values, so that members and leaves repeat
_RAW_VALUE = st.sampled_from((Fr(0), Fr(1), Fr(-1, 2), Fr(3, 4)))


def _raw_trees(m: int):
    """Trees as built in Python, never normalised: double complements,
    complemented constants, a union in a union or an intersection in an
    intersection, repeated and single members.  One leaf in eight is one
    parse refuses: a ball of radius 0 or below, a point with a float
    coordinate or a finite set without points."""
    coords = st.tuples(*[_RAW_VALUE] * m)
    radius = st.sampled_from((Fr(1), Fr(1, 3)))
    accepted = st.one_of(
        st.sampled_from((Empty(), All(), Rationals(), Lattice(), Cantor(), Bernstein())),
        st.builds(SinglePoint, coords),
        st.builds(FiniteSet, st.lists(coords, min_size=1, max_size=3).map(tuple)),
        st.builds(ClosedBall, coords, radius),
        st.builds(OpenBall, coords, radius),
    )
    refused = st.one_of(
        st.builds(lambda kind, c, r: kind(c, r), st.sampled_from((ClosedBall, OpenBall)),
                  coords, st.sampled_from((Fr(0), Fr(-1, 2)))),
        # 1.0 equals the rational 1, so such a point may be a repeated member
        coords.map(lambda c: SinglePoint((1.0,) + c[1:])),
        st.just(FiniteSet(())),
    )
    leaf = st.integers(0, 7).flatmap(lambda i: refused if i == 0 else accepted)

    def connectives(children):
        members = st.builds(lambda xs, k: tuple(xs + xs[:k]),
                            st.lists(children, min_size=1, max_size=3), st.integers(0, 2))
        return st.one_of(st.builds(Complement, children),
                         st.builds(Union, members), st.builds(Inter, members))

    return st.recursive(leaf, connectives, max_leaves=12)


def _raw_text(e) -> str:
    """e printed as it was built: every "!" kept, every connective in
    parentheses."""
    kind = type(e)
    if kind is Complement:
        return f"!({_raw_text(e.body)})"
    if kind in (Union, Inter):
        return "(" + (" | " if kind is Union else " & ").join(map(_raw_text, e.members)) + ")"
    return to_text(e)


@settings(max_examples=300)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda n: st.tuples(st.just(n), _raw_trees(n - 1))))
@example((2, Union((Union((Cantor(), Cantor())), Complement(Complement(All())),
                    Inter((Complement(Empty()), Inter((Lattice(), Lattice())))))))).via("edge cases")
@example((2, Union((SinglePoint((Fr(1),)), SinglePoint((1.0,)))))).via("a float dropped as a repeat")
@example((2, Complement(FiniteSet(())))).via("a finite set without points")
@example((3, Inter((Cantor(), OpenBall((Fr(0), Fr(1)), Fr(0)))))).via("a ball of radius 0")
def test_parse_reads_raw_text_into_the_normal_tree(case):
    # normalize and parse accept the same trees, and agree on them
    n, raw = case
    try:
        want = normalize(raw)
    except (TypeError, ValueError):
        with pytest.raises(ParseError):
            parse(_raw_text(raw), n)
    else:
        assert parse(_raw_text(raw), n) == want


class TestCantorOracleAgreement:
    def test_small_denominators_exhaustive(self):
        for q in range(1, 61):
            for p in range(0, q + 1):
                x = Fr(p, q)
                assert (member(Cantor(), (x,)) is IN) == cantor_brute(x), x

    @given(st.fractions(min_value=0, max_value=1, max_denominator=500))
    def test_matches_brute_force(self, x):
        assert (member(Cantor(), (x,)) is IN) == cantor_brute(x)

    def test_a_long_ternary_period_is_decided_at_its_first_one(self):
        # the denominator's ternary period is near 10**12: long division
        # through the whole period, as the oracle once did, never ends
        x = Fr(1, 3) + Fr(1, 999983 * 999979)
        assert cantor_brute(x) is False
        assert member(Cantor(), (x,)) is OUT


def _cantor_form(digits):
    """The point of C with these ternary digits, each 0 or 2, as (numerator, 3^k)."""
    return sum(d * 3 ** i for i, d in enumerate(reversed(digits))), 3 ** len(digits)


@st.composite
def _interval(draw):
    """(lo, hi, q): an interval [lo/q, hi/q] of width 0 to 1, about [0, 1]; q
    up to 10**6 or a power of 3, or the ends placed near a point of C."""
    if draw(st.booleans()):
        q = draw(st.one_of(st.integers(1, 10**6), st.integers(0, 40).map(lambda k: 3**k)))
        lo = draw(st.integers(-q, 2 * q))
    else:
        c, k = _cantor_form(draw(st.lists(st.sampled_from([0, 2]), min_size=1, max_size=40)))
        f = draw(st.integers(1, 10))
        lo, q = c * f + draw(st.integers(-3, 3)), k * f
    return lo, lo + draw(st.integers(0, q)) // draw(st.sampled_from([1, 9, 3**20])), q


class TestCantorInterval:
    @given(_interval())
    def test_the_walk_equals_the_fraction_oracle(self, case):
        lo, hi, q = case
        assert _cantor_meets(lo, hi, q) == cantor_meets_ref(Fr(lo, q), Fr(hi, q))

    @pytest.mark.parametrize("depth", [1, 63, 64, 65, 69, 200])
    def test_a_gap_of_any_depth_is_missed_and_its_ends_are_met(self, depth):
        # [2/5, 3/5] * 3^-depth lies in a middle gap at that depth, in the
        # copies of C at 0 and at 2/3; [1/3, 2/3] * 3^-depth is its closure
        for shift in (0, 2 * 3 ** (depth - 1)):
            q = 5 * 3 ** depth
            assert _cantor_meets(2 + 5 * shift, 3 + 5 * shift, q) is False
            assert cantor_meets_ref(Fr(2 + 5 * shift, q), Fr(3 + 5 * shift, q)) is False
            q = 3 ** (depth + 1)
            assert _cantor_meets(1 + 3 * shift, 2 + 3 * shift, q) is True


class TestFindWitness:
    def test_all_has_the_origin(self):
        assert find_witness(All(), 100, 0, dimension=3) == (Fr(0), Fr(0))

    def test_cantor_meets_its_named_point(self):
        # 1/3 = 0.0222...(3) is in the Cantor set
        w = find_witness(Inter((Cantor(), SinglePoint((Fr(1, 3),)))), 1000, 0)
        assert w == (Fr(1, 3),)

    def test_empty_has_no_witness(self):
        assert find_witness(Empty(), 1000, 0) is None

    def test_complement_of_rationals_is_unwitnessable(self):
        assert find_witness(Complement(Rationals()), 1000, 0) is None

    @pytest.mark.parametrize("budget", [0, -1, sys.maxsize + 1, 10**20])
    def test_a_budget_out_of_range_is_refused(self, budget):
        # even where the search would end before it reads a candidate
        message = "budget must be positive" if budget < 1 else f"budget must be at most {sys.maxsize}"
        for e in (Empty(), All(), parse("cball(0;1) & !oball(0;1)")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                find_witness(e, budget=budget)
        assert find_witness(Empty(), budget=sys.maxsize) is None
        assert find_witness(All(), budget=sys.maxsize) == (Fr(0),)

    @pytest.mark.parametrize("budget", [2.5, True, "3", Fr(3), None])
    def test_a_budget_that_is_no_int_is_refused(self, budget):
        # before any candidate is read, with the rule's own message
        message = f"^budget must be an int, not {type(budget).__name__}$"
        for e in (Empty(), All(), parse("point(1)"), parse("cball(0;1) & !oball(0;1)")):
            with pytest.raises(TypeError, match=message):
                find_witness(e, budget=budget)

    def test_an_unhashable_seed_is_refused_before_any_candidate(self):
        # point(1) is its own first structural candidate: no seed is read
        assert find_witness(parse("point(1)"), seed=0) == (Fr(1),)
        for e in (Empty(), All(), parse("point(1)")):
            with pytest.raises(TypeError, match="unhashable"):
                find_witness(e, seed=[])

    @pytest.mark.parametrize("dimension", [1, 0, -3])
    def test_a_dimension_below_two_is_refused(self, dimension):
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            find_witness(All(), dimension=dimension)

    def test_deterministic_under_seed(self):
        e = parse("oball(3;1/3) | lattice & cantor")
        assert find_witness(e, 500, 9) == find_witness(e, 500, 9)

    @pytest.mark.parametrize("text, seed, want", [
        # 273/13 at seed 0 and 120/20 at seed 3, drawn after every structural
        # candidate and probe
        ("lattice & !finite{0;1;-1;2;-2;5}", 0, (Fr(21),)),
        ("lattice & !finite{0;1;-1;2;-2;5}", 3, (Fr(6),)),
        # 273/13 is the point 21, so 136/8 comes next
        ("lattice & !finite{0;1;-1;2;-2;5} & !point(21)", 0, (Fr(17),)),
        # 42/21 is the finite set's 2, so -300/5 comes next
        ("lattice & !finite{0;1;-1;2;-2;5;21;17;-218}", 0, (Fr(-60),)),
    ])
    def test_a_random_candidate_is_read_in_lowest_terms(self, text, seed, want):
        w = find_witness(parse(text), 1000, seed)
        assert w == want and all(type(c) is Fr and c.denominator == 1 for c in w)

    @pytest.mark.parametrize("e, want", [
        (SinglePoint((1, 2)), (Fr(1), Fr(2))),
        (FiniteSet(((3,), (Fr(1, 2),))), (Fr(3),)),
        (ClosedBall((0,), 1), (Fr(0),)),
    ])
    def test_a_witness_is_fractions_from_a_tree_of_ints(self, e, want):
        w = find_witness(e)
        assert w == want and all(type(c) is Fr for c in w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_structural_candidates_are_the_oracle_s(self, n):
        # read off the forms the searches harvest, in the order of the oracle's
        # Fraction arithmetic, at the tree's arity and one above it
        rng = random.Random(30 + n)
        m = n - 1
        trees = [random_expr(rng, n) for _ in range(60)]
        trees += [ClosedBall((Fr(1, 3),) * m, 2), OpenBall(tuple(range(m)), 3),
                  join(Union, [ClosedBall((Fr(-1, 2),) * m, 1), Lattice(), Cantor(),
                               FiniteSet(((Fr(1, 4),) * m, (Fr(0),) * m)), OpenBall((0,) * m, 1)])]
        if n == 2:
            trees.append(_wide_union(rng))
        for e in trees:
            for tree in (e, complement(e)):
                for arity in (m, m + 1):
                    got = structural_candidates(tree, arity)
                    assert got == structural_candidates_ref(tree, arity)
                    assert all(type(c) is Fr for p in got for c in p)


class _MinusFive(enum.IntEnum):
    SEED = -5


# (a, b) bounds of randint: a == b, width 1, widths that are powers of two
# and their neighbours, negative bounds, and widths past 2**64
_DRAW_BOUNDS = [(0, 0), (-7, -7), (5, 6), (0, 1), (0, 3), (0, 7), (-8, 7), (1, 16),
                (1, 17), (0, 2**10 - 1), (0, 2**10), (-300, 300), (1, 100), (1, 10_000),
                (-(2**63), 2**63 - 1), (0, 2**64), (-(2**70), 2**70 + 5), (-1000, -900)]


class TestDraws:
    """Draws draws exactly what random.Random draws from the same state."""

    @pytest.mark.parametrize("seed", [0, 1, 2405, 10**20, "seed"])
    def test_randint_draws_what_random_draws(self, seed):
        mine, stdlib = Draws(seed), random.Random(seed)
        for i in range(4000):
            a, b = _DRAW_BOUNDS[i % len(_DRAW_BOUNDS)]
            assert mine.randint(a, b) == stdlib.randint(a, b), (i, a, b)
        assert mine.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("seed", [3, 11, 2**40])
    def test_a_restored_state_draws_what_random_draws(self, seed):
        mine, stdlib = Draws(), random.Random(seed)
        mine.setstate(random.Random(seed).getstate())
        assert [mine.randint(-300, 300) for _ in range(2000)] == [
            stdlib.randint(-300, 300) for _ in range(2000)]

    def test_other_draws_are_random_s_own(self):
        mine, stdlib = Draws(5), random.Random(5)
        assert [mine.random(), mine.randrange(10), mine.choice("abc"), mine.getrandbits(9)] == [
            stdlib.random(), stdlib.randrange(10), stdlib.choice("abc"), stdlib.getrandbits(9)]

    def test_an_empty_range_is_refused(self):
        with pytest.raises(ValueError):
            Draws(0).randint(3, 2)
        with pytest.raises(ValueError):
            Draws(0).randint(0, -5)


class TestCandidateStream:
    """The random candidates of one (seed, m) are drawn as a search reads
    them, from the seed's start state, formed once per process."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 3, 10**20])
    def test_the_stream_is_the_search_s_draws(self, seed, m):
        want = random_forms_ref(seed, m, 2500)
        for _ in range(2):  # each read starts again from the seed
            assert list(islice(_stream(seed, m), 2500)) == want

    def test_a_witness_past_the_cap(self):
        # the lattice without the structural candidates, the probes and
        # every integer among the first 1100 draws of seed 0: its witness is
        # the first integer drawn after them, past the default budget
        draws = random_forms_ref(0, 1, 5000)
        skip = {0, 1, -1, 2, -2, 5} | {X[0] for X, d in draws[:1100] if d == 1}
        gap = parse(f"lattice & !finite{{{';'.join(map(str, sorted(skip)))}}}")
        want = next(X for X, d in draws if d == 1 and X[0] not in skip)
        assert draws.index((want, 1)) >= DEFAULT_BUDGET
        _start.cache_clear()
        for _ in range(2):  # cold, then from the kept start state
            assert find_witness(gap, 5000, 0) == (Fr(want[0]),)

    @pytest.mark.parametrize("seeds, apart", [
        ((10**20, 1e20), True), ((0, 0.0, False), False),
        # random.Random reads an int subclass by its absolute value, a float
        # by its hash; the cache keys of the two differ only by their types
        ((-5.0, _MinusFive.SEED), True),
    ])
    def test_equal_seeds_of_other_types_do_not_share_a_stream(self, seeds, apart):
        gap = parse("lattice & !finite{0;1;-1;2;-2;5}")
        answers = []
        for order in (seeds, seeds[::-1]):
            _start.cache_clear()
            answers.append({repr(seed): find_witness(gap, seed=seed) for seed in order})
        assert answers[0] == answers[1]
        # whether random.Random seeds the first two differently
        assert (find_witness(gap, seed=seeds[0]) != find_witness(gap, seed=seeds[1])) is apart

    def test_a_seed_of_none_answers_alike_in_one_process(self):
        # every structural candidate and probe is excluded, so the witness
        # is a random candidate, read from one operating-system state
        gap = parse("!finite{0;1;-1;2;-2;1/2;-1/2;3/2;1/3;5}")
        _start.cache_clear()
        first = find_witness(gap, seed=None)
        assert first is not None and find_witness(gap, seed=None) == first

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_threads_reading_one_seed_see_the_same_draws(self, seed):
        _start.cache_clear()
        want, read = random_forms_ref(seed, 2, 900), []
        threads = [threading.Thread(target=lambda: read.append(list(islice(_stream(seed, 2), 900))))
                   for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert read == [want] * len(threads)


def _search_tree(rng: random.Random, n: int):
    """A random tree, or the gap e1 & !e2 between two, so that many
    searches find nothing."""
    e = random_expr(rng, n)
    return join(Inter, [e, complement(random_expr(rng, n))]) if rng.random() < 0.5 else e


def _span(e):
    """The span of e's support as two Fractions, or its sentinel."""
    span = _compiled(e)[2]
    if span in (NOWHERE, ANYWHERE):
        return span
    a, b, c, g = span
    return Fr(a, b), Fr(c, g)


@st.composite
def _drawn_span(draw):
    """NOWHERE, ANYWHERE or a bounded span (a, b, c, g), [a/b, c/g], whose
    ends are few values written over random multiples of their denominators,
    so that equal ends are common."""
    kind = draw(st.sampled_from(("bounded",) * 4 + (NOWHERE, ANYWHERE)))
    if kind != "bounded":
        return kind

    def end():
        x, k = Fr(draw(st.integers(-6, 6)), draw(st.integers(1, 4))), draw(st.integers(1, 3))
        return x.numerator * k, x.denominator * k

    (a, b), (c, g) = sorted((end(), end()), key=lambda e: Fr(*e))
    return a, b, c, g


class TestWitnessSupport:
    """A search returns what testing every candidate in order returns: the
    support settles a hopeless search at once and skips candidates outside
    its span, each still counted against the budget."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_probes_are_the_oracle_s(self, m):
        assert list(_probes(m)) == [_scaled(p) for p in probes_ref(m)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.integers(0, 3),
           st.sampled_from((1, 7, 40, 1000, 1500)))
    def test_the_search_equals_the_oracle(self, tree_seed, n, seed, budget):
        # 1500 reads past the kept forms of the stream
        e = _search_tree(random.Random(tree_seed), n)
        want = find_witness_ref(e, budget, seed, n - 1)
        assert find_witness(e, budget, seed, dimension=n) == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_in_point_lies_in_the_support(self, n):
        rng = random.Random(n)
        m = n - 1
        stream = [tuple(Fr(x, d) for x in X) for X, d in random_forms_ref(0, m, 200)]
        for _ in range(40):
            e = _search_tree(rng, n)
            span, may_out = _span(e), _compiled(e)[3]
            for p in structural_candidates(e, m) + probes_ref(m) + stream:
                v = member(e, p)
                if v is IN:
                    assert span is ANYWHERE or span is not NOWHERE and span[0] <= p[0] <= span[1]
                assert may_out or v is not OUT

    @settings(max_examples=300)
    @given(st.lists(_drawn_span(), max_size=6))
    @example([(1, 2, 1, 1), (2, 4, 3, 3), (-4, 8, 6, 6)])  # equal ends, other denominators
    def test_meet_and_hull_are_interval_arithmetic(self, spans):
        # ends compared as Fractions; of equal ends, the first span's is kept
        bounded = [span for span in spans if span not in (NOWHERE, ANYWHERE)]
        lows, highs = [span[:2] for span in bounded], [span[2:] for span in bounded]

        def first(ends, value):
            return next(end for end in ends if Fr(*end) == value)

        if ANYWHERE in spans:
            hull = ANYWHERE
        elif not bounded:
            hull = NOWHERE
        else:
            hull = (first(lows, min(Fr(*end) for end in lows))
                    + first(highs, max(Fr(*end) for end in highs)))
        assert _hull(spans) == hull
        if NOWHERE in spans:
            meet = NOWHERE
        elif not bounded:
            meet = ANYWHERE
        else:
            lo, hi = max(Fr(*end) for end in lows), min(Fr(*end) for end in highs)
            meet = NOWHERE if lo > hi else first(lows, lo) + first(highs, hi)
        assert _meet(spans) == meet

    @pytest.mark.parametrize("text", [
        "bernstein & cball(0;1)", "cball(0;1) & !bernstein", "cball(0;1) & !rationals",
        "point(1) & point(2)", "cball(0;1) & oball(5;1)", "!all",
        "!(!bernstein | point(1))",  # the union is never Out
    ])
    def test_a_hopeless_search_draws_nothing(self, text):
        e = parse(text)
        assert _span(e) is NOWHERE
        _start.cache_clear()
        assert find_witness(e, seed=0) is None is find_witness_ref(e, DEFAULT_BUDGET, 0, 1)
        assert _start.cache_info().currsize == 0

    @pytest.mark.parametrize("text", ["point(3)", "cball(7;1/9) & !point(7)", "lattice & !point(0)",
                                      "!finite{0;1/2}"])
    def test_an_early_witness_draws_nothing(self, text):
        # a structural candidate or a probe is a witness
        e = parse(text)
        _start.cache_clear()
        assert find_witness(e, seed=0) == find_witness_ref(e, DEFAULT_BUDGET, 0, 1) is not None
        assert _start.cache_info().currsize == 0

    def test_a_skipped_candidate_counts_against_the_budget(self):
        # the ball's four candidates are taken out, so its first witness is
        # a random candidate in [9, 11], drawn after others the span skips
        e = parse("cball(10;1) & !finite{10;19/2;21/2;11}")
        assert _span(e) == (9, 11)
        draws = random_forms_ref(0, 1, DEFAULT_BUDGET)
        hit = next(k for k, (X, d) in enumerate(draws)
                   if 9 <= Fr(X[0], d) <= 11 and Fr(X[0], d) not in (10, Fr(19, 2), Fr(21, 2), 11))
        assert any(not 9 <= Fr(X[0], d) <= 11 for X, d in draws[:hit])
        reach = len(structural_candidates(e, 1)) + len(probes_ref(1)) + hit + 1
        X, d = draws[hit]
        assert find_witness(e, reach, 0) == (Fr(X[0], d),) == find_witness_ref(e, reach, 0, 1)
        assert find_witness(e, reach - 1, 0) is None is find_witness_ref(e, reach - 1, 0, 1)

    @pytest.mark.parametrize("text, want", [
        ("cball(0;1) & !finite{0;1/2;-1/2;1}", (Fr(-1),)),  # the probe -1, the low end
        ("(oball(0;1) | point(3)) & !finite{0;1/2;-1/2}", (Fr(3),)),  # the high end
    ])
    def test_a_candidate_at_an_end_of_the_span_is_tested(self, text, want):
        e = parse(text)
        assert want[0] in _span(e)
        assert find_witness(e, seed=0) == want == find_witness_ref(e, DEFAULT_BUDGET, 0, 1)
