import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from niemytzki import descriptive, setdsl, theorems
from niemytzki.descriptive import (
    SoundnessError,
    compare,
    compare_topologies,
    infer,
    subset,
)
from niemytzki.setdsl import (
    MAX_TREE_DEPTH,
    All,
    Cantor,
    Complement,
    Inter,
    SinglePoint,
    Union,
    _Parser,
    complement,
    find_witness,
    member,
    normalize,
    parse,
    random_expr,
    to_text,
)
from niemytzki.theorems import (
    BOUNDARY_ORDER,
    PROPERTY_ORDER,
    PropertyReport,
    UnknownProperty,
    classify,
    explain,
)
from niemytzki.topology import TopologySpec
from niemytzki.trivalent import FALSE, TRUE, UNKNOWN
from catalog import build
from oracles import classify_ref


def verdicts(report, names):
    return {name: report.properties[name] for name in names}


class TestFlagshipClassifications:
    def test_tangent_ball_extreme(self):
        r = classify("empty", 2)
        assert r.properties["perfect"] is TRUE
        for name in ("lindelof", "normal", "paracompact", "countably_paracompact",
                     "weakly_paracompact", "locally_compact", "metrizable"):
            assert r.properties[name] is FALSE, name
        assert r.properties["separable"] is TRUE
        assert r.boundary_dim == -1

    def test_euclidean_extreme(self):
        r = classify("all", 3)
        for name in ("metrizable", "second_countable", "hereditarily_lindelof",
                     "locally_compact", "perfect", "lindelof", "normal",
                     "paracompact", "countably_paracompact", "sigma_compact",
                     "boundary_z_embedded", "boundary_cstar_embedded"):
            assert r.properties[name] is TRUE, name
        assert r.dim == 3
        assert r.boundary_dim == 2

    def test_countable_dense_boundary_set(self):
        r = classify("rationals", 2)
        assert r.properties["perfect"] is FALSE
        assert r.properties["lindelof"] is FALSE

    def test_co_countable_dense_boundary_set(self):
        r = classify("!rationals", 2)
        assert r.properties["second_countable"] is TRUE
        assert r.properties["sigma_compact"] is FALSE

    def test_cantor_and_its_complement(self):
        for text in ("cantor", "!cantor"):
            r = classify(text, 2)
            assert r.properties["perfect"] is TRUE, text
            assert r.properties["lindelof"] is FALSE, text

    def test_bernstein(self):
        r = classify("bernstein", 2)
        assert r.properties["lindelof"] is TRUE
        assert r.properties["normal"] is TRUE
        assert r.properties["perfect"] is FALSE
        assert r.dim == 2


class TestConstantsAndBoundaryBlock:
    def test_constants_hold_for_every_boundary_set(self):
        rng = random.Random(13)
        for _ in range(40):
            r = classify(random_expr(rng, 2, max_depth=3), 2)
            for name in ("separable", "first_countable", "tychonoff",
                         "completely_hausdorff"):
                assert r.properties[name] is TRUE
            assert r.boundary["hereditarily_collectionwise_normal"] is TRUE

    def test_boundary_block_mirrors_the_space(self):
        rng = random.Random(14)
        for _ in range(40):
            r = classify(random_expr(rng, 3, max_depth=3), 3)
            assert r.boundary["perfect"] is r.properties["perfect"]
            assert r.boundary["lindelof"] is r.properties["lindelof"]
            assert r.boundary["sigma_compact"] is r.properties["sigma_compact"]

    def test_weakly_paracompact_only_settled_for_the_empty_set(self):
        assert classify("empty", 2).properties["weakly_paracompact"] is FALSE
        assert classify("cantor", 2).properties["weakly_paracompact"] is UNKNOWN
        assert classify("all", 2).properties["weakly_paracompact"] is UNKNOWN

    def test_dim_is_open_without_normality(self):
        assert classify("empty", 4).dim is None
        assert classify("all", 4).dim == 4

    def test_boundary_dim_table(self):
        assert classify("point(0)", 2).boundary_dim == 0
        assert classify("lattice", 3).boundary_dim == 0
        assert classify("cball(0,0;1)", 3).boundary_dim == 2
        assert classify("oball(0;1)", 2).boundary_dim == 1
        assert classify("cantor | lattice", 2).boundary_dim is None


class TestEquivalenceClasses:
    def test_verdict_groups_are_identical(self):
        rng = random.Random(15)
        for _ in range(60):
            r = classify(random_expr(rng, 2, max_depth=4), 2)
            quadruple = {r.properties[n] for n in
                         ("lindelof", "normal", "paracompact", "countably_paracompact")}
            triple = {r.properties[n] for n in
                      ("metrizable", "second_countable", "hereditarily_lindelof")}
            pair = {r.properties[n] for n in
                    ("boundary_z_embedded", "boundary_cstar_embedded", "normal")}
            assert len(quadruple) == 1 and len(triple) == 1 and len(pair) == 1

    def test_implications_never_break(self):
        rng = random.Random(16)
        for _ in range(60):
            r = classify(random_expr(rng, 3, max_depth=4), 3)
            p = r.properties
            for ante, cons in (("sigma_compact", "second_countable"),
                               ("sigma_compact", "perfect"),
                               ("sigma_compact", "lindelof"),
                               ("second_countable", "lindelof"),
                               ("locally_compact", "metrizable")):
                if p[ante] is TRUE:
                    assert p[cons] is not FALSE, (ante, cons)

    def test_full_boundary_gives_the_euclidean_report(self):
        rng = random.Random(17)
        reference = classify(All(), 2)
        for _ in range(30):
            e = normalize(Union((All(), random_expr(rng, 2, max_depth=2))))
            r = classify(e, 2)
            assert r.properties == reference.properties
            assert r.dim == reference.dim


FLAGSHIP_SETS = ("empty", "all", "rationals", "!rationals", "cantor", "!cantor",
                 "bernstein")

# the rules whose step sets a verdict; the others record evidence for one
DECIDING_RULES = {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "RW", "B1"}


class TestTrace:
    def test_every_decided_property_has_a_step(self):
        r = classify("bernstein", 2)
        for name in PROPERTY_ORDER:
            if r.properties[name] is not UNKNOWN:
                assert explain(r, name), name
        for name in BOUNDARY_ORDER:
            if r.boundary[name] is not UNKNOWN:
                assert explain(r, f"boundary.{name}"), name
        # every verdict, Unknown included, is the one a deciding step shows
        rng = random.Random(18)
        reports = [classify(text, n) for n in (2, 3) for text in FLAGSHIP_SETS]
        reports += [classify(random_expr(rng, n), n) for n in (2, 3) for _ in range(150)]
        for r in reports:
            entries = [(name, r.properties[name]) for name in PROPERTY_ORDER]
            entries += [(f"boundary.{name}", r.boundary[name]) for name in BOUNDARY_ORDER]
            for name, verdict in entries:
                deciding = [s for s in explain(r, name) if s.rule in DECIDING_RULES]
                assert [s.verdict for s in deciding] == [verdict.value], (r.space, name)

    def test_bernstein_lindelof_trace_cites_the_axiom_and_the_rule(self):
        steps = explain(classify("bernstein", 2), "lindelof")
        rules = [s.rule for s in steps]
        assert "AX-bernstein" in rules
        assert "R4" in rules
        axiom = next(s for s in steps if s.rule == "AX-bernstein")
        assert axiom.citation == "do not contain uncountable compacta"
        main = next(s for s in steps if s.rule == "R4")
        assert main.citation == "The space (X_n, τ(A)) is paracompact."

    def test_separable_is_a_constant_rule(self):
        steps = explain(classify("cantor", 2), "separable")
        assert [s.rule for s in steps] == ["R7"]

    def test_unknown_property_name_raises(self):
        r = classify("cantor", 2)
        with pytest.raises(UnknownProperty):
            explain(r, "compactly_generated")

    def test_unknown_property_is_a_key_error_naming_the_known_ones(self):
        r = classify("cantor", 2)
        with pytest.raises(KeyError) as err:
            explain(r, "compactly_generated")
        known = ", ".join(r.property_names())
        assert str(err.value) == f"unknown property 'compactly_generated'; known: {known}"

    def test_dim_and_boundary_namespaces(self):
        r = classify("all", 2)
        assert explain(r, "dim")[0].rule == "R8"
        assert explain(r, "boundary.dim")[0].rule == "B3"
        assert explain(r, "boundary.perfect")


class TestReportJson:
    def test_schema_fields(self):
        data = classify("cantor | point(2)", 2).to_json()
        assert data["space"] == "cantor | point(2)"
        assert data["dimension"] == 2
        assert set(data) == {"space", "dimension", "properties", "boundary_subspace", "trace"}
        assert data["properties"]["perfect"] == "true"
        assert data["boundary_subspace"]["hereditarily_collectionwise_normal"] == "true"
        assert all({"rule", "citation", "verdict"} <= set(t) for t in data["trace"])

    def test_dim_serialization(self):
        assert classify("all", 2).to_json()["properties"]["dim"] == 2
        assert classify("empty", 2).to_json()["properties"]["dim"] == "unknown"


class TestSetClasses:
    def test_report_carries_the_flags_of_the_set(self):
        for n in (2, 3):
            for name, e, _, _, _ in build(n):
                assert classify(e, n).set_classes == infer(e), name


class TestNormalisedOnce:
    TEXTS = ("cantor | point(1/2) & !cball(3;1)", "!(lattice | oball(0;2))")

    @staticmethod
    def _count_normal(monkeypatch) -> dict:
        calls = {"_normal": 0}
        walk = setdsl._normal

        def counted(*args):
            calls["_normal"] += 1
            return walk(*args)

        monkeypatch.setattr(setdsl, "_normal", counted)
        return calls

    def test_parsed_text_is_not_normalised_again(self, monkeypatch):
        a, b = (parse(text) for text in self.TEXTS)
        calls = self._count_normal(monkeypatch)
        for call in (lambda: compare_topologies(a, b), lambda: compare(a, b),
                     lambda: subset(a, b), lambda: infer(a), lambda: classify(a, 2),
                     lambda: classify(self.TEXTS[1], 2)):
            call()
            assert calls == {"_normal": 0}

    def test_a_raw_tree_is_walked_once(self, monkeypatch):
        def raw():
            return Union((Complement(Complement(Cantor())), Inter((All(), SinglePoint((Fraction(1),))))))

        calls = self._count_normal(monkeypatch)
        normalize(raw())
        once = calls["_normal"]
        assert once > 0
        calls["_normal"] = 0
        assert normalize(normalize(raw())) == parse("cantor | all & point(1)")
        assert calls["_normal"] == once

    def test_the_complement_of_a_marked_tree_is_marked(self, monkeypatch):
        e = parse(self.TEXTS[0])
        calls = self._count_normal(monkeypatch)
        for c in (complement(e), complement(complement(e)), complement(parse("all"))):
            assert normalize(c) is c
        assert calls == {"_normal": 0}


def test_trees_deeper_than_the_cap_are_refused():
    # 600 levels of point & !(...), built in Python: past the parser's cap
    e = Cantor()
    for i in range(600):
        e = Inter((SinglePoint((Fraction(i),)), Complement(e)))
    cap = f"deeper than {MAX_TREE_DEPTH} levels"
    for call in (lambda: classify(e, 2), lambda: infer(e), lambda: subset(e, All()),
                 lambda: compare_topologies(All(), e), lambda: TopologySpec(2, e),
                 lambda: member(e, (Fraction(1, 3),)), lambda: to_text(e),
                 lambda: find_witness(e, 10)):
        with pytest.raises(ValueError, match=cap):
            call()


def test_trees_at_the_bound_are_classified():
    # the complement classify derives is one level deeper than the bound
    e = Cantor()
    for i in range(MAX_TREE_DEPTH):
        e = (Inter, Union)[i % 2]((SinglePoint((Fraction(i),)), e))
    assert isinstance(e, Union)
    assert classify(e, 2).set_classes == infer(e)
    text = "cantor"
    for i in range(_Parser.MAX_DEPTH // 2):
        text = f"point({i}) | !({text})"
    assert classify(text, 2).to_json() == classify(parse(text), 2).to_json()


# --- the rule table against the rule statements ----------------------------------

def _as_ref(report) -> dict:
    """A report as classify_ref spells it."""
    three = {TRUE: True, FALSE: False, UNKNOWN: None}
    return {"properties": {name: three[v] for name, v in report.properties.items()},
            "dim": report.dim,
            "boundary": {name: three[v] for name, v in report.boundary.items()},
            "boundary_dim": report.boundary_dim,
            "rules": [s.rule for s in report.trace]}


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 4]))
def test_classify_is_the_rule_oracle(seed, n):
    e = normalize(random_expr(random.Random(seed), n))
    assert _as_ref(classify(e, n)) == classify_ref(e, n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("text", ["bernstein", "!bernstein", "cantor", "rationals",
                                  "!rationals", "empty"])
def test_classify_is_the_rule_oracle_on_the_named_sets(text, n):
    e = parse(text, n)
    assert _as_ref(classify(e, n)) == classify_ref(e, n)


# --- the per-key templates -------------------------------------------------------

def _report_bytes(report) -> str:
    return json.dumps(report.to_json(), ensure_ascii=False)


def _explained(report) -> dict:
    return {name: explain(report, name) for name in report.property_names()}


def _complement_input(report) -> str:
    (step,) = [s for s in report.trace if s.rule == "R4-input"]
    return step.inputs["complement"]


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 4]))
def test_a_cold_and_a_warm_template_give_the_same_report(seed, n):
    e = normalize(random_expr(random.Random(seed), n))
    theorems._template.cache_clear()
    theorems._step.cache_clear()
    cold = classify(e, n)
    misses = theorems._template.cache_info().misses
    warm = classify(e, n)
    assert theorems._template.cache_info().misses == misses  # a hit
    assert _report_bytes(cold) == _report_bytes(warm)
    assert _explained(cold) == _explained(warm)
    assert _as_ref(cold) == _as_ref(warm) == classify_ref(e, n)
    # the two texts are A's own, printed from the trees
    assert cold.space == to_text(e)
    assert _complement_input(cold) == to_text(complement(e))


@pytest.mark.parametrize("first, second", [("point(1)", "point(2)"),
                                           ("cball(0;1)", "cball(3;1/2)")])
def test_sets_of_one_key_keep_their_own_texts(first, second):
    a, b = parse(first), parse(second)
    assert descriptive.flag_record(a) == descriptive.flag_record(b)
    one = classify(a, 2)
    hits = theorems._template.cache_info().hits
    two = classify(b, 2)
    assert theorems._template.cache_info().hits == hits + 1  # the same template
    for report, text in ((one, first), (two, second)):
        assert report.space == report.to_json()["space"] == text
        assert _complement_input(report) == f"!{text}"
        assert explain(report, "lindelof")[0].inputs["complement"] == f"!{text}"


def test_a_changed_payload_leaks_into_no_other():
    reports = [classify("cantor", 2), classify("cantor", 2), classify("cball(0;1)", 2)]
    before = [_report_bytes(r) for r in reports]
    for report in reports:
        payload = report.to_json()
        payload["set_classes"] = report.set_classes.to_json()
        payload["trace"].append({"rule": "X"})
        payload["properties"]["perfect"] = "false"
        payload["boundary_subspace"]["dim"] = 7
        payload["space"] = "changed"
    assert [_report_bytes(r) for r in reports] == before
    assert [_report_bytes(r) for r in (classify("cantor", 2), classify("cball(0;1)", 2))] == \
        [before[0], before[2]]
    assert "set_classes" not in reports[0].to_json()


def test_the_template_caches_are_bounded():
    for cache in (theorems._template, theorems._step):
        assert cache.cache_info().maxsize is not None


@pytest.fixture
def cold_templates():
    """Empty the template cache before and after a test that patches what
    it is built from, so the test builds its own and leaves none behind."""
    theorems._template.cache_clear()
    yield
    theorems._template.cache_clear()


def test_a_rule_output_against_a_corollary_raises(monkeypatch, cold_templates):
    real = theorems.flag_record
    # contains_closed_uncountable on the complement's half of a record
    pivot = descriptive._BIT["contains_closed_uncountable"] << descriptive._HALF

    def lindelof_cantor(e):
        # the complement of the Cantor set without a closed uncountable subset
        t, f = real(e)
        if e == Cantor():
            return t & ~pivot, f | pivot
        return t, f

    monkeypatch.setattr(theorems, "flag_record", lindelof_cantor)
    with pytest.raises(SoundnessError,
                       match=r"^rule output for lindelof contradicts the corollary C2$"):
        classify("cantor")


def test_a_broken_implication_raises():
    r = classify("all", 2)
    props = {**r.properties, **dict.fromkeys(
        ("lindelof", "normal", "paracompact", "countably_paracompact",
         "boundary_z_embedded", "boundary_cstar_embedded"), FALSE)}
    assert props["sigma_compact"] is TRUE
    fields = {name: getattr(r, name) for name in PropertyReport._fields}
    with pytest.raises(SoundnessError,
                       match=r"^implication sigma_compact => lindelof broken in all$"):
        theorems._assert_coherent(PropertyReport(**{**fields, "properties": props}))


def test_the_docstring_rule_list_is_the_table():
    listed = re.findall(r"^  (R\d|RW|B\d)  ", theorems.__doc__, re.M)
    assert len(listed) == len(set(listed)) == 12
    assert set(listed) == {row[0] for row in theorems._RULES
                           if re.fullmatch(r"R\d|RW|B\d", row[0])}
    targets = {name for row in theorems._RULES for name in row[2]}
    assert targets <= set(classify("cantor", 2).property_names())
