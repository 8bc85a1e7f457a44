"""Characterization rules for the spaces (X_n, tau(A)).

Every verdict about (X_n, tau(A)) or the boundary subspace (L_n, tau(A)|L_n)
is produced by a named rule consuming descriptive-class flags of A (and of
its complement), and every rule records the statement it encodes as a
verbatim citation, so reports are auditable.  Unknown flags propagate to
Unknown verdicts: the engine never guesses.

Rule table:

  R1  metrizable = second-countable = hereditarily Lindelöf  <=>  L_n \\ A
      is countable (A co-countable).
  R2  locally compact  <=>  A = L_n (the Euclidean case).
  R3  perfect  <=>  A is a G_delta set in L_n.
  R4  Lindelöf = normal = paracompact = countably paracompact  <=>  L_n \\ A
      contains no closed uncountable subset.
  R5  sigma-compact  <=>  A is F_sigma and co-countable.
  R6  L_n is z-embedded  <=>  L_n is C*-embedded  <=>  the space is normal.
  R7  separable, first-countable, Tychonoff and completely Hausdorff hold
      for every A.
  R8  dim X_n = n whenever the space is normal (open otherwise).
  RW  weak paracompactness is only settled for A = empty (false there).
  B1  the boundary subspace is hereditarily collectionwise normal, always.
  B2  the boundary subspace is perfect / Lindelöf / sigma-compact exactly
      when the whole space is.
  B3  dim of the boundary subspace equals dim A, reported for primitives of
      known dimension.

The report is built from one table, ``_RULES``, with one row per rule step
in trace order: the rule id, its citation, its targets, and two functions
of the facts of a key (the flag records of A and of its complement, which
named set A is, n, dim A and the verdicts settled so far): the step's
inputs and its verdict.  A verdict that is a ``Verdict`` settles the row's
targets and traces the row, so a verdict and its trace cannot disagree; a
string only traces it, as evidence (an axiom, the R4 pivot, a dimension, a
consistent corollary); None leaves the row out of the report (an axiom or
a corollary C1-C4 about another set).  A corollary row raises
SoundnessError when a settled verdict contradicts it.

Every verdict and every step depends on A only through its key: A's flag
record (``descriptive.flag_record``, whose high half holds the
complement's flags), n, dim A, and whether A is one of the named sets the
axiom and corollary rows test by identity (``_NAMED``).  So the rows are
evaluated once per key, into a template cached by ``_template``: the
settled verdicts, dim X_n, the set's flags and the trace.  ``classify``
normalises A, looks its key up and writes in the two texts that belong to
A itself: its own, as ``space``, and its complement's, in the steps that
show it (R4-input, and AX-bernstein on a Bernstein set), which it rebuilds.
Every other step is shared by every report of every key that gives it, one
object per distinct (rule, targets, inputs, verdict), and builds its JSON
form once, beside it; a step and its JSON form are read-only.
``PropertyReport.to_json`` puts fresh containers around those shared forms,
so a caller may add keys to its payload or change its verdicts and its trace
list, but no step's JSON form.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Optional, Union as TUnion

from .descriptive import DescClass, SoundnessError, desc_class, flag_record
from .geometry import _record
from .setdsl import (
    All,
    Bernstein,
    Cantor,
    ClosedBall,
    Complement,
    Empty,
    FiniteSet,
    Inter,
    Lattice,
    NodeTable,
    OpenBall,
    Rationals,
    SetExpr,
    SinglePoint,
    Union,
    complement_text,
    normalize_for,
    to_text,
)
from .trivalent import FALSE, TRUE, UNKNOWN, Verdict

PROPERTY_ORDER = (
    "separable", "first_countable", "tychonoff", "completely_hausdorff",
    "metrizable", "second_countable", "hereditarily_lindelof", "locally_compact",
    "perfect", "lindelof", "normal", "paracompact", "countably_paracompact",
    "weakly_paracompact", "sigma_compact", "boundary_z_embedded", "boundary_cstar_embedded",
)

BOUNDARY_ORDER = ("hereditarily_collectionwise_normal", "perfect", "lindelof", "sigma_compact")


@_record
class TraceStep:
    """One step of a report's trace.  Reports share their steps (see the
    module docstring), so a step and its JSON form are read-only."""

    rule: str
    citation: str
    targets: tuple[str, ...]
    inputs: dict[str, str]
    verdict: str

    @cached_property
    def _json(self) -> dict:
        # built on first use and kept beside the fields, out of ==, hash
        # and the pickled state
        return {
            "rule": self.rule,
            "citation": self.citation,
            "targets": list(self.targets),
            "inputs": dict(self.inputs),
            "verdict": self.verdict,
        }

    def to_json(self) -> dict:
        return self._json


@_record
class PropertyReport:
    space: str
    dimension: int
    properties: dict[str, Verdict]
    dim: Optional[int]
    boundary: dict[str, Verdict]
    boundary_dim: Optional[int]
    trace: tuple[TraceStep, ...]
    set_classes: DescClass  # the descriptive flags of A the verdicts rest on

    def verdict(self, name: str) -> TUnion[Verdict, int, None]:
        if name == "dim":
            return self.dim
        if name == "boundary.dim":
            return self.boundary_dim
        if name.startswith("boundary."):
            return self.boundary[name.split(".", 1)[1]]
        return self.properties[name]

    def property_names(self) -> tuple[str, ...]:
        return (
            PROPERTY_ORDER
            + ("dim",)
            + tuple(f"boundary.{n}" for n in BOUNDARY_ORDER)
            + ("boundary.dim",)
        )

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "dimension": self.dimension,
            "properties": {**{n: self.properties[n].value for n in PROPERTY_ORDER},
                           "dim": verdict_json(self.dim)},
            "boundary_subspace": {**{n: self.boundary[n].value for n in BOUNDARY_ORDER},
                                  "dim": verdict_json(self.boundary_dim)},
            "trace": [step.to_json() for step in self.trace],
        }


def verdict_json(verdict: TUnion[Verdict, int, None]) -> TUnion[str, int]:
    """One verdict of a report as JSON writes it: a Verdict as its value, a
    settled dimension as itself and an unsettled one as "unknown"."""
    if isinstance(verdict, Verdict):
        return verdict.value
    return "unknown" if verdict is None else verdict


class UnknownProperty(KeyError):
    """The report has no property of that name.  Its message is its one
    argument, not the repr a KeyError prints."""

    def __str__(self) -> str:
        return str(self.args[0])


# dim A for the primitives of known dimension, given n; every other node
# leaves it open
_BOUNDARY_DIM = NodeTable({
    Empty: lambda n: -1,
    **dict.fromkeys((SinglePoint, FiniteSet, Lattice, Rationals, Cantor), lambda n: 0),
    **dict.fromkeys((ClosedBall, OpenBall, All), lambda n: n - 1),
    **dict.fromkeys((Bernstein, Complement, Union, Inter), lambda n: None),
})


_QUADRUPLE = ("lindelof", "normal", "paracompact", "countably_paracompact")


# The sets that rows test by identity: the Bernstein axiom rows and the
# corollaries C1-C4.  A key names A only when A is one of them.
_NAMED = frozenset((Bernstein(), Complement(Bernstein()), Cantor(), Rationals(),
                    Complement(Rationals())))


class _Facts:
    """What the rows of ``_RULES`` read for one key: the flag records of A
    and of its complement, the named set A is (or None), n, dim A, and the
    verdicts settled so far, each under its public name."""

    __slots__ = ("desc", "comp_desc", "named", "dimension", "boundary_dim", "settled")

    def __init__(self, record: tuple[int, int], dimension: int,
                 boundary_dim: Optional[int], named: Optional[SetExpr]):
        self.desc = desc_class(record)
        self.comp_desc = desc_class(record, 1)
        self.named = named
        self.dimension = dimension
        self.boundary_dim = boundary_dim
        self.settled: dict[str, Verdict] = {}

    @property
    def normal(self) -> Verdict:
        return self.settled["normal"]

    @property
    def dim(self) -> Optional[int]:
        """dim X_n, settled only in the normal case (R8)."""
        return self.dimension if self.normal is TRUE else None


def _no_inputs(f: _Facts) -> dict[str, str]:
    return {}


def _holds(f: _Facts) -> Verdict:
    return TRUE


def _normal_input(f: _Facts) -> dict[str, str]:
    return {"normal": f.normal.value}


def _dim_text(dim: Optional[int]) -> str:
    return "unknown" if dim is None else str(dim)


# A row shows the complement's text under the input "complement", the one
# input that the key does not fix: a template holds None there, and classify
# writes in the text of its own A's complement.

def _pivot_inputs(f: _Facts) -> dict[str, Optional[str]]:
    return {
        "complement": None,
        "contains_closed_uncountable(complement)": f.comp_desc.contains_closed_uncountable.value,
    }


def _bernstein_compacta(f: _Facts) -> Optional[str]:
    # the complement is a Bernstein set, or the complement of one
    if f.named in (Bernstein(), Complement(Bernstein())):
        return f.comp_desc.contains_closed_uncountable.value
    return None


def _corollary(rule: str, citation: str, prim: SetExpr, **expected: Verdict) -> tuple:
    """The row of a corollary about the one set prim: there it checks each
    settled verdict it names, and elsewhere it is left out."""
    def check(f: _Facts) -> Optional[str]:
        if f.named != prim:
            return None
        for name, want in expected.items():
            if f.settled[name] is not want:
                raise SoundnessError(f"rule output for {name} contradicts the corollary {rule}")
        return "consistent"
    return rule, citation, tuple(expected), _no_inputs, check


# One row per rule step, in trace order: (rule, citation, targets, inputs,
# verdict), the last two functions of a key's _Facts (the module docstring
# says what a verdict does).  Each citation quotes its statement verbatim, so
# a trace is auditable.
_SEPARABLE = "the space (X_n, τ(A)) is first-countable and separable"
_RULES: tuple[tuple, ...] = (
    # R7: constants of the construction
    ("R7", _SEPARABLE, ("separable",), _no_inputs, _holds),
    ("R7", _SEPARABLE, ("first_countable",), _no_inputs, _holds),
    ("R7", "one can prove that the space (X_n, τ(A)) is Tychonoff", ("tychonoff",),
     _no_inputs, _holds),
    ("R7", "the space (X_n, τ_N) is completely Hausdorff", ("completely_hausdorff",),
     _no_inputs, _holds),
    ("R1", "The space (X_n, τ(A)) is second-countable.",
     ("metrizable", "second_countable", "hereditarily_lindelof"),
     lambda f: {"co_countable(A)": f.desc.co_countable.value, "criterion": "|L_n \\ A| ≤ ℵ₀"},
     lambda f: f.desc.co_countable),
    ("R2", "The space (X_n, τ(A)) is locally compact iff A = L_n i. e. τ(A) = τ_E.",
     ("locally_compact",),
     lambda f: {"equals_all(A)": f.desc.equals_all.value},
     lambda f: f.desc.equals_all),
    ("AX-bernstein", "neither a G_δ-set nor an F_σ-set", ("perfect",), _no_inputs,
     lambda f: FALSE.value if isinstance(f.named, Bernstein) and f.desc.g_delta is FALSE else None),
    ("R3", "The space (L_n, τ(A)|L_n) is perfect iff A is a G_δ-set in (L_n, (τ_E)|L_n).",
     ("perfect", "boundary.perfect"),
     lambda f: {"g_delta(A)": f.desc.g_delta.value},
     lambda f: f.desc.g_delta),
    # R4: the Lindelöf quadruple via the complement pivot
    ("AX-bernstein", "do not contain uncountable compacta", _QUADRUPLE,
     lambda f: {"complement": None}, _bernstein_compacta),
    ("R4-input",
     "The space (L_n, τ(A)|L_n) is Lindelöf iff L_n \\ A does not contain "
     "a closed uncountable subset of (L_n, (τ_E)|L_n).",
     _QUADRUPLE, _pivot_inputs,
     lambda f: f.comp_desc.contains_closed_uncountable.value),
    ("R4", "The space (X_n, τ(A)) is paracompact.", _QUADRUPLE + ("boundary.lindelof",),
     lambda f: {"contains_closed_uncountable(complement)":
                f.comp_desc.contains_closed_uncountable.value},
     lambda f: ~f.comp_desc.contains_closed_uncountable),
    # RW: weak paracompactness is settled only for the tangent-ball extreme
    ("RW", "neither normal, countably paracompact nor weakly paracompact",
     ("weakly_paracompact",),
     lambda f: {"equals_empty(A)": f.desc.equals_empty.value},
     lambda f: FALSE if f.desc.equals_empty is TRUE else UNKNOWN),
    ("R5",
     "The space (L_n, τ(A)|L_n) is σ-compact iff A is a F_σ-set in "
     "(L_n, (τ_E)|L_n) and |L_n \\ A| ≤ ℵ₀.",
     ("sigma_compact", "boundary.sigma_compact"),
     lambda f: {"f_sigma(A)": f.desc.f_sigma.value, "co_countable(A)": f.desc.co_countable.value},
     lambda f: f.desc.f_sigma & f.desc.co_countable),
    ("R6", "The subset L_n of (X_n, τ(A)) is C*-embedded in (X_n, τ(A)).",
     ("boundary_z_embedded", "boundary_cstar_embedded"), _normal_input, lambda f: f.normal),
    ("R8", "dim (X_n, τ(A)) = n", ("dim",), _normal_input, lambda f: _dim_text(f.dim)),
    # corollary cross-checks for the flagship boundary sets
    _corollary("C1", "Lindelöf but it is not perfect", Bernstein(),
               lindelof=TRUE, perfect=FALSE),
    _corollary("C2", "is perfect but it is not Lindelöf", Cantor(),
               perfect=TRUE, lindelof=FALSE),
    _corollary("C3", "neither perfect nor Lindelöf", Rationals(),
               perfect=FALSE, lindelof=FALSE),
    _corollary("C4", "second-countable but it is not σ-compact", Complement(Rationals()),
               second_countable=TRUE, sigma_compact=FALSE),
    # the boundary subspace block
    ("B1", "the space (L_n, τ(A)|L_n) is hereditarily collectionwise normal",
     ("boundary.hereditarily_collectionwise_normal",), _no_inputs, _holds),
    ("B2",
     "(X_n, τ(A)) is perfect (resp. Lindelöf or σ-compact) iff (L_n, τ(A)|L_n) is the same.",
     ("boundary.perfect", "boundary.lindelof", "boundary.sigma_compact"),
     lambda f: {name: f.settled[name].value for name in ("perfect", "lindelof", "sigma_compact")},
     lambda f: "transferred"),
    ("B3", "dim (L_n, τ(A)|L_n) = dim A", ("boundary.dim",), _no_inputs,
     lambda f: _dim_text(f.boundary_dim)),
)


# Bounded, as descriptive's record cache is, though a session of fresh
# expressions meets a few hundred keys and fewer distinct steps.
@lru_cache(maxsize=2**12)
def _step(rule: str, citation: str, targets: tuple[str, ...],
          inputs: tuple[tuple[str, Optional[str]], ...], verdict: str) -> TraceStep:
    """The one step of these fields (inputs as their items), shared by every
    template that holds it."""
    return TraceStep(rule, citation, targets, dict(inputs), verdict)


@lru_cache(maxsize=2**12)
def _template(record: tuple[int, int], dimension: int, boundary_dim: Optional[int],
              named: Optional[SetExpr]) -> tuple:
    """The rows of ``_RULES`` evaluated in order for one key, as what the
    key settles of a report: its properties, dim X_n, its boundary verdicts,
    its trace, the trace positions that show the complement's text, and the
    set's flags."""
    facts = _Facts(record, dimension, boundary_dim, named)
    settled = facts.settled
    trace: list[TraceStep] = []
    for rule, citation, targets, inputs, verdict in _RULES:
        found = verdict(facts)
        if found is None:
            continue
        if isinstance(found, Verdict):
            for name in targets:
                settled[name] = found
            found = found.value
        trace.append(_step(rule, citation, targets, tuple(inputs(facts).items()), found))
    return ({name: settled[name] for name in PROPERTY_ORDER},
            facts.dim,
            {name: settled[f"boundary.{name}"] for name in BOUNDARY_ORDER},
            tuple(trace),
            tuple(i for i, step in enumerate(trace) if "complement" in step.inputs),
            facts.desc)


def classify(expr: TUnion[SetExpr, str], dimension: int = 2) -> PropertyReport:
    """Full property report for (X_n, tau(A)) and its boundary subspace."""
    e = normalize_for(expr, dimension)
    boundary_dim = _BOUNDARY_DIM[type(e)](dimension)
    properties, dim, boundary, trace, spliced, set_classes = _template(
        flag_record(e), dimension, boundary_dim, e if e in _NAMED else None)
    text = to_text(e)
    if spliced:
        comp_text = complement_text(e, text)
        trace = list(trace)
        for i in spliced:
            step = trace[i]
            trace[i] = TraceStep(step.rule, step.citation, step.targets,
                                 {**step.inputs, "complement": comp_text}, step.verdict)
        trace = tuple(trace)
    report = PropertyReport(
        space=text,
        dimension=dimension,
        properties=dict(properties),
        dim=dim,
        boundary=dict(boundary),
        boundary_dim=boundary_dim,
        trace=trace,
        set_classes=set_classes,
    )
    _assert_coherent(report)
    return report


_IMPLICATION_CHECKS = (
    ("sigma_compact", "second_countable"),
    ("sigma_compact", "perfect"),
    ("sigma_compact", "lindelof"),
    ("second_countable", "lindelof"),
    ("locally_compact", "metrizable"),
)


def _assert_coherent(report: PropertyReport) -> None:
    p = report.properties
    for group in (
        ("lindelof", "normal", "paracompact", "countably_paracompact"),
        ("metrizable", "second_countable", "hereditarily_lindelof"),
        ("boundary_z_embedded", "boundary_cstar_embedded", "normal"),
    ):
        if len({p[name] for name in group}) != 1:
            raise SoundnessError(f"equivalence class {group} split in {report.space}")
    for antecedent, consequent in _IMPLICATION_CHECKS:
        if p[antecedent] is TRUE and p[consequent] is FALSE:
            raise SoundnessError(
                f"implication {antecedent} => {consequent} broken in {report.space}"
            )


def explain(report: PropertyReport, property_name: str) -> list[TraceStep]:
    """The ordered trace steps that produced one property's verdict."""
    names = report.property_names()
    if property_name not in names:
        raise UnknownProperty(f"unknown property {property_name!r}; known: {', '.join(names)}")
    return [s for s in report.trace if property_name in s.targets]
