"""Characterization rules for the spaces (X_n, tau(A)).

Every verdict about (X_n, tau(A)) or the boundary subspace (L_n, tau(A)|L_n)
is produced by a named rule consuming descriptive-class flags of A (and of
its complement), and every rule records the statement it encodes as a
verbatim citation, so reports are auditable.  Each verdict is set by the
rule step that traces it: the report is read off those steps, so a verdict
and its trace cannot disagree.  Unknown flags propagate to Unknown
verdicts: the engine never guesses.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union as TUnion

from .descriptive import DescClass, SoundnessError, infer_normal
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
    complement,
    normalize_for,
    parse,
    to_text,
)
from .trivalent import FALSE, TRUE, UNKNOWN, Verdict

# Statements quoted verbatim so trace output is auditable.
CIT_SEPARABLE = "the space (X_n, τ(A)) is first-countable and separable"
CIT_TYCHONOFF = "one can prove that the space (X_n, τ(A)) is Tychonoff"
CIT_COMPLETELY_HAUSDORFF = "the space (X_n, τ_N) is completely Hausdorff"
CIT_SECOND_COUNTABLE = "The space (X_n, τ(A)) is second-countable."
CIT_CO_COUNTABLE = "|L_n \\ A| ≤ ℵ₀"
CIT_LOCALLY_COMPACT = (
    "The space (X_n, τ(A)) is locally compact iff A = L_n i. e. τ(A) = τ_E."
)
CIT_PERFECT = (
    "The space (L_n, τ(A)|L_n) is perfect iff A is a G_δ-set in (L_n, (τ_E)|L_n)."
)
CIT_REDUCTION = (
    "(X_n, τ(A)) is perfect (resp. Lindelöf or σ-compact) iff "
    "(L_n, τ(A)|L_n) is the same."
)
CIT_PARACOMPACT = "The space (X_n, τ(A)) is paracompact."
CIT_LINDELOF_LEMMA = (
    "The space (L_n, τ(A)|L_n) is Lindelöf iff L_n \\ A does not contain "
    "a closed uncountable subset of (L_n, (τ_E)|L_n)."
)
CIT_SIGMA_COMPACT = (
    "The space (L_n, τ(A)|L_n) is σ-compact iff A is a F_σ-set in "
    "(L_n, (τ_E)|L_n) and |L_n \\ A| ≤ ℵ₀."
)
CIT_CSTAR = (
    "The subset L_n of (X_n, τ(A)) is C*-embedded in (X_n, τ(A))."
)
CIT_DIM = "dim (X_n, τ(A)) = n"
CIT_DIM_BOUNDARY = "dim (L_n, τ(A)|L_n) = dim A"
CIT_HCWN = "the space (L_n, τ(A)|L_n) is hereditarily collectionwise normal"
CIT_WEAKLY_PARACOMPACT = (
    "neither normal, countably paracompact nor weakly paracompact"
)
CIT_BERNSTEIN_COMPACTA = "do not contain uncountable compacta"
CIT_BERNSTEIN_CLASS = "neither a G_δ-set nor an F_σ-set"
CIT_BERNSTEIN_COROLLARY = "Lindelöf but it is not perfect"
CIT_CANTOR_COROLLARY = "is perfect but it is not Lindelöf"
CIT_DENSE_COUNTABLE_COROLLARY = "neither perfect nor Lindelöf"
CIT_CODENSE_COROLLARY = "second-countable but it is not σ-compact"
CIT_SIGMA_SECOND = (
    "If (X_n, τ(A)) is σ-compact then (X_n, τ(A)) is second-countable."
)

PROPERTY_ORDER = (
    "separable",
    "first_countable",
    "tychonoff",
    "completely_hausdorff",
    "metrizable",
    "second_countable",
    "hereditarily_lindelof",
    "locally_compact",
    "perfect",
    "lindelof",
    "normal",
    "paracompact",
    "countably_paracompact",
    "weakly_paracompact",
    "sigma_compact",
    "boundary_z_embedded",
    "boundary_cstar_embedded",
)

BOUNDARY_ORDER = (
    "hereditarily_collectionwise_normal",
    "perfect",
    "lindelof",
    "sigma_compact",
)


@dataclass(frozen=True)
class TraceStep:
    rule: str
    citation: str
    targets: tuple[str, ...]
    inputs: dict[str, str]
    verdict: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "citation": self.citation,
            "targets": list(self.targets),
            "inputs": dict(self.inputs),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
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
        properties: dict = {name: self.properties[name].value for name in PROPERTY_ORDER}
        properties["dim"] = "unknown" if self.dim is None else self.dim
        boundary: dict = {name: self.boundary[name].value for name in BOUNDARY_ORDER}
        boundary["dim"] = "unknown" if self.boundary_dim is None else self.boundary_dim
        return {
            "space": self.space,
            "dimension": self.dimension,
            "properties": properties,
            "boundary_subspace": boundary,
            "trace": [step.to_json() for step in self.trace],
        }


class UnknownProperty(KeyError):
    """The report has no property of that name."""


# dim A for the primitives of known dimension, given n; every other node
# leaves it open
_BOUNDARY_DIM = NodeTable({
    Empty: lambda n: -1,
    **dict.fromkeys((SinglePoint, FiniteSet, Lattice, Rationals, Cantor), lambda n: 0),
    **dict.fromkeys((ClosedBall, OpenBall, All), lambda n: n - 1),
    **dict.fromkeys((Bernstein, Complement, Union, Inter), lambda n: None),
})


_COROLLARY_ROWS: tuple[tuple[object, str, str, dict[str, Verdict]], ...] = (
    (Bernstein(), "C1", CIT_BERNSTEIN_COROLLARY,
     {"lindelof": TRUE, "perfect": FALSE}),
    (Cantor(), "C2", CIT_CANTOR_COROLLARY,
     {"perfect": TRUE, "lindelof": FALSE}),
    (Rationals(), "C3", CIT_DENSE_COUNTABLE_COROLLARY,
     {"perfect": FALSE, "lindelof": FALSE}),
    (Complement(Rationals()), "C4", CIT_CODENSE_COROLLARY,
     {"second_countable": TRUE, "sigma_compact": FALSE}),
)


def classify(expr: TUnion[SetExpr, str], dimension: int = 2) -> PropertyReport:
    """Full property report for (X_n, tau(A)) and its boundary subspace."""
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    e = parse(expr, dimension) if isinstance(expr, str) else normalize_for(expr, dimension)
    desc = infer_normal(e)
    comp = complement(e)
    comp_desc = infer_normal(comp)

    trace: list[TraceStep] = []
    settled: dict[str, Verdict] = {}  # every verdict, under its public name

    def step(rule, citation, targets, inputs, verdict):
        trace.append(TraceStep(rule, citation, tuple(targets), dict(inputs), verdict))

    def settle(rule, citation, targets, inputs, verdict: Verdict):
        step(rule, citation, targets, inputs, verdict.value)
        for name in targets:
            settled[name] = verdict

    # R7: constants of the construction
    for name, citation in (
        ("separable", CIT_SEPARABLE),
        ("first_countable", CIT_SEPARABLE),
        ("tychonoff", CIT_TYCHONOFF),
        ("completely_hausdorff", CIT_COMPLETELY_HAUSDORFF),
    ):
        settle("R7", citation, (name,), {}, TRUE)

    # R1: the metrizability triple
    settle(
        "R1",
        CIT_SECOND_COUNTABLE,
        ("metrizable", "second_countable", "hereditarily_lindelof"),
        {"co_countable(A)": desc.co_countable.value, "criterion": CIT_CO_COUNTABLE},
        desc.co_countable,
    )

    # R2: local compactness
    settle(
        "R2",
        CIT_LOCALLY_COMPACT,
        ("locally_compact",),
        {"equals_all(A)": desc.equals_all.value},
        desc.equals_all,
    )

    # R3: perfectness
    if isinstance(e, Bernstein) and desc.g_delta is FALSE:
        step(
            "AX-bernstein",
            CIT_BERNSTEIN_CLASS,
            ("perfect",),
            {},
            FALSE.value,
        )
    settle(
        "R3",
        CIT_PERFECT,
        ("perfect", "boundary.perfect"),
        {"g_delta(A)": desc.g_delta.value},
        desc.g_delta,
    )

    # R4: the Lindelöf quadruple via the complement pivot
    quadruple = ("lindelof", "normal", "paracompact", "countably_paracompact")
    pivot = comp_desc.contains_closed_uncountable
    comp_is_bernstein = isinstance(comp, Bernstein) or (
        isinstance(comp, Complement) and isinstance(comp.body, Bernstein)
    )
    if comp_is_bernstein:
        step(
            "AX-bernstein",
            CIT_BERNSTEIN_COMPACTA,
            quadruple,
            {"complement": to_text(comp)},
            pivot.value,
        )
    step(
        "R4-input",
        CIT_LINDELOF_LEMMA,
        quadruple,
        {
            "complement": to_text(comp),
            "contains_closed_uncountable(complement)": pivot.value,
        },
        pivot.value,
    )
    settle(
        "R4",
        CIT_PARACOMPACT,
        quadruple + ("boundary.lindelof",),
        {"contains_closed_uncountable(complement)": pivot.value},
        ~pivot,
    )
    normal = settled["normal"]

    # RW: weak paracompactness is settled only for the tangent-ball extreme
    settle(
        "RW",
        CIT_WEAKLY_PARACOMPACT,
        ("weakly_paracompact",),
        {"equals_empty(A)": desc.equals_empty.value},
        FALSE if desc.equals_empty is TRUE else UNKNOWN,
    )

    # R5: sigma-compactness
    settle(
        "R5",
        CIT_SIGMA_COMPACT,
        ("sigma_compact", "boundary.sigma_compact"),
        {
            "f_sigma(A)": desc.f_sigma.value,
            "co_countable(A)": desc.co_countable.value,
        },
        desc.f_sigma & desc.co_countable,
    )

    # R6: embedding of the boundary hyperplane
    settle(
        "R6",
        CIT_CSTAR,
        ("boundary_z_embedded", "boundary_cstar_embedded"),
        {"normal": normal.value},
        normal,
    )

    # R8: covering dimension, settled only in the normal case
    dim_value: Optional[int] = dimension if normal is TRUE else None
    step(
        "R8",
        CIT_DIM,
        ("dim",),
        {"normal": normal.value},
        "unknown" if dim_value is None else str(dim_value),
    )

    # corollary cross-checks for the flagship boundary sets
    for prim, rule, citation, expected in _COROLLARY_ROWS:
        if e == prim:
            for name, want in expected.items():
                if settled[name] is not want:
                    raise SoundnessError(
                        f"rule output for {name} contradicts the corollary {rule}"
                    )
            step(rule, citation, tuple(expected), {}, "consistent")

    # boundary subspace block
    settle("B1", CIT_HCWN, ("boundary.hereditarily_collectionwise_normal",), {}, TRUE)
    step(
        "B2",
        CIT_REDUCTION,
        ("boundary.perfect", "boundary.lindelof", "boundary.sigma_compact"),
        {name: settled[name].value for name in ("perfect", "lindelof", "sigma_compact")},
        "transferred",
    )
    bdim = _BOUNDARY_DIM[type(e)](dimension)
    step(
        "B3",
        CIT_DIM_BOUNDARY,
        ("boundary.dim",),
        {},
        "unknown" if bdim is None else str(bdim),
    )

    report = PropertyReport(
        space=to_text(e),
        dimension=dimension,
        properties={name: settled[name] for name in PROPERTY_ORDER},
        dim=dim_value,
        boundary={name: settled[f"boundary.{name}"] for name in BOUNDARY_ORDER},
        boundary_dim=bdim,
        trace=tuple(trace),
        set_classes=desc,
    )
    _assert_coherent(report)
    return report


_IMPLICATION_CHECKS = (
    ("sigma_compact", "second_countable", CIT_SIGMA_SECOND),
    ("sigma_compact", "perfect", CIT_SIGMA_COMPACT),
    ("sigma_compact", "lindelof", CIT_SIGMA_COMPACT),
    ("second_countable", "lindelof", CIT_SECOND_COUNTABLE),
    ("locally_compact", "metrizable", CIT_LOCALLY_COMPACT),
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
    for antecedent, consequent, _ in _IMPLICATION_CHECKS:
        if p[antecedent] is TRUE and p[consequent] is FALSE:
            raise SoundnessError(
                f"implication {antecedent} => {consequent} broken in {report.space}"
            )


def explain(report: PropertyReport, property_name: str) -> list[TraceStep]:
    """The ordered trace steps that produced one property's verdict."""
    if property_name not in report.property_names():
        raise UnknownProperty(property_name)
    return [s for s in report.trace if property_name in s.targets]
