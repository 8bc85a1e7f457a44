"""Three-valued (Kleene) verdicts.

The engine is sound but deliberately incomplete: True and False are claims,
Unknown is always an admissible answer.  Conjunction and disjunction follow
Kleene's strong tables, so Unknown absorbs exactly where a missing fact could
still flip the outcome.

Membership of a boundary point is a verdict too: :mod:`niemytzki.setdsl`
names the three values IN, OUT and UNKNOWN, and only the CLI prints them as
the words in / out / unknown.
"""

from __future__ import annotations

from enum import Enum


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __invert__(self) -> "Verdict":
        if self is Verdict.TRUE:
            return Verdict.FALSE
        if self is Verdict.FALSE:
            return Verdict.TRUE
        return Verdict.UNKNOWN

    def __and__(self, other: "Verdict") -> "Verdict":
        return _AND[self, other]

    def __or__(self, other: "Verdict") -> "Verdict":
        return _OR[self, other]

    def __bool__(self):  # pragma: no cover
        raise TypeError("three-valued verdicts do not collapse to bool; compare explicitly")


TRUE = Verdict.TRUE
FALSE = Verdict.FALSE
UNKNOWN = Verdict.UNKNOWN

# Kleene's strong tables: under FALSE < UNKNOWN < TRUE a conjunction is the
# lesser of its two operands and a disjunction the greater.
_ORDER = (FALSE, UNKNOWN, TRUE)
_AND = {(a, b): _ORDER[min(i, j)] for i, a in enumerate(_ORDER) for j, b in enumerate(_ORDER)}
_OR = {(a, b): _ORDER[max(i, j)] for i, a in enumerate(_ORDER) for j, b in enumerate(_ORDER)}
