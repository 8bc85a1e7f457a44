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
        return all3((self, other))

    def __or__(self, other: "Verdict") -> "Verdict":
        return any3((self, other))

    def __bool__(self):  # pragma: no cover
        raise TypeError("three-valued verdicts do not collapse to bool; compare explicitly")


TRUE = Verdict.TRUE
FALSE = Verdict.FALSE
UNKNOWN = Verdict.UNKNOWN


def all3(verdicts) -> Verdict:
    """Kleene conjunction over an iterable: False if any conjunct is False,
    else Unknown if any is Unknown, else True.  Every item is consumed."""
    vs = list(verdicts)
    if FALSE in vs:
        return FALSE
    return UNKNOWN if UNKNOWN in vs else TRUE


def any3(verdicts) -> Verdict:
    """Kleene disjunction over an iterable: True if any disjunct is True,
    else Unknown if any is Unknown, else False.  Every item is consumed."""
    vs = list(verdicts)
    if TRUE in vs:
        return TRUE
    return UNKNOWN if UNKNOWN in vs else FALSE
