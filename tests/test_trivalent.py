import pytest

from niemytzki.trivalent import FALSE, TRUE, UNKNOWN

T, F, U = TRUE, FALSE, UNKNOWN

# Kleene's strong tables, written out case by case
AND = [(T, T, T), (T, U, U), (T, F, F),
       (U, T, U), (U, U, U), (U, F, F),
       (F, T, F), (F, U, F), (F, F, F)]
OR = [(T, T, T), (T, U, T), (T, F, T),
      (U, T, T), (U, U, U), (U, F, U),
      (F, T, T), (F, U, U), (F, F, F)]


@pytest.mark.parametrize("a, b, want", AND)
def test_and(a, b, want):
    assert a & b is want


@pytest.mark.parametrize("a, b, want", OR)
def test_or(a, b, want):
    assert a | b is want


@pytest.mark.parametrize("a, want", [(T, F), (F, T), (U, U)])
def test_not(a, want):
    assert ~a is want
