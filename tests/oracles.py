"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the implementation paths they check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm


def ternary_digits(x: Fraction) -> tuple[list[int], bool]:
    """Digits of the eventually periodic ternary expansion of x in [0, 1).

    Long division: d_i = floor(3 r / q), r <- 3 r mod q, stopping when a
    remainder repeats.  Returns (digits up to the first repeated remainder,
    terminating?) where terminating means the expansion ends in zeros.
    """
    p, q = x.numerator, x.denominator
    digits: list[int] = []
    seen: set[int] = set()
    r = p
    while r not in seen:
        seen.add(r)
        d, r = divmod(3 * r, q)
        digits.append(d)
    return digits, r == 0


def cantor_brute(x: Fraction) -> bool:
    """Middle-thirds membership by inspecting the digit expansion(s).

    x is in the Cantor set iff some ternary expansion avoids the digit 1.
    The long-division expansion is the greedy one; when it terminates, the
    alternative expansion (decrement the last nonzero digit, then repeat 2s)
    is inspected as well.
    """
    if x < 0 or x > 1:
        return False
    if x == 1:
        return True  # 0.222... repeating
    digits, terminating = ternary_digits(x)
    if all(d != 1 for d in digits):
        return True
    if terminating:
        last = max(i for i, d in enumerate(digits) if d != 0)
        alternative = digits[:last] + [digits[last] - 1]
        return all(d != 1 for d in alternative)
    return False


# --- the rational kernel, straight from its definitions --------------------
# Points are plain coordinate tuples here; nothing below reads geometry.


def scaled_ref(coords) -> tuple[tuple[int, ...], int]:
    """(X, d) with coords[i] == X[i] / d for the least d > 0: d grows by the
    denominator each coordinate still has once multiplied by it."""
    d = 1
    for c in coords:
        d *= (Fraction(c) * d).denominator
    return tuple(int(Fraction(c) * d) for c in coords), d


def sq_dist_ref(p, q) -> Fraction:
    """|p - q|^2; tuples of different length raise ValueError."""
    return sum(((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q, strict=True)),
               Fraction(0))


def gauge_ref(x, a) -> Fraction:
    """sum_{i<n} (x_i - a_i)^2 + x_n^2."""
    return sq_dist_ref(x[:-1], a[:-1]) + Fraction(x[-1]) ** 2


def in_ball_ref(x, center, radius) -> bool:
    """x in the open Euclidean ball B(center, radius)."""
    return sq_dist_ref(x, center) < Fraction(radius) ** 2


def in_tangent_ball_ref(x, a, eps) -> bool:
    """x in {a} ∪ B(a(eps), eps), with a(eps) = (a_1, ..., a_{n-1}, eps)."""
    return tuple(x) == tuple(a) or in_ball_ref(x, tuple(a[:-1]) + (eps,), eps)


def level_ref(x, a, eps) -> Fraction:
    """The t with gauge(x, a) == 2 * t * eps * x_n."""
    return gauge_ref(x, a) / (2 * Fraction(eps) * Fraction(x[-1]))


def separating_ref(x, a, eps) -> Fraction:
    """0 at a, 1 elsewhere on the boundary, min(level, 1) in the interior."""
    if tuple(x) == tuple(a):
        return Fraction(0)
    if x[-1] == 0:
        return Fraction(1)
    return min(level_ref(x, a, eps), Fraction(1))


def inner_radius_ref(q, center, radius) -> Fraction:
    """(r^2 - |q - center|^2) / (2r)."""
    r = Fraction(radius)
    return (r * r - sq_dist_ref(q, center)) / (2 * r)


# --- the set language's balls, from the same definitions -------------------
# A ball is (center, radius, closed); B[c, r] is the closed ball.


def ball_member_ref(p, center, radius, closed) -> bool:
    """p in the closed ball B[center, radius], or in the open one."""
    d2, r2 = sq_dist_ref(p, center), Fraction(radius) ** 2
    return d2 <= r2 if closed else d2 < r2


def ball_within_ref(c, r, closed, center, radius, outer_closed) -> bool:
    """The ball (c, r) lies in the ball (center, radius): its farthest point
    from the outer center is at distance |c - center| + r, so the test is
    |c - center| <= radius - r, strict only for a closed ball in an open one."""
    room = Fraction(radius) - Fraction(r)
    if room < 0:
        return False
    d2 = sq_dist_ref(c, center)
    return d2 < room ** 2 if closed and not outer_closed else d2 <= room ** 2


def ball_disjoint_ref(c, r, center, radius, outer_closed) -> bool:
    """B[c, r] misses the ball (center, radius): the point of B[c, r] nearest
    the outer center is at distance |c - center| - r when that is positive."""
    return not ball_member_ref(c, center, Fraction(radius) + Fraction(r), outer_closed)


# --- unions of the set language's leaves, member by member ------------------
# A member is ("point", p), ("finite", (p, ...)), ("cball", c, r),
# ("oball", c, r), ("cantor",) or ("!cball", c, r), the complement of the
# closed ball.  Nothing below reads the set language.


def leaf_member_ref(leaf, p) -> bool:
    kind = leaf[0]
    if kind == "point":
        return tuple(p) == tuple(leaf[1])
    if kind == "finite":
        return tuple(p) in map(tuple, leaf[1])
    if kind in ("cball", "oball"):
        return ball_member_ref(p, leaf[1], leaf[2], kind == "cball")
    if kind == "cantor":
        return cantor_brute(Fraction(p[0])) and all(c == 0 for c in p[1:])
    return not ball_member_ref(p, leaf[1], leaf[2], True)


def union_member_ref(members, p) -> bool:
    return any(leaf_member_ref(leaf, p) for leaf in members)


def leaf_holds_ball_ref(leaf, c, r) -> bool:
    """B[c, r] lies in the leaf: never in a point, a finite set or the
    Cantor set, which hold no ball."""
    kind = leaf[0]
    if kind in ("cball", "oball"):
        return ball_within_ref(c, r, True, leaf[1], leaf[2], kind == "cball")
    if kind == "!cball":
        return ball_disjoint_ref(c, r, leaf[1], leaf[2], True)
    return False


def leaf_misses_ball_ref(leaf, c, r) -> bool:
    """B[c, r] misses the leaf (the Cantor set is not covered)."""
    kind = leaf[0]
    if kind == "point":
        return not ball_member_ref(leaf[1], c, r, True)
    if kind == "finite":
        return not any(ball_member_ref(q, c, r, True) for q in leaf[1])
    if kind in ("cball", "oball"):
        return ball_disjoint_ref(c, r, leaf[1], leaf[2], kind == "cball")
    if kind == "!cball":
        return ball_within_ref(c, r, True, leaf[1], leaf[2], True)
    raise ValueError(f"no reference for {kind}")


def union_holds_ball_ref(members, c, r) -> bool:
    """Some member holds B[c, r]: what a sound test may read off a union."""
    return any(leaf_holds_ball_ref(leaf, c, r) for leaf in members)


def union_misses_ball_ref(members, c, r) -> bool:
    return all(leaf_misses_ball_ref(leaf, c, r) for leaf in members)


# --- whole trees, three-valued -------------------------------------------------
# A tree is a leaf as above, one of ("empty",), ("all",), ("rationals",),
# ("lattice",) and ("bernstein",), or ("!", tree), ("|", (tree, ...)) or
# ("&", (tree, ...)).  A verdict is True, False or None for Unknown.  Nothing
# below reads the set language.


def tree_member_ref(tree, p):
    """Membership of p (coordinates as Fractions) by Kleene's strong tables:
    complement swaps True and False, a union is True if a member is, an
    intersection False if a member is, and otherwise Unknown wins over the
    remaining value.  Every representable point is rational, and Bernstein
    sets are Unknown everywhere."""
    kind = tree[0]
    if kind == "!":
        v = tree_member_ref(tree[1], p)
        return None if v is None else not v
    if kind in ("|", "&"):
        decisive = kind == "|"
        verdicts = [tree_member_ref(t, p) for t in tree[1]]
        if any(v is decisive for v in verdicts):
            return decisive
        return None if any(v is None for v in verdicts) else not decisive
    if kind == "empty":
        return False
    if kind in ("all", "rationals"):
        return True
    if kind == "lattice":
        return all(Fraction(c).denominator == 1 for c in p)
    if kind == "bernstein":
        return None
    return leaf_member_ref(tree, p)


# --- the random witness candidates, as the search once drew them ------------
# The loop find_witness ran for every search before its candidates were kept
# in one stream per (seed, m); nothing below reads the set language.


def random_forms_ref(seed, m: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """The integer forms (X, d) of the first count random candidates."""
    forms = []
    rng = random.Random(seed)
    for _ in range(count):
        nums, dens = [], []
        for _ in range(m):
            a, b = rng.randint(-300, 300), rng.randint(1, 100)
            g = gcd(a, b)
            nums.append(a // g)
            dens.append(b // g)
        d = lcm(*dens)
        forms.append((tuple(num * (d // den) for num, den in zip(nums, dens)), d))
    return forms


# --- tangent-circle certificates, every pair checked ------------------------
# A point is a coordinate tuple and an anchor its boundary point; nothing
# below reads topology.


def tangent_circle_term_ref(anchor, eps, k: int) -> tuple[Fraction, ...]:
    """a + (2 eps k/(k^2+1), 0, ..., 0, 2 eps/(k^2+1))."""
    eps, den = Fraction(eps), k * k + 1
    return ((Fraction(anchor[0]) + 2 * eps * k / den,)
            + tuple(Fraction(c) for c in anchor[1:-1]) + (2 * eps / den,))


def isolating_radii_ref(anchor, eps, prefix: int) -> list[tuple[tuple, Fraction]]:
    """Each term with min(1, least squared distance to another term or to
    the anchor, x_n / 2), the distances taken over every pair once."""
    terms = [tangent_circle_term_ref(anchor, eps, k) for k in range(1, prefix + 1)]
    gaps = [sq_dist_ref(p, anchor) for p in terms]
    for i, p in enumerate(terms):
        for j in range(i + 1, prefix):
            d2 = sq_dist_ref(p, terms[j])
            gaps[i], gaps[j] = min(gaps[i], d2), min(gaps[j], d2)
    return [(p, min(Fraction(1), gap, p[-1] / 2)) for p, gap in zip(terms, gaps)]


def isolation_failures_ref(entries, anchor, eps, prefix: int) -> list[str]:
    """The failures of a radii certificate: first each position at which
    the entries differ from terms 1..prefix, then, for each entry in turn,
    every other entry and the anchor that its open ball admits."""
    terms = [tangent_circle_term_ref(anchor, eps, k) for k in range(1, prefix + 1)]
    points = [tuple(p) for p, _ in entries]
    failures = []
    for k in range(1, max(len(points), len(terms)) + 1):
        if k > len(points):
            failures.append(f"radii certificate omits term {k}")
        elif k > len(terms):
            failures.append(f"radii entry {k} lies beyond the prefix")
        elif points[k - 1] != terms[k - 1]:
            failures.append(f"radii entry {k} is not term {k}")
    for i, (p, radius) in enumerate(entries):
        for j, q in enumerate(points):
            if j != i and in_ball_ref(q, p, radius):
                failures.append(f"isolating ball of term {i + 1} admits term {j + 1}")
        if in_ball_ref(anchor, p, radius):
            failures.append(f"isolating ball of term {i + 1} admits the anchor")
    return failures
