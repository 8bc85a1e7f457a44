"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the implementation paths they check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm


def cantor_brute(x: Fraction) -> bool:
    """Middle-thirds membership by inspecting the digit expansion(s).

    x is in the Cantor set iff some ternary expansion avoids the digit 1.
    Long division gives the greedy expansion, d_i = floor(3 r / q) and
    r <- 3 r mod q, until a remainder repeats.  Without a 1 it avoids the
    digit.  At its first 1, x is in the set only if the expansion stops
    there, ...1000... = ...0222..., so the division stops at that digit
    instead of running through a period that may be as long as q.
    """
    if x < 0 or x > 1:
        return False
    if x == 1:
        return True  # 0.222... repeating
    q, r = x.denominator, x.numerator
    seen: set[int] = set()
    while r not in seen:
        seen.add(r)
        d, r = divmod(3 * r, q)
        if d == 1:
            return r == 0
    return True


def cantor_meets_ref(lo, hi) -> bool:
    """The closed interval [lo, hi] meets the Cantor set C, in Fractions.

    Clipped to [0, 1], it meets C if an end lies in C (by
    :func:`cantor_brute`).  Otherwise it meets C iff it holds 1/3 or 2/3,
    or lies in a closed third whose part of C is C scaled by 1/3: then it is
    moved onto [0, 1] with that part, its ends still off C.  The width
    triples at each move, and a clipped interval as wide as 1/3 with no end
    in C holds 1/3 or 2/3, so there is no depth cap.
    """
    lo, hi = max(Fraction(lo), Fraction(0)), min(Fraction(hi), Fraction(1))
    if lo > hi:
        return False
    if cantor_brute(lo) or cantor_brute(hi):
        return True
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    while True:
        if lo < third < hi or lo < two_thirds < hi:
            return True
        if hi < third:
            lo, hi = 3 * lo, 3 * hi
        elif lo > two_thirds:
            lo, hi = 3 * lo - 2, 3 * hi - 2
        else:
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


# --- the S1-S4, S6 and S7 suite checks, on public sample records ------------
# A record's points are read as coordinate tuples: a Point through its
# coords, a scaled form (X, d) as X_i / d.  Every check is decided by the
# references above, and S7's by tree_member_ref below.


def sphere_point_ref(a, eps, v) -> tuple[Fraction, ...]:
    """a + s*v with s = 2 eps v_n / |v|^2: where the ray from a along v meets
    the bounding sphere of the tangent ball of parameter eps again."""
    s = 2 * Fraction(eps) * v[-1] / sum(c * c for c in v)
    return tuple(Fraction(c) + s * w for c, w in zip(a, v))


def _text(value) -> str:
    """A failure's data value as the suites print it."""
    if isinstance(value, tuple):
        return "(" + ",".join(map(str, value)) + ")"
    return str(value)


def coords_ref(p) -> tuple:
    """A point's coordinates: a Point's, a scaled form's X_i / d, or the
    tuple itself."""
    if hasattr(p, "coords"):
        return tuple(p.coords)
    if len(p) == 2 and isinstance(p[0], tuple):
        X, d = p
        return tuple(Fraction(c, d) for c in X)
    return tuple(p)


def basic_open_ref(b, x) -> bool:
    """x in the basic open b, read by its class name: {a} ∪ B(a(r), r) for a
    tangent ball at a, B(a, r) ∩ X_n for a half ball, B(a, r) otherwise."""
    a, r, kind = coords_ref(b.center), b.radius, type(b).__name__
    if kind == "TangentBall":
        return in_tangent_ball_ref(x, a, r)
    return in_ball_ref(x, a, r) and (kind != "HalfBall" or x[-1] >= 0)


def _or_ref(a, b):
    if a is True or b is True:
        return True
    return False if a is False and b is False else None


def suite_checks_ref(suite: str, sample: dict) -> tuple[list[str], list[tuple[str, dict]]]:
    """The checks one S1-S4, S6 or S7 record undergoes: each check's name in
    order, and (name, data) for each check that fails, with the data as
    text.  An S1 record is checked at the sphere point of its anchor, eps
    and direction, or at its "x" if it has one.  An S6 record whose x lies
    in both parents also carries the basic open that refine returned for
    it, as "refined", and the three points drawn inside that one, as
    "witnesses"; one whose x does not undergoes the first check alone."""
    names, failures = [], []

    def check(holds, name, **data):
        names.append(name)
        if not holds:
            failures.append((name, {k: _text(v) for k, v in data.items()}))

    coords = coords_ref
    if suite == "S6":
        x, b1, b2 = coords(sample["x"]), sample["b1"], sample["b2"]
        inside = basic_open_ref(b1, x) and basic_open_ref(b2, x)
        check(inside, "construction places x inside", x=x)
        if not inside:  # nothing refines x, so no further check is made
            return names, failures
        refined = sample["refined"]
        check(basic_open_ref(refined, x), "refinement keeps the point", x=x)
        for y in map(coords, sample["witnesses"]):
            check(all(basic_open_ref(b, y) for b in (refined, b1, b2)),
                  "refinement is contained in both parents", x=x, y=y)
        return names, failures
    if suite == "S7":
        from niemytzki.setdsl import to_text  # the data's text alone

        t1, t2, p = ref_tree(sample["e1"]), ref_tree(sample["e2"]), tuple(sample["p"])
        c1, c2 = ("!", t1), ("!", t2)

        def verdict(tree):
            return tree_member_ref(tree, tuple(map(Fraction, p)))

        m1, m2 = verdict(t1), verdict(t2)
        check(verdict(c1) == (None if m1 is None else not m1),
              "complement is three-valued negation", e=to_text(sample["e1"]), p=p)
        check(verdict(("!", ("|", (t1, t2)))) == verdict(("&", (c1, c2))),
              "De Morgan over union", p=p)
        check(verdict(("!", ("&", (t1, t2)))) == verdict(("|", (c1, c2))),
              "De Morgan over intersection", p=p)
        check(verdict(("|", (t1, t1))) == m1, "union is idempotent", p=p)
        check(verdict(("&", (t1, t1))) == m1, "intersection is idempotent", p=p)
        check(verdict(("|", (t1, c1))) is not False, "excluded middle never fails outright", p=p)
        check(verdict(("&", (t1, c1))) is not True, "contradiction never holds outright", p=p)
        check(verdict(("|", (t1, t2))) == _or_ref(m1, m2), "union is Kleene or", p=p)
        check(verdict(("&", (t1, t2))) == _and_ref(m1, m2), "intersection is Kleene and", p=p)
        return names, failures
    a, eps = coords(sample["anchor"]), sample["eps"]
    if suite == "S1":
        x = coords(sample["x"]) if "x" in sample else sphere_point_ref(a, eps, sample["direction"])
        s_in, s_out = sample["s_inside"], sample["s_outside"]
        check(gauge_ref(x, a) == 2 * eps * x[-1], "gauge equality on the sphere",
              anchor=a, eps=eps, x=x)
        check(x != a, "sphere point differs from the anchor", x=x)
        check(not in_tangent_ball_ref(x, a, s_in * eps), "outside every shrunken tangent ball",
              x=x, s=s_in)
        check(not in_tangent_ball_ref(x, a, sample["s_at"] * eps),
              "outside the tangent ball itself", x=x)
        check(in_tangent_ball_ref(x, a, s_out * eps), "inside every enlarged tangent ball",
              x=x, s=s_out)
        # the level is undefined on the boundary, so no boundary point has level one
        check(x[-1] != 0 and level_ref(x, a, eps) == 1, "level one on the sphere", x=x)
        return names, failures
    x = coords(sample["x"])
    if suite == "S2":
        t = level_ref(x, a, eps)
        check(0 < t < 1, "interior level in (0,1)", x=x, t=t)
        check(in_tangent_ball_ref(x, a, eps), "interior point inside", x=x)
        check(gauge_ref(x, a) == 2 * (t * eps) * x[-1], "point sits on its level sphere",
              x=x, t=t)
        check(not in_tangent_ball_ref(x, a, t * eps),
              "level sphere is outside its own tangent ball", x=x, t=t)
        check(in_tangent_ball_ref(x, a, (t + 1) / 2 * eps),
              "strictly larger levels swallow the point", x=x, t=t)
    elif suite == "S3":
        t, gauge = level_ref(x, a, eps), gauge_ref(x, a)
        check(2 * eps * x[-1] > 0, "level equation is nondegenerate", x=x)
        check(gauge == 2 * t * eps * x[-1], "own level satisfies the equality", x=x)
        for wrong in (t / 2, 2 * t, t + Fraction(1, 3)):
            check(gauge != 2 * wrong * eps * x[-1], "no other level satisfies the equality",
                  x=x, t=t, wrong=wrong)
    else:
        s, f = sample["s"], separating_ref(x, a, eps)
        check(0 <= f <= 1, "separating value stays in [0,1]", x=x, f=f)
        check((f < s) == in_tangent_ball_ref(x, a, s * eps), "sublevel identity", x=x, s=s, f=f)
        if x[-1] != 0:
            t = level_ref(x, a, eps)
            check((t < s) == in_tangent_ball_ref(x, a, s * eps), "tangent-ball/level duality",
                  x=x, s=s, t=t)
            check((t < 1) == in_tangent_ball_ref(x, a, eps), "duality at the full parameter",
                  x=x, t=t)
    return names, failures


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


def leaf_holds_ball_ref(leaf, c, r, closed=True) -> bool:
    """The ball (c, r), closed unless told, lies in the leaf: never in a
    point, a finite set or the Cantor set, which hold no ball.  Against a
    complement it reads whether B[c, r] misses the body, which is exact for
    a closed ball and sound for an open one."""
    kind = leaf[0]
    if kind in ("cball", "oball"):
        return ball_within_ref(c, r, closed, leaf[1], leaf[2], kind == "cball")
    if kind == "!cball":
        return ball_disjoint_ref(c, r, leaf[1], leaf[2], True)
    return False


def leaf_misses_ball_ref(leaf, c, r) -> bool:
    """B[c, r] misses the leaf (the Cantor set only on the line, m = 1,
    where the ball is the interval [c - r, c + r])."""
    kind = leaf[0]
    if kind == "point":
        return not ball_member_ref(leaf[1], c, r, True)
    if kind == "finite":
        return not any(ball_member_ref(q, c, r, True) for q in leaf[1])
    if kind in ("cball", "oball"):
        return ball_disjoint_ref(c, r, leaf[1], leaf[2], kind == "cball")
    if kind == "!cball":
        return ball_within_ref(c, r, True, leaf[1], leaf[2], True)
    if kind == "cantor" and len(c) == 1:
        return not cantor_meets_ref(c[0] - r, c[0] + r)
    raise ValueError(f"no reference for {kind} in R^{len(c)}")


def union_holds_ball_ref(members, c, r, closed=True) -> bool:
    """Some member holds the ball (c, r), closed unless told: what a sound
    test may read off a union."""
    return any(leaf_holds_ball_ref(leaf, c, r, closed) for leaf in members)


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


# --- the witness search, every candidate tested ----------------------------
# The structural candidates and the probes are written out here, in
# Fraction arithmetic, and every candidate is decided by tree_member_ref.


def ref_tree(e):
    """A set expression as tree_member_ref spells it, read off each node's
    class name and fields."""
    kind = type(e).__name__
    if kind == "Complement":
        return ("!", ref_tree(e.body))
    if kind in ("Union", "Inter"):
        return ("|" if kind == "Union" else "&", tuple(map(ref_tree, e.members)))
    if kind == "SinglePoint":
        return ("point", e.coords)
    if kind == "FiniteSet":
        return ("finite", e.points)
    if kind in ("ClosedBall", "OpenBall"):
        return ("cball" if kind == "ClosedBall" else "oball", e.center, e.radius)
    return (kind.lower(),)


def _leaves_ref(tree):
    """The leaves of a tree as ref_tree spells it, pre-order, left to right."""
    if tree[0] == "!":
        yield from _leaves_ref(tree[1])
    elif tree[0] in ("|", "&"):
        for member in tree[1]:
            yield from _leaves_ref(member)
    else:
        yield tree


_CANTOR_SAMPLES_REF = (0, 1, Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4),
                       Fraction(1, 9), Fraction(2, 9), Fraction(7, 9), Fraction(8, 9))


def structural_candidates_ref(e, m: int) -> list[tuple[Fraction, ...]]:
    """The witness candidates of e's leaves, pre-order, each once (by its
    Fraction tuple), those of m coordinates: (0, 1/2) on the first axis for
    all and rationals; 0, 1, -1 on it and (1, ..., 1) for lattice; the
    Cantor samples on it; a point leaf's points; a ball's center and the
    points r/2 off it along each axis, and for a closed ball c + r e_1."""
    def on_axis(v):
        return (Fraction(v),) + (Fraction(0),) * (m - 1)

    found = []
    for leaf in _leaves_ref(ref_tree(e)):
        kind = leaf[0]
        if kind in ("all", "rationals"):
            cands = [on_axis(0), on_axis(Fraction(1, 2))]
        elif kind == "lattice":
            cands = [on_axis(0), on_axis(1), on_axis(-1), (Fraction(1),) * m]
        elif kind == "cantor":
            cands = [on_axis(v) for v in _CANTOR_SAMPLES_REF]
        elif kind == "point":
            cands = [leaf[1]]
        elif kind == "finite":
            cands = list(leaf[1])
        elif kind in ("cball", "oball"):
            c, r = tuple(map(Fraction, leaf[1])), Fraction(leaf[2])
            cands = [c] + [c[:i] + (c[i] + s * r / 2,) + c[i + 1:]
                           for i in range(len(c)) for s in (1, -1)]
            if kind == "cball":
                cands.append((c[0] + r,) + c[1:])
        else:
            cands = []
        found += [tuple(map(Fraction, p)) for p in cands]
    return [p for p in dict.fromkeys(found) if len(p) == m]


def probes_ref(m: int) -> list[tuple[Fraction, ...]]:
    """The fixed probe points of R^m, in the order a search tries them."""
    zeros = (Fraction(0),) * (m - 1)
    values = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
              Fraction(1, 3), 5)
    probes = [(Fraction(v),) + zeros for v in values]
    probes += [(Fraction(v),) * m for v in (1, -1, Fraction(1, 2))]
    if m > 1:
        probes += [zeros + (Fraction(v),) for v in (1, 2)]
    return probes


def find_witness_ref(tree, budget: int, seed, m: int):
    """The first of budget candidates in which the tree holds (True): its
    structural candidates, the probes, then the random candidates of seed;
    None if no candidate is a witness."""
    ref = ref_tree(tree)
    fixed = structural_candidates_ref(tree, m) + probes_ref(m)
    for cand in fixed[:budget]:
        if tree_member_ref(ref, cand) is True:
            return tuple(map(Fraction, cand))
    for X, d in random_forms_ref(seed, m, budget - len(fixed)):
        cand = tuple(Fraction(x, d) for x in X)
        if tree_member_ref(ref, cand) is True:
            return cand
    return None


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
    every other entry and the anchor that its open ball admits, or that the
    entry lies in another dimension than the anchor, has a radius that is
    no int or Fraction, or has no interior ball (radius not in (0, height))."""
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
        if len(p) != len(anchor):
            failures.append(f"isolating ball of term {i + 1} lies in another dimension")
            continue
        if not isinstance(radius, (int, Fraction)):
            failures.append(f"isolating ball of term {i + 1} has no exact radius")
            continue
        if not 0 < radius < p[-1]:
            failures.append(f"isolating ball of term {i + 1} is not an interior ball")
            continue
        for j, q in enumerate(points):
            if j != i and len(q) == len(p) and in_ball_ref(q, p, radius):
                failures.append(f"isolating ball of term {i + 1} admits term {j + 1}")
        if in_ball_ref(anchor, p, radius):
            failures.append(f"isolating ball of term {i + 1} admits the anchor")
    return failures


# --- the flag closure of the descriptive engine ---------------------------------
# A copy of its rows: a flag maps to True or False, and a flag missing from a
# record is Unknown.

_IMPLICATION_ROWS = [
    ({"closed": True}, {"g_delta": True, "f_sigma": True}),
    ({"open": True}, {"g_delta": True, "f_sigma": True}),
    ({"countable": True}, {"f_sigma": True, "contains_closed_uncountable": False,
                           "co_countable": False, "equals_all": False}),
    ({"co_countable": True}, {"g_delta": True, "countable": False, "equals_empty": False}),
    ({"contains_closed_uncountable": True}, {"countable": False, "equals_empty": False}),
    ({"closed": True, "countable": False}, {"contains_closed_uncountable": True}),
    ({"g_delta": True, "countable": False}, {"contains_closed_uncountable": True}),
    ({"closed": True, "contains_closed_uncountable": False}, {"countable": True}),
    ({"g_delta": True, "contains_closed_uncountable": False}, {"countable": True}),
    ({"closed": True, "bounded": True}, {"compact": True}),
    ({"closed": False}, {"compact": False}),
    ({"bounded": False}, {"compact": False}),
    ({"compact": True}, {"closed": True, "bounded": True}),
    ({"bounded": True}, {"equals_all": False}),
    ({"equals_empty": True}, {"countable": True, "closed": True, "open": True, "compact": True,
                              "bounded": True, "equals_all": False,
                              "contains_closed_uncountable": False}),
    ({"equals_all": True}, {"co_countable": True, "closed": True, "open": True,
                            "countable": False, "bounded": False, "equals_empty": False,
                            "contains_closed_uncountable": True}),
    ({"f_sigma": False}, {"closed": False, "open": False, "countable": False, "compact": False,
                          "equals_empty": False, "equals_all": False}),
    ({"g_delta": False}, {"closed": False, "open": False, "co_countable": False,
                          "equals_empty": False, "equals_all": False}),
]

_COMPLEMENT_PAIRS = (("countable", "co_countable"), ("closed", "open"),
                     ("g_delta", "f_sigma"), ("equals_all", "equals_empty"))


class FlagContradiction(ValueError):
    """Two rows settle one flag both ways."""


def _merge_ref(flags: dict, update: dict) -> bool:
    changed = False
    for name, want in update.items():
        if name not in flags:
            flags[name] = want
            changed = True
        elif flags[name] != want:
            raise FlagContradiction(name)
    return changed


def _close_ref(flags: dict) -> dict:
    changed = True
    while changed:
        changed = False
        for premises, conclusions in _IMPLICATION_ROWS:
            if all(name in flags and flags[name] == want for name, want in premises.items()):
                changed |= _merge_ref(flags, conclusions)
    return flags


def _swap_ref(inner: dict) -> dict:
    """What a record says of its complement's flags."""
    out = {dst: inner[src] for x, y in _COMPLEMENT_PAIRS
           for dst, src in ((x, y), (y, x)) if src in inner}
    if inner.get("bounded") is True:
        out["bounded"] = False  # the complement contains the exterior of a ball
    elif inner.get("equals_all") is True:
        out["bounded"] = True  # the complement is empty
    return out


def close_pair_ref(a: dict, b: dict) -> tuple[dict, dict]:
    """The records of a set (a) and of its complement (b), each closed under
    the rows and passed through the swap into the other until neither
    changes.  A contradiction raises FlagContradiction."""
    a, b = _close_ref(dict(a)), _close_ref(dict(b))
    while _merge_ref(a, _swap_ref(b)) | _merge_ref(b, _swap_ref(a)):
        _close_ref(a)
        _close_ref(b)
    return a, b


# --- the property report, from the rule statements ----------------------------
# The rule table of the theorems module docstring, applied to the flag records
# of A and of its complement as infer returns them.  Nothing below reads the
# theorems module.  A verdict is True, False or None for Unknown.

_THREE = {"true": True, "false": False, "unknown": None}


def _and_ref(a, b):
    if a is False or b is False:
        return False
    return True if a is True and b is True else None


def classify_ref(e, n: int) -> dict:
    """The public verdicts, dim and boundary dim of (X_n, tau(A)) for a
    normal tree e, and the rule ids its trace lists, in order."""
    from niemytzki.descriptive import infer
    from niemytzki.setdsl import complement

    comp = complement(e)
    flags = {name: _THREE[v] for name, v in infer(e).to_json().items()}
    comp_flags = {name: _THREE[v] for name, v in infer(comp).to_json().items()}
    pivot = comp_flags["contains_closed_uncountable"]
    normal = None if pivot is None else not pivot  # R4
    p = dict.fromkeys(("separable", "first_countable", "tychonoff", "completely_hausdorff"), True)
    p.update(dict.fromkeys(("metrizable", "second_countable", "hereditarily_lindelof"),
                           flags["co_countable"]))  # R1
    p["locally_compact"] = flags["equals_all"]  # R2
    p["perfect"] = flags["g_delta"]  # R3
    p.update(dict.fromkeys(("lindelof", "normal", "paracompact", "countably_paracompact"), normal))
    p["weakly_paracompact"] = False if flags["equals_empty"] is True else None  # RW
    p["sigma_compact"] = _and_ref(flags["f_sigma"], flags["co_countable"])  # R5
    p["boundary_z_embedded"] = p["boundary_cstar_embedded"] = normal  # R6
    boundary = {"hereditarily_collectionwise_normal": True}  # B1
    boundary.update({name: p[name] for name in ("perfect", "lindelof", "sigma_compact")})  # B2
    kind = ref_tree(e)
    # B3: dim A for a primitive of known dimension (dim of the empty set is -1)
    zero = ("point", "finite", "lattice", "rationals", "cantor")
    boundary_dim = {"empty": -1, **dict.fromkeys(zero, 0),
                    **dict.fromkeys(("cball", "oball", "all"), n - 1)}.get(kind[0])

    rules = ["R7"] * 4 + ["R1", "R2"]
    if kind == ("bernstein",) and flags["g_delta"] is False:  # the axiom on its class
        rules.append("AX-bernstein")
    rules.append("R3")
    if ref_tree(comp) in (("bernstein",), ("!", ("bernstein",))):  # the axiom on compacta
        rules.append("AX-bernstein")
    rules += ["R4-input", "R4", "RW", "R5", "R6", "R8"]
    corollaries = {("bernstein",): "C1", ("cantor",): "C2", ("rationals",): "C3",
                   ("!", ("rationals",)): "C4"}
    rules += [corollaries[kind]] if kind in corollaries else []
    rules += ["B1", "B2", "B3"]
    return {"properties": p, "dim": n if normal is True else None,  # R8
            "boundary": boundary, "boundary_dim": boundary_dim, "rules": rules}


_SYMBOLS_REF = "|&!(){};,/"
_DIGITS_REF = "0123456789"
_LETTERS_REF = "abcdefghijklmnopqrstuvwxyz"


def tokens_ref(text: str):
    """The token texts of an expression, scanned character by character
    without ``re``: the list of texts, or (c, offset) for the first character
    c that is neither whitespace (``str.isspace``) nor the start of a token.
    A token is a run of ASCII digits, led by a "-" only when a digit follows
    it, a run of a-z, or one of the ten symbols."""
    tokens, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        j = i + 1
        if c in _SYMBOLS_REF:
            pass
        elif c in _LETTERS_REF:
            while j < len(text) and text[j] in _LETTERS_REF:
                j += 1
        elif c in _DIGITS_REF or (c == "-" and j < len(text) and text[j] in _DIGITS_REF):
            while j < len(text) and text[j] in _DIGITS_REF:
                j += 1
        else:
            return c, i
        tokens.append(text[i:j])
        i = j
    return tokens
