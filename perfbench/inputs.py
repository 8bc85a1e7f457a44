"""Seeded inputs for every workload, built without importing the program.

Everything here depends only on the workload seed and the standard library,
so one seed yields byte-identical inputs whatever the code under test does.
Boundary-set expressions live on a small AST of plain tuples:

    ("empty",) ("all",) ("rationals",) ("lattice",) ("cantor",) ("bernstein",)
    ("point", coords)  ("finite", (coords, ...))
    ("cball", coords, radius)  ("oball", coords, radius)
    ("not", e)  ("or", (e, ...))  ("and", (e, ...))

with coordinates as tuples of ``Fraction``.  ``evaluate`` is an independent
three-valued membership oracle for that AST; it shares no code with the
program, so it can probe the program's subset claims.
"""

from __future__ import annotations

import random
from fractions import Fraction

PLAIN = ("empty", "all", "rationals", "lattice", "cantor", "bernstein")

# The flagship rows of the README, as (text, property -> verdict) at n = 2.
FLAGSHIP = (
    ("empty", {"perfect": "true", "lindelof": "false", "normal": "false",
               "countably_paracompact": "false", "weakly_paracompact": "false"}),
    ("all", {"metrizable": "true", "locally_compact": "true"}),
    ("rationals", {"perfect": "false", "lindelof": "false"}),
    ("!rationals", {"second_countable": "true", "sigma_compact": "false"}),
    ("cantor", {"perfect": "true", "lindelof": "false"}),
    ("!cantor", {"perfect": "true", "lindelof": "false"}),
    ("bernstein", {"lindelof": "true", "normal": "true", "perfect": "false"}),
)

SUITES = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")
DIMENSIONS = (2, 3, 4)
# Samples per run_suite call; S5 takes it as the certified prefix length.
SUITE_SAMPLES = {"S1": 200, "S2": 200, "S3": 200, "S4": 200, "S5": 40, "S6": 100, "S7": 100}

# Doubling ladder of union widths; one expression per rung and round.
WIDE_LADDER = (8, 16, 32, 64, 128)

CLI_PROPERTIES = ("lindelof", "perfect", "normal", "metrizable", "sigma_compact",
                  "locally_compact", "boundary.perfect", "boundary.lindelof")


def rng_for(*parts) -> random.Random:
    """An independent stream per (workload, seed, round, ...) key."""
    return random.Random(":".join(str(p) for p in parts))


# --- expressions -------------------------------------------------------------

def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 8))


def _coords(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    return tuple(_rat(rng) for _ in range(m))


def _primitive(rng: random.Random, m: int) -> tuple:
    roll = rng.randint(0, 9)
    if roll <= 5:
        return (PLAIN[roll],)
    if roll == 6:
        return ("point", _coords(rng, m))
    if roll == 7:
        return ("finite", tuple(_coords(rng, m) for _ in range(rng.randint(1, 3))))
    radius = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    return ("cball" if roll == 8 else "oball", _coords(rng, m), radius)


def random_ast(rng: random.Random, m: int, depth: int = 4) -> tuple:
    """Expression of depth <= depth over R^m with the profile of the
    program's own corpora: 1/2 primitives, 1/6 each complement, union and
    intersection of 2-3 members."""
    if depth <= 0:
        return _primitive(rng, m)
    roll = rng.randint(0, 5)
    if roll <= 2:
        return _primitive(rng, m)
    if roll == 3:
        return ("not", random_ast(rng, m, depth - 1))
    members = tuple(random_ast(rng, m, depth - 1) for _ in range(rng.randint(2, 3)))
    return ("or" if roll == 4 else "and", members)


def mentions(e: tuple, name: str) -> bool:
    if e[0] == name:
        return True
    if e[0] == "not":
        return mentions(e[1], name)
    if e[0] in ("or", "and"):
        return any(mentions(x, name) for x in e[1])
    return False


def _ctext(coords) -> str:
    return ",".join(str(c) for c in coords)


def to_text(e: tuple) -> str:
    """Fully parenthesised text in the program's expression grammar."""
    kind = e[0]
    if kind in PLAIN:
        return kind
    if kind == "point":
        return f"point({_ctext(e[1])})"
    if kind == "finite":
        return "finite{" + ";".join(_ctext(p) for p in e[1]) + "}"
    if kind in ("cball", "oball"):
        return f"{kind}({_ctext(e[1])};{e[2]})"
    if kind == "not":
        return "!" + to_text(e[1])
    sep = " | " if kind == "or" else " & "
    return "(" + sep.join(to_text(x) for x in e[1]) + ")"


# --- the independent membership oracle ------------------------------------------

def in_cantor(x: Fraction) -> bool:
    """Middle-thirds membership from the greedy ternary digits of x.

    A digit 1 is allowed only as the last nonzero digit (0.1 = 0.0222...);
    a repeated remainder means the expansion cycles without a bad digit.
    """
    if x < 0 or x > 1:
        return False
    if x == 1:
        return True
    q, r, seen = x.denominator, x.numerator, set()
    while r and r not in seen:
        seen.add(r)
        digit, r = divmod(3 * r, q)
        if digit == 1:
            return r == 0
    return True


def _sq(p, q) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p, q))


def evaluate(e: tuple, p: tuple[Fraction, ...]):
    """Membership of the rational point p: True, False, or None (unknowable)."""
    kind = e[0]
    if kind in ("all", "rationals"):
        return True  # every representable point is rational
    if kind == "empty":
        return False
    if kind == "bernstein":
        return None
    if kind == "lattice":
        return all(c.denominator == 1 for c in p)
    if kind == "cantor":
        return all(c == 0 for c in p[1:]) and in_cantor(p[0])
    if kind == "point":
        return p == e[1]
    if kind == "finite":
        return p in e[1]
    if kind == "cball":
        return _sq(p, e[1]) <= e[2] ** 2
    if kind == "oball":
        return _sq(p, e[1]) < e[2] ** 2
    if kind == "not":
        v = evaluate(e[1], p)
        return None if v is None else not v
    values = [evaluate(x, p) for x in e[1]]
    decisive = kind == "or"  # True decides a union, False an intersection
    if decisive in values:
        return decisive
    return None if None in values else not decisive


def probe_points(e: tuple, m: int, rng: random.Random, extra: int = 40) -> list:
    """Points near every feature of e, plus seeded random rationals."""
    pts: list[tuple[Fraction, ...]] = []

    def walk(node):
        kind = node[0]
        if kind == "point":
            pts.append(node[1])
        elif kind == "finite":
            pts.extend(node[1])
        elif kind in ("cball", "oball"):
            c, r = node[1], node[2]
            for t in (Fraction(0), r / 3, r, -r, r * Fraction(9, 8)):
                pts.append((c[0] + t,) + c[1:])
        elif kind == "cantor":
            pts.extend((Fraction(a, 9),) + (Fraction(0),) * (m - 1) for a in range(10))
        elif kind == "lattice":
            pts.append((Fraction(1),) * m)
        elif kind == "not":
            walk(node[1])
        elif kind in ("or", "and"):
            for x in node[1]:
                walk(x)

    walk(e)
    for _ in range(extra):
        pts.append(tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(m)))
    return list(dict.fromkeys(pts))


# --- workload inputs ----------------------------------------------------------------

def suite_round(seed: int, r: int) -> list[tuple[str, int, int, int]]:
    """One run_suite call per suite and dimension: (suite, n, samples, seed)."""
    rng = rng_for("suites", seed, r)
    return [(s, n, SUITE_SAMPLES[s], rng.randint(0, 2**31 - 1))
            for s in SUITES for n in DIMENSIONS]


# Rounds in the corpus and CLI libraries.  A compare of two random
# expressions costs anywhere from 0.1 ms to over 150 ms, depending on
# whether the witness search runs its full budget, and a converge from
# 0.2 s to 0.6 s, so a fresh sample of a few hundred operations per seed
# moves a session's p90 and throughput by 10-50 %.  Every seed therefore
# runs the same library, drawn once from the profile above; the seed sets
# the order of its rounds and of the operations in each.
CORPUS_LIBRARY = 48
CLI_LIBRARY = 15


def _from_library(make, size: int, name: str, seed: int, r: int) -> list:
    """Round r of a session over a library of `size` rounds: each pass runs
    every library round once, in an order set by the seed."""
    passes, i = divmod(r, size)
    order = list(range(size))
    rng_for(name + "-order", seed, passes).shuffle(order)
    ops = make(order[i])
    rng_for(name + "-shuffle", seed, r).shuffle(ops)
    return ops


def corpus_library_round(lib: int) -> list[tuple]:
    """40 operations: 30 classify (one of them a flagship row) and 10
    compare of two independent random expressions.

    classify ops are ("classify", text, n, None, flagship expectations or
    None); compare ops are ("compare", text_a, n, text_b, (ast_a, ast_b)).
    """
    rng = rng_for("corpus", lib)
    ops = []
    for i in range(40):
        n = rng.choice((2, 3))
        if i == 0:
            text, expected = FLAGSHIP[lib % len(FLAGSHIP)]
            ops.append(("classify", text, 2, None, expected))
        elif i % 4 != 3:
            ops.append(("classify", to_text(random_ast(rng, n - 1)), n, None, None))
        else:
            a, b = random_ast(rng, n - 1), random_ast(rng, n - 1)
            ops.append(("compare", to_text(a), n, to_text(b), (a, b)))
    return ops


def corpus_round(seed: int, r: int) -> list[tuple]:
    return _from_library(corpus_library_round, CORPUS_LIBRARY, "corpus", seed, r)


def wide_members(rng: random.Random, k: int) -> list[str]:
    """k distinct points on [0, k) and k/4 disjoint closed balls left of 0,
    interleaved; the union is closed, compact and uncountable, and no later
    member lies inside an earlier one."""
    members, balls = [], 0
    for i in range(k):
        members.append(f"point({Fraction(i) + Fraction(rng.randint(0, 49), 50)})")
        if i % 4 == 3:
            members.append(f"cball({-3 - 3 * balls};{Fraction(rng.randint(1, 4), 4)})")
            balls += 1
    return members


def wide_round(seed: int, r: int) -> list[tuple[int, str, str]]:
    """(k, union text, first-half sub-union text) per expression."""
    rng = rng_for("wide", seed, r)
    out = []
    for k in WIDE_LADDER:
        members = wide_members(rng, k)
        out.append((k, " | ".join(members), " | ".join(members[: len(members) // 2])))
    return out


def _boundary_point(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m))


def _topology(rng: random.Random, m: int) -> str:
    roll = rng.randint(0, 3)
    if roll == 0:
        return "euclidean"
    if roll == 1:
        return "niemytzki"
    e = random_ast(rng, m, 2)
    while mentions(e, "bernstein"):  # boundary membership must be decidable
        e = random_ast(rng, m, 2)
    return to_text(e)


def cli_round(seed: int, r: int) -> list[list[str]]:
    return _from_library(cli_library_round, CLI_LIBRARY, "cli", seed, r)


def cli_library_round(lib: int) -> list[list[str]]:
    """One invocation of each of the seven commands, on seeded arguments.
    Values that may start with '-' are joined to their option with '='."""
    rng = rng_for("cli", lib)
    out = []
    for kind in ("classify", "compare", "member", "nbhd", "converge", "explain", "check"):
        n = rng.choice((2, 3))
        m = n - 1
        if kind == "classify":
            argv = ["classify", "--set", to_text(random_ast(rng, m, 3))]
        elif kind == "compare":
            argv = ["compare", "--set-a", to_text(random_ast(rng, m, 3)),
                    "--set-b", to_text(random_ast(rng, m, 3)), "--seed", str(rng.randint(0, 99))]
        elif kind == "member":
            argv = ["member", "--set", to_text(random_ast(rng, m, 3)),
                    f"--point={_ctext(_boundary_point(rng, m))}"]
        elif kind == "nbhd":
            topo = _topology(rng, m)
            point = _boundary_point(rng, m) + (Fraction(rng.randint(0, 3), 2),)
            argv = ["nbhd", "--topology", topo, f"--point={_ctext(point)}",
                    "--eps", str(Fraction(rng.randint(1, 8), rng.randint(1, 4)))]
        elif kind == "converge":
            family = rng.choice(("vertical", "tangent-circle"))
            anchor = _ctext(_boundary_point(rng, m))
            param = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            topo = _topology(rng, m)
            argv = ["converge", "--family", f"{family}(({anchor});{param})", "--topology", topo]
        elif kind == "explain":
            argv = ["explain", "--set", to_text(random_ast(rng, m, 3)),
                    "--property", rng.choice(CLI_PROPERTIES)]
        else:
            argv = ["check", "--suite", rng.choice(SUITES), "--samples", "20",
                    "--seed", str(rng.randint(0, 999))]
        out.append(argv + ["--dimension", str(n), "--json"])
    return out
