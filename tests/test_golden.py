"""Golden digests over fixed seeded corpora.

CLI digest: each of about sixty seeded random expressions (n = 2 and 3) goes
through classify, compare, member and explain, in-process.  The exit codes
and the stdout bytes of every call are hashed together, so any change to a
verdict, a trace, a witness or the JSON layout moves the digest.  Points are
passed as ``--point=<coords>`` because a coordinate may start with '-'.

Inference digest: the full descriptive record, ``infer(e).to_json()``, of
each expression and of its complement, over seeded random corpora (n = 2
and 3) and the README's flagship boundary sets.  No CLI output shows the
complement's record in full, so this pins what the flag engine derives for
it.

Witness-search pin: how often each of the engine's two witness searches,
``_closed_ball_witness`` and ``_point_witness``, runs and what it answers,
over ``infer`` of each expression and of its complement in a seeded corpus
(n = 2 and 3), starting from an empty flag cache.  The digests pin the
answers; this pins the work done to reach them.

Candidate digest: the witness searches' candidate lists, in order, from
``structural_candidates`` and ``descriptive._ball_forms``, unscaled, at the
tree's own arity m and at m + 1, for seeded random expressions and their
complements (n = 2, 3 and 4) and one wide union.  Any change to what a leaf
contributes, to the order or to the deduplication moves the digest.

Witness digest: ``find_witness`` at budgets 1, 5, 40 and 1000 and seeds 0
and 3, on seeded random expressions e, their complements and the gaps
e1 & !e2 between neighbours (n = 2, 3 and 4), and on hand-built gaps whose
witness is a random candidate a/b with gcd(a, b) > 1 (through ``lattice``,
``point`` and ``finite``).  Any change to a candidate, to the order they are
tried in, to a membership answer or to the reduction of a random candidate
moves the digest.

Parse digest: ``parse`` at n = 2, 3 and 4 of about 1,500 seeded ASCII
texts, each the ``to_text`` of a ``random_expr`` tree with zero to three
random inserts, deletes or replaces of grammar characters and words, a few
fixed hostile texts (ending early, nested too deep, literals too long), and
``parse_rational`` of mutated ``rat`` literals.  Each text hashes its canonical text or the
class, message and offset of the error it raises, so any change to what
the parser accepts, to what it builds or to an error's message or offset
moves the digest.

Suite digest: every record of ``generate_samples`` and the JSON of
``run_suite`` for S1-S7 at n = 2 and 3, 60 samples, seed 2405.  Any change to
a sample stream, a check count or a verdict moves the digest.  A second
suite digest does the same for the four sampled suites S2, S3, S4 and S6 at
n = 4, where the rejection samplers turn down the largest share of draws.

When a change is meant to move a digest, recompute them with
``python -m tests.test_golden`` (``PYTHONPATH=src``, from the repository
root) and paste the printed values below.
"""

import collections
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from niemytzki import cli, descriptive
from niemytzki.descriptive import _ball_forms, infer
from niemytzki.geometry import Point, _unscaled
from niemytzki.harness import SuiteConfig, generate_samples, run_suite, suite_names
from niemytzki.setdsl import (
    Cantor,
    ClosedBall,
    Lattice,
    OpenBall,
    Rationals,
    SetExpr,
    SinglePoint,
    Union,
    Inter,
    complement,
    find_witness,
    join,
    parse,
    parse_rational,
    random_expr,
    structural_candidates,
    to_text,
)
from niemytzki.topology import BasicOpen

GOLDEN_SHA256 = "810dd01387a4f6ae8f1c94a300c353f0c797bcb74a0726cadbfca5b3a93c0094"
GOLDEN_SUITE_SHA256 = "cadf7ca4998573c5c951e4794fe71fe42f1f066c01380f04b52dfb873ff02e24"
GOLDEN_SUITE_N4_SHA256 = "be194f85789cef83971ba9fabfb37c60793fef41f2418e94a7743b504b364b43"
GOLDEN_INFERENCE_SHA256 = "037f960f9e2839f1b544c17acc09dccfb42c24344f7dc7241684078002cc0097"
GOLDEN_CANDIDATE_SHA256 = "a93f0b80c0c0a86d36bfdaf835465f4c7aead8d69684fda80993f414dcba8a4b"
GOLDEN_WITNESS_SHA256 = "41ab03164abc479a301ada11c5e0db881c9a3020f54a69991c2d716863b10ced"
GOLDEN_PARSE_SHA256 = "ba5618ae52d3b1a7f344b423cd58b22b43525aa8b9dc19388721b0b3e1cde947"

# (search, answer): calls, from witness_search_counts()
WITNESS_SEARCH_COUNTS = {
    ("closed_ball_witness", False): 844,
    ("closed_ball_witness", True): 641,
    ("point_witness", False): 1296,
    ("point_witness", True): 478,
}

FLAGSHIP_SETS = ("empty", "all", "rationals", "!rationals", "cantor", "!cantor",
                 "bernstein")

PROPERTIES = ("lindelof", "perfect", "normal", "metrizable", "sigma_compact",
              "locally_compact", "boundary.perfect", "boundary.lindelof")


def golden_argvs() -> list[list[str]]:
    rng = random.Random(2405)
    argvs = []
    for n in (2, 3):
        texts = [to_text(random_expr(rng, n)) for _ in range(30)]
        common = ["--dimension", str(n), "--json"]
        for i, text in enumerate(texts):
            point = ",".join(str(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
                             for _ in range(n - 1))
            argvs += [
                ["classify", "--set", text, *common],
                ["compare", "--set-a", text, "--set-b", texts[i - 1], *common],
                ["member", "--set", text, f"--point={point}", *common],
                ["explain", "--set", text, "--property", rng.choice(PROPERTIES), *common],
            ]
    return argvs


def golden_digest() -> str:
    h = hashlib.sha256()
    for argv in golden_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def golden_inference_digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(2405)
    for n in (2, 3):
        exprs = [parse(text, n) for text in FLAGSHIP_SETS]
        exprs += [random_expr(rng, n) for _ in range(200)]
        for e in exprs:
            records = [infer(e).to_json(), infer(complement(e)).to_json()]
            h.update(json.dumps(records, sort_keys=True).encode())
    return h.hexdigest()


def _wide_union(rng: random.Random) -> SetExpr:
    """A union of 48 points, 12 balls of each kind and three plain leaves."""
    def rat() -> Fraction:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 6))

    points = [SinglePoint((rat(),)) for _ in range(48)]
    balls = [kind((rat(),), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
             for kind in (ClosedBall, OpenBall) for _ in range(12)]
    return join(Union, points + balls + [Cantor(), Lattice(), Rationals()])


def golden_candidate_digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(2405)
    exprs = [(random_expr(rng, n), n - 1) for n in (2, 3, 4) for _ in range(120)]
    exprs.append((_wide_union(rng), 1))
    for e, m in exprs:
        for tree in (e, complement(e)):
            for arity in (m, m + 1):
                balls = [(_unscaled(q), r) for _, q, r in _ball_forms(tree, arity)]
                lists = (structural_candidates(tree, arity), balls)
                h.update(repr(lists).encode())
    return h.hexdigest()


# Gaps whose witness at seeds 0 and 3 is a random candidate a/b with b | a
# and b > 1: 273/13 at seed 0 in R, past the lattice's own candidates and
# the probes; 136/8 once 21 is cut out by a point; -300/5 once a finite set
# cuts out 21, 17 and -218 and holds 42/21; (-90/15, 252/1) at seed 3 in R^2.
WITNESS_GAPS = (
    ("lattice & !finite{0;1;-1;2;-2;5}", 2),
    ("lattice & !finite{0;1;-1;2;-2;5} & !point(21)", 2),
    ("lattice & !finite{0;1;-1;2;-2;5;21;17;-218}", 2),
    ("lattice & !finite{0,0;1,0;-1,0;2,0;-2,0;5,0;1,1;-1,-1;0,1;0,2}", 3),
)


def golden_witness_digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(2405)
    gaps = [(parse(text, n), n) for text, n in WITNESS_GAPS]
    for n in (2, 3, 4):
        exprs = [random_expr(rng, n) for _ in range(20)]
        for e1, e2 in zip(exprs, exprs[1:] + exprs[:1]):
            gaps += [(e1, n), (complement(e1), n), (join(Inter, (e1, complement(e2))), n)]
    for gap, n in gaps:
        for seed in (0, 3):
            for budget in (1, 5, 40, 1000):
                h.update(repr(find_witness(gap, budget, seed, dimension=n)).encode())
    return h.hexdigest()


# What a mutation inserts, or puts in place of one character: every
# character of the grammar, words of it and stray ASCII.
PARSE_NOISE = (*"|&!(){};,/- 0123456789", " point(", " finite{", " cball(", " oball(",
               " empty ", " all ", " lattice ", " cantor ", " bernstein ", "pointx", "1/0",
               "-0", "x", "@", ".", "\t", "#")

# Texts few mutations of a small tree reach: input that ends at each place
# the grammar expects more, and the nesting and literal caps and their
# neighbours.
PARSE_FIXED = ("", "   ", "!", "(all", "all |", "all & ", "all)", "point", "point(", "point(1",
               "point(1,", "point(1/", "point(1/2", "finite{", "finite{1;", "finite{1,2",
               "cball(0;", "cball(0,0;", "oball(0;1", "oball(0;1/",
               "(" * 100 + "all" + ")" * 100, "(" * 101 + "all" + ")" * 101, "!" * 100 + "all", "!" * 101 + "all", "point(" + "9" * 4300 + ")",
               "point(" + "9" * 4301 + ")", "point(1/" + "9" * 4301 + ")",
               "point(-" + "9" * 4300 + ")", "cball(0;0)", "oball(0;-1/2)")


def _mutated(rng: random.Random, text: str) -> str:
    """text with zero to three random inserts, deletes or replaces."""
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert":
            text = text[:i] + rng.choice(PARSE_NOISE) + text[i:]
        else:
            text = text[:i] + (rng.choice(PARSE_NOISE) if op == "replace" else "") + text[i + 1:]
    return text


def _parsed(read, text: str) -> str:
    """What read(text) gives, or the class, message and offset it raises."""
    try:
        return repr(read(text))
    except ValueError as exc:  # ParseError, and the depth ValueError
        return f"{type(exc).__name__}: {exc} @ {getattr(exc, 'position', None)}"


def golden_parse_digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(2405)
    for n in (2, 3, 4):
        texts = [_mutated(rng, to_text(random_expr(rng, n))) for _ in range(400)]
        for text in (*PARSE_FIXED, *texts):
            h.update(_parsed(lambda t: to_text(parse(t, n)), text).encode())
    for _ in range(300):
        literal = str(Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        h.update(_parsed(parse_rational, _mutated(rng, literal)).encode())
    return h.hexdigest()


def witness_search_counts() -> dict[tuple[str, bool], int]:
    counts: collections.Counter = collections.Counter()

    def counting(search):
        def counted(e, m):
            found = search(e, m)
            counts[search.__name__.lstrip("_"), found] += 1
            return found
        return counted

    searches = ("_closed_ball_witness", "_point_witness")
    wrapped = {getattr(descriptive, name): counting(getattr(descriptive, name))
               for name in searches}
    patched = {name: wrapped[getattr(descriptive, name)] for name in searches}
    if hasattr(descriptive, "_SEARCHES"):
        # the table binds the functions at import, so it is patched as well;
        # an engine that calls the searches by name needs the names alone
        patched["_SEARCHES"] = tuple(tuple(wrapped.get(x, x) for x in entry)
                                     for entry in descriptive._SEARCHES)
    saved = {name: getattr(descriptive, name) for name in patched}
    rng = random.Random(2024)
    try:
        for name, value in patched.items():
            setattr(descriptive, name, value)
        descriptive._pair_flags.cache_clear()
        for n in (2, 3):
            for _ in range(2000):
                e = random_expr(rng, n, max_depth=4)
                infer(e)
                infer(complement(e))
    finally:
        for name, value in saved.items():
            setattr(descriptive, name, value)
    return dict(counts)


def _plain(value):
    """A JSON-ready form of one sample-record value."""
    if isinstance(value, (Point, BasicOpen)):
        return value.to_json()
    if isinstance(value, SetExpr):
        return to_text(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def golden_suite_digest(suites=None, dimensions=(2, 3)) -> str:
    h = hashlib.sha256()
    for suite in suites or suite_names():
        for n in dimensions:
            cfg = SuiteConfig(suite, samples=60, seed=2405, dimension=n)
            for record in generate_samples(cfg):
                h.update(json.dumps(_plain(record), sort_keys=True).encode())
            h.update(json.dumps(run_suite(cfg).to_json(), sort_keys=True).encode())
    return h.hexdigest()


def golden_suite_n4_digest() -> str:
    return golden_suite_digest(("S2", "S3", "S4", "S6"), dimensions=(4,))


def test_golden_cli_digest():
    assert golden_digest() == GOLDEN_SHA256


def test_golden_suite_digest():
    assert golden_suite_digest() == GOLDEN_SUITE_SHA256


def test_golden_suite_n4_digest():
    assert golden_suite_n4_digest() == GOLDEN_SUITE_N4_SHA256


def test_golden_inference_digest():
    assert golden_inference_digest() == GOLDEN_INFERENCE_SHA256


def test_golden_candidate_digest():
    assert golden_candidate_digest() == GOLDEN_CANDIDATE_SHA256


def test_golden_witness_digest():
    assert golden_witness_digest() == GOLDEN_WITNESS_SHA256


def test_golden_parse_digest():
    assert golden_parse_digest() == GOLDEN_PARSE_SHA256


def test_witness_searches_run_as_often_as_pinned():
    assert witness_search_counts() == WITNESS_SEARCH_COUNTS


if __name__ == "__main__":
    print(f"GOLDEN_SHA256 = {golden_digest()!r}")
    print(f"GOLDEN_SUITE_SHA256 = {golden_suite_digest()!r}")
    print(f"GOLDEN_SUITE_N4_SHA256 = {golden_suite_n4_digest()!r}")
    print(f"GOLDEN_INFERENCE_SHA256 = {golden_inference_digest()!r}")
    print(f"GOLDEN_CANDIDATE_SHA256 = {golden_candidate_digest()!r}")
    print(f"GOLDEN_WITNESS_SHA256 = {golden_witness_digest()!r}")
    print(f"GOLDEN_PARSE_SHA256 = {golden_parse_digest()!r}")
    print(f"WITNESS_SEARCH_COUNTS = {witness_search_counts()!r}")
