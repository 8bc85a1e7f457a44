"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as Fr
from pathlib import Path

from niemytzki.descriptive import TopologyOrder, compare_topologies, subset
from niemytzki.harness import SuiteConfig, run_suite
from niemytzki.setdsl import (
    IN,
    All,
    Cantor,
    Empty,
    Inter,
    Union,
    member,
    normalize,
    random_expr,
)
from niemytzki.theorems import classify
from niemytzki.trivalent import FALSE, TRUE

from oracles import cantor_brute

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _passed(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


def test_acceptance_1_catalog_reproduction():
    start = time.perf_counter()
    rows = {
        "empty": {"perfect": TRUE, "lindelof": FALSE, "normal": FALSE,
                  "countably_paracompact": FALSE},
        "all": {"metrizable": TRUE, "locally_compact": TRUE},
        "rationals": {"perfect": FALSE, "lindelof": FALSE},
        "!rationals": {"second_countable": TRUE, "sigma_compact": FALSE},
        "cantor": {"perfect": TRUE, "lindelof": FALSE},
        "!cantor": {"perfect": TRUE, "lindelof": FALSE},
        "bernstein": {"lindelof": TRUE, "normal": TRUE, "perfect": FALSE},
    }
    for text, expected in rows.items():
        report = classify(text, 2)
        for name, want in expected.items():
            got = report.properties[name]
            assert got is want, (text, name, got.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"catalog reproduction took {elapsed:.2f}s"
    _passed(1, "catalog reproduction", f"{len(rows)} boundary sets, {elapsed:.2f}s")


def test_acceptance_2_equivalence_invariants():
    start = time.perf_counter()
    rng = random.Random(2024)
    count = 0
    while count < 200:
        n = 3 if rng.random() < 0.5 else 2
        e = random_expr(rng, n, max_depth=4)
        report = classify(e, n)
        p = report.properties
        quadruple = {p[k] for k in ("lindelof", "normal", "paracompact",
                                    "countably_paracompact")}
        triple = {p[k] for k in ("metrizable", "second_countable",
                                 "hereditarily_lindelof")}
        pair = {p[k] for k in ("boundary_z_embedded", "boundary_cstar_embedded",
                               "normal")}
        assert len(quadruple) == 1, report.space
        assert len(triple) == 1, report.space
        assert len(pair) == 1, report.space
        for ante, cons in (("sigma_compact", "second_countable"),
                           ("second_countable", "lindelof")):
            if p[ante] is TRUE:
                assert p[cons] is not FALSE, (report.space, ante, cons)
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"equivalence corpus took {elapsed:.2f}s"
    _passed(2, "equivalence-theorem invariants", f"{count} expressions, {elapsed:.2f}s")


def test_acceptance_3_geometry_suites():
    start = time.perf_counter()
    runs = 0
    for dimension in (2, 3, 4):
        for suite in ("S1", "S2", "S3", "S4"):
            result = run_suite(
                SuiteConfig(suite, samples=10_000, seed=42, dimension=dimension)
            )
            assert result.failures == [], (suite, dimension, result.failures[:3])
            runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"geometry suites took {elapsed:.2f}s"
    _passed(3, "geometry suites S1-S4",
            f"{runs} runs x 10^4 samples, {elapsed:.2f}s")


def test_acceptance_4_discreteness_certificates():
    start = time.perf_counter()
    for dimension in (2, 3):
        result = run_suite(SuiteConfig("S5", samples=100, seed=42, dimension=dimension))
        assert result.failures == [], (dimension, result.failures[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"discreteness certificates took {elapsed:.2f}s"
    _passed(4, "discreteness certificates S5", f"dims 2 and 3, {elapsed:.2f}s")


def test_acceptance_5_cantor_oracle_equivalence():
    disagreements = 0
    checked = 0
    for q in range(1, 201):
        for p in range(0, q + 1):
            x = Fr(p, q)
            if (member(Cantor(), (x,)) is IN) != cantor_brute(x):
                disagreements += 1
            checked += 1
    assert disagreements == 0
    _passed(5, "Cantor oracle equivalence", f"{checked} rationals, q <= 200")


def test_acceptance_6_poset_monotonicity():
    assert compare_topologies(Empty(), All()) is TopologyOrder.FINER
    rng = random.Random(6)
    pairs = 0
    while pairs < 100:
        base = random_expr(rng, 2, max_depth=2)
        extra = random_expr(rng, 2, max_depth=2)
        shape = rng.randint(0, 3)
        if shape == 0:
            small, big = base, normalize(Union((base, extra)))
        elif shape == 1:
            small, big = normalize(Inter((base, extra))), base
        elif shape == 2:
            small, big = Empty(), base
        else:
            small, big = base, All()
        assert subset(small, big) is TRUE, "pair is structurally provable"
        order = compare_topologies(small, big)
        assert order in (TopologyOrder.FINER, TopologyOrder.EQUAL), (
            order, small, big,
        )
        pairs += 1
    _passed(6, "poset monotonicity", f"{pairs} structural pairs")


def test_acceptance_7_determinism():
    commands = [
        ("classify", "--dimension", "2", "--set", "bernstein", "--json"),
        ("member", "--dimension", "2", "--set", "cantor", "--point", "1/4", "--json"),
        ("nbhd", "--topology", "niemytzki", "--point", "0,0", "--eps", "1", "--json"),
        ("converge", "--family", "tangent-circle((0);1)", "--topology", "niemytzki",
         "--json"),
        ("compare", "--set-a", "empty", "--set-b", "all", "--seed", "0", "--json"),
        ("check", "--suite", "S4", "--samples", "60", "--seed", "42", "--json"),
        ("explain", "--set", "bernstein", "--property", "lindelof", "--json"),
    ]
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "niemytzki.cli", *args],
            capture_output=True,
            env=env,
        )

    for args in commands:
        first, second = run(args), run(args)
        assert first.returncode == second.returncode == 0, args
        assert first.stdout == second.stdout, args
        json.loads(first.stdout)  # well-formed
    _passed(7, "determinism", f"{len(commands)} commands, byte-identical JSON")
