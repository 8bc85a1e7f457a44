"""The benchmark's inputs depend on the seed alone."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from perfbench import inputs
from perfbench.tests.conftest import ROOT

# SHA-256 of repr([round(1, 0), round(1, 1)]) for each workload.  A change
# here changes every benchmark input and needs a fresh baseline.
PINNED = {
    "suite_round": "a81d4d56fcd5c127986099bf716ff67f974f6fb2e60872d2f9d9cc613e2881a4",
    "corpus_round": "ae98792bbec08888dc1e7825a66a9052c4f1f59a3f9e0890a685a4c6322fe34f",
    "wide_round": "bf4087b6d3d63c09836e21eea7cb1bc5ef03474ca0419822db0256109437d0e6",
    "cli_round": "8ed71cddcd0ea7f5f02ec9e75a97f8c5acb2347d9c1f06c9fd37e77e66a5cc33",
}

DIGESTS = """
import hashlib, json, sys
from perfbench import inputs
out = {name: hashlib.sha256(repr([getattr(inputs, name)(1, r) for r in range(2)]).encode()).hexdigest()
       for name in %r}
out["program_imported"] = any(m.split(".")[0] == "niemytzki" for m in sys.modules)
print(json.dumps(out))
""" % (sorted(PINNED),)


def test_one_seed_gives_byte_identical_inputs_without_the_program():
    # a child that cannot import the program: src/ is not on its path
    proc = subprocess.run([sys.executable, "-c", DIGESTS], cwd=ROOT, capture_output=True,
                          text=True, env={"PYTHONPATH": str(ROOT)}, check=True)
    got = json.loads(proc.stdout)
    assert got.pop("program_imported") is False
    assert got == PINNED


def test_seeds_and_rounds_differ():
    assert inputs.suite_round(1, 0) != inputs.suite_round(2, 0)
    assert inputs.wide_round(1, 0) != inputs.wide_round(2, 0)
    assert inputs.corpus_round(1, 0) != inputs.corpus_round(1, 1)
    assert inputs.cli_round(1, 0) == inputs.cli_round(1, 0)


@pytest.mark.parametrize("workload, size", [("corpus", inputs.CORPUS_LIBRARY),
                                            ("cli", inputs.CLI_LIBRARY)])
def test_every_seed_runs_the_whole_library_per_pass(workload, size):
    session = getattr(inputs, f"{workload}_round")
    library_round = getattr(inputs, f"{workload}_library_round")

    def one_pass(seed, first):
        return sorted(repr(op) for r in range(first, first + size) for op in session(seed, r))

    library = sorted(repr(op) for lib in range(size) for op in library_round(lib))
    assert one_pass(1, 0) == one_pass(2, 0) == one_pass(1, size) == library
    assert session(1, 0) != session(2, 0)


def test_corpus_mix_is_three_classify_to_one_compare():
    ops = inputs.corpus_library_round(0)
    assert [op[0] for op in ops].count("compare") * 4 == len(ops)


def test_oracle_cantor_digits():
    inside = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
              Fraction(3, 4), Fraction(7, 9), Fraction(1, 10)]
    outside = [Fraction(1, 2), Fraction(5, 9), Fraction(4, 9), Fraction(-1, 3), Fraction(4, 3)]
    assert all(inputs.in_cantor(x) for x in inside)
    assert not any(inputs.in_cantor(x) for x in outside)


def test_oracle_is_three_valued():
    half = (Fraction(1, 2),)
    ball = ("cball", (Fraction(0),), Fraction(1, 2))
    assert inputs.evaluate(ball, half) is True
    assert inputs.evaluate(("oball", (Fraction(0),), Fraction(1, 2)), half) is False
    assert inputs.evaluate(("or", (("bernstein",), ball)), half) is True
    assert inputs.evaluate(("and", (("bernstein",), ball)), half) is None
    assert inputs.evaluate(("and", (("bernstein",), ("empty",))), half) is False
    assert inputs.evaluate(("not", ("lattice",)), half) is True


def test_texts_use_the_program_grammar():
    text = inputs.to_text(("not", ("or", (("point", (Fraction(-1, 2), Fraction(3))),
                                          ("finite", ((Fraction(1), Fraction(0)),)),
                                          ("and", (("cantor",), ("oball", (Fraction(0), Fraction(0)), Fraction(2))))))))
    assert text == "!(point(-1/2,3) | finite{1,0} | (cantor & oball(0,0;2)))"


def test_wide_union_halves_are_proper():
    rng = inputs.rng_for("test")
    members = inputs.wide_members(rng, 16)
    assert len(members) == 20 and len(set(members)) == 20
    assert sum(m.startswith("cball") for m in members) == 4
