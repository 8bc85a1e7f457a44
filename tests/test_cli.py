import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from niemytzki import cli, setdsl
from niemytzki.setdsl import random_expr, to_text
from niemytzki.theorems import classify

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "niemytzki.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExitCodes:
    def test_success(self):
        assert run_cli("member", "--set", "cantor", "--point", "1/4").returncode == 0

    def test_usage_error(self):
        assert run_cli("member", "--set", "cantor").returncode == 1
        assert run_cli("nonsense").returncode == 1
        assert run_cli("member", "--set", "cantor", "--point", "1/4,1/2").returncode == 1

    @pytest.mark.parametrize("args", [("check", "--suite", "S1", "--samples", "50"),
                                      ("classify", "--set", "cantor", "--json")])
    def test_a_closed_stdout_exits_141_without_a_traceback(self, args):
        # a pipe whose reader is gone before the first write, as with
        # `niemytzki check ... | head -c 1` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "niemytzki.cli", *args],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_CLOSED_PIPE == 141
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    def test_parse_error(self):
        proc = run_cli("classify", "--set", "cantor |")
        assert proc.returncode == 2
        assert "parse error" in proc.stderr

    def test_verification_failure_exit_is_reserved(self):
        # shipped suites pass; exit 3 is reachable only through a failure
        proc = run_cli("check", "--suite", "S7", "--samples", "40")
        assert proc.returncode == 0

    def test_verification_failure_maps_to_exit_3(self, monkeypatch, capsys):
        from niemytzki import cli, setdsl
        from niemytzki.harness import Failure, SuiteResult

        def broken(cfg):
            result = SuiteResult(suite="S1", dimension=2, samples=1, seed=0)
            result.checks = 1
            result.failures.append(Failure(0, "synthetic", {}))
            return result

        monkeypatch.setattr("niemytzki.harness.run_suite", broken)
        code = cli.main(["check", "--suite", "S1", "--samples", "1", "--json"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_undecidable_abort(self):
        proc = run_cli(
            "nbhd", "--topology", "bernstein", "--point", "0,0", "--eps", "1"
        )
        assert proc.returncode == 4
        assert "undecidable" in proc.stderr

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0

    @pytest.mark.parametrize("argv,code,err", [
        (["check", "--suite", "S9"], 1, "error: unknown suite 'S9'; known: S1, S2, S3, S4, S5, S6, S7\n"),
        (["explain", "--set", "cantor", "--property", "nope"], 1, "error: unknown property 'nope'; known: "),
        (["nbhd", "--topology", "bernstein", "--point", "0,0", "--eps", "1"], 4,
         "undecidable: membership of ['0', '0'] in bernstein is unknown\n"),
        (["nbhd", "--topology", "niemytzki", "--point=0,-1", "--eps", "1"], 1,
         "error: point lies below the boundary hyperplane\n"),
        (["member", "--set", "cantor", "--point", "1,2"], 1,
         "error: --point needs 1 coordinate(s), got 2\n"),
        (["compare", "--set-a", "all", "--set-b", "all", "--budget", "0"], 1,
         "error: budget must be positive\n"),
        (["compare", "--set-a", "empty", "--set-b", "all", "--budget", "0"], 1,
         "error: budget must be positive\n"),
        # refused whatever the sets: before any rule runs, not where the
        # search would be cut at the budget
        (["compare", "--set-a", "all", "--set-b", "all", "--budget", "99999999999999999999"], 1,
         f"error: budget must be at most {sys.maxsize}\n"),
        (["compare", "--set-a", "cball(0;1)", "--set-b", "oball(0;1)",
          "--budget", "99999999999999999999"], 1, f"error: budget must be at most {sys.maxsize}\n"),
        # a lone "--" value is that text on every Python: argparse before
        # 3.13 would hand the command [] instead
        (["classify", "--set=--"], 2, "parse error: unexpected character '-' (at offset 0)\n"),
        (["compare", "--set-a", "all", "--set-b=--"], 2,
         "parse error: unexpected character '-' (at offset 0)\n"),
        (["member", "--set=--", "--point", "1/4"], 2,
         "parse error: unexpected character '-' (at offset 0)\n"),
        (["member", "--set", "cantor", "--point=--"], 1,
         "error: bad rational in --point: unexpected character '-' (at offset 0)\n"),
        (["explain", "--set=--", "--property", "normal"], 2,
         "parse error: unexpected character '-' (at offset 0)\n"),
        (["explain", "--set", "cantor", "--property=--"], 1, "error: unknown property '--'; known: "),
        (["nbhd", "--topology=--", "--point", "0,1", "--eps", "1"], 2,
         "parse error: unexpected character '-' (at offset 0)\n"),
        (["nbhd", "--topology", "niemytzki", "--point=--", "--eps", "1"], 1,
         "error: --point needs 2 coordinate(s), got 1\n"),
        (["nbhd", "--topology", "niemytzki", "--point", "0,1", "--eps=--"], 1,
         "error: bad rational in --eps: unexpected character '-' (at offset 0)\n"),
        (["converge", "--family=--", "--topology", "euclidean"], 1,
         "error: family syntax: vertical((coords);rat) or tangent-circle((coords);rat)\n"),
        (["check", "--suite=--"], 1, "error: unknown suite '--'; known: "),
    ], ids=["unknown-suite", "unknown-property", "undecidable", "point-below-boundary",
            "point-arity", "budget-all-all", "budget-empty-all", "large-budget-all-all",
            "large-budget-balls", "dashes-classify-set", "dashes-compare-set-b",
            "dashes-member-set", "dashes-member-point", "dashes-explain-set",
            "dashes-explain-property", "dashes-nbhd-topology", "dashes-nbhd-point",
            "dashes-nbhd-eps", "dashes-converge-family", "dashes-check-suite"])
    def test_each_caught_error_has_its_exit_code_and_line(self, argv, code, err, capsys):
        assert cli.main(argv) == code
        out, printed = capsys.readouterr()
        assert out == "" and printed.startswith(err)
        assert printed.count("\n") == 1

    @pytest.mark.parametrize("argv, code, err", [
        (["member", "--set", "point(\u0663)", "--point", "3"], 2,
         "parse error: unexpected character '\u0663' (at offset 6)\n"),
        (["member", "--set", "cantor", "--point", "\u0661/\u0664"], 1,
         "error: bad rational in --point: unexpected character '\u0661' (at offset 0)\n"),
        (["nbhd", "--topology", "niemytzki", "--point", "0,1", "--eps", "\u0661"], 1,
         "error: bad rational in --eps: unexpected character '\u0661' (at offset 0)\n"),
        (["converge", "--family", "vertical((\u0660);1)", "--topology", "euclidean"], 1,
         "error: bad rational in family anchor: unexpected character '\u0660' (at offset 0)\n"),
    ], ids=["set", "point", "eps", "family"])
    def test_a_non_ascii_digit_is_refused(self, argv, code, err, capsys):
        assert cli.main(argv) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("argv", [
        ["compare", "--set-a", "all", "--set-b", "all", "--budget=--"],
        ["compare", "--set-a", "all", "--set-b", "all", "--seed=--"],
        ["check", "--suite", "S1", "--samples=--"],
        ["check", "--suite", "S1", "--seed=--"],
        ["classify", "--set", "all", "--dimension=--"],
    ], ids=["budget", "compare-seed", "samples", "check-seed", "dimension"])
    def test_a_lone_dashes_value_of_an_int_flag_is_a_usage_error(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, printed = capsys.readouterr()
        assert out == "" and printed.endswith("invalid int value: '--'\n")

    def test_a_sampling_error_is_a_usage_error(self, monkeypatch, capsys):
        from niemytzki.harness import SamplingError

        def exhausted(cfg):
            raise SamplingError("rejection sampler exhausted")

        monkeypatch.setattr("niemytzki.harness.run_suite", exhausted)
        assert cli.main(["check", "--suite", "S1", "--samples", "1"]) == 1
        assert capsys.readouterr().err == "error: rejection sampler exhausted\n"

    def test_suite_help_names_every_suite(self):
        from niemytzki.harness import suite_names

        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        (suite,) = [a for a in commands.choices["check"]._actions if a.dest == "suite"]
        assert suite.help == f"one of {', '.join(suite_names())}"


# one valid call of each command; check's --samples 0 shows that the
# dimension is refused before any other argument is read
SEVEN_COMMANDS = [
    ["classify", "--set", "cantor"],
    ["member", "--set", "cantor", "--point", "1/4"],
    ["nbhd", "--topology", "niemytzki", "--point", "0,0", "--eps", "1"],
    ["converge", "--family", "vertical((0);1)", "--topology", "euclidean"],
    ["compare", "--set-a", "empty", "--set-b", "all"],
    ["check", "--suite", "S1", "--samples", "0"],
    ["explain", "--set", "cantor", "--property", "lindelof"],
]


@pytest.mark.parametrize("dimension", ["1", "0"])
@pytest.mark.parametrize("argv", SEVEN_COMMANDS, ids=lambda argv: argv[0])
def test_every_command_refuses_a_dimension_below_two(argv, dimension, capsys):
    assert cli.main([*argv, "--dimension", dimension]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: dimension must be at least 2\n")


# what a call of each command must not import: a cold call pays for the
# modules it loads.  No command loads dataclasses or inspect: the records are
# made by geometry._record.
_FOOTPRINT = r"""
import contextlib, io, json, sys
import niemytzki
print(json.dumps(sorted(m for m in sys.modules if m.startswith("niemytzki."))))
from niemytzki import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("niemytzki."))))
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""


@pytest.mark.parametrize("argv,absent", [
    (["classify", "--set", "cantor | point(1/2)"], {"harness", "topology"}),
    (["compare", "--set-a", "cantor", "--set-b", "rationals"], {"harness", "topology"}),
    (["member", "--set", "cantor", "--point", "1/4"], {"harness", "topology"}),
    (["explain", "--set", "cantor", "--property", "perfect"], {"harness", "topology"}),
    (["nbhd", "--topology", "cantor", "--point", "0,1", "--eps", "1"], {"harness"}),
    (["converge", "--family", "vertical((0);1)", "--topology", "niemytzki"], {"harness"}),
    (["check", "--suite", "S5", "--samples", "3"], {"descriptive", "theorems"}),
], ids=["classify", "compare", "member", "explain", "nbhd", "converge", "check"])
def test_a_command_imports_only_what_it_uses(argv, absent):
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_package, after_call, stdlib = (json.loads(line) for line in proc.stdout.splitlines())
    assert after_package == []
    assert {f"niemytzki.{name}" for name in absent}.isdisjoint(after_call), after_call
    assert stdlib == []


class TestCommands:
    def test_classify_bernstein(self):
        proc = run_cli("classify", "--dimension", "3", "--set", "bernstein", "--json")
        data = json.loads(proc.stdout)
        assert data["properties"]["lindelof"] == "true"
        assert data["properties"]["perfect"] == "false"
        assert data["dimension"] == 3

    def test_member_cantor(self):
        proc = run_cli("member", "--dimension", "2", "--set", "cantor",
                       "--point", "1/4", "--json")
        assert json.loads(proc.stdout)["membership"] == "in"

    def test_member_human_output(self):
        proc = run_cli("member", "--set", "cantor", "--point", "1/2")
        assert proc.stdout.strip() == "out"

    def test_nbhd(self):
        proc = run_cli("nbhd", "--topology", "niemytzki", "--point", "0,0",
                       "--eps", "1", "--json")
        data = json.loads(proc.stdout)
        assert data["neighborhood"]["kind"] == "tangent-ball"
        proc = run_cli("nbhd", "--topology", "euclidean", "--point", "0,0",
                       "--eps", "1", "--json")
        assert json.loads(proc.stdout)["neighborhood"]["kind"] == "half-ball"

    def test_converge_tangent_circle(self):
        proc = run_cli("converge", "--dimension", "2", "--family",
                       "tangent-circle((0);1)", "--topology", "niemytzki", "--json")
        data = json.loads(proc.stdout)
        assert data["converges"] is False
        kinds = [c["kind"] for c in data["certificates"]]
        assert "blocking-neighborhood" in kinds

    def test_converge_vertical_euclidean(self):
        proc = run_cli("converge", "--family", "vertical((0);1)",
                       "--topology", "euclidean", "--json")
        assert json.loads(proc.stdout)["converges"] is True

    def test_compare(self):
        proc = run_cli("compare", "--set-a", "empty", "--set-b", "all", "--json")
        assert json.loads(proc.stdout)["relation"] == "finer"

    def test_check_json(self):
        proc = run_cli("check", "--suite", "S1", "--samples", "50", "--json")
        data = json.loads(proc.stdout)
        assert data["ok"] is True
        assert data["failures"] == []

    def test_explain(self):
        proc = run_cli("explain", "--set", "bernstein", "--property", "lindelof",
                       "--json")
        data = json.loads(proc.stdout)
        assert data["verdict"] == "true"
        assert any(s["rule"] == "R4" for s in data["trace"])

    def test_explain_unknown_property(self):
        assert run_cli("explain", "--set", "cantor",
                       "--property", "frobnication").returncode == 1

    def test_explain_unknown_property_names_the_known_ones(self):
        proc = run_cli("explain", "--set", "cantor", "--property", "nonsense")
        known = ", ".join(classify("cantor", 2).property_names())
        assert proc.returncode == 1
        assert proc.stderr == f"error: unknown property 'nonsense'; known: {known}\n"
        assert "Traceback" not in proc.stderr

    def test_modified_topology_expression(self):
        proc = run_cli("nbhd", "--topology", "rationals", "--point", "1/2,0",
                       "--eps", "2", "--json")
        assert json.loads(proc.stdout)["neighborhood"]["kind"] == "half-ball"


def _json_of(capsys, *argv) -> dict:
    assert cli.main([*argv, "--json"]) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


class TestExplainVerdicts:
    """explain --json prints, for every property name, the verdict that
    classify --json prints for it."""

    FLAGSHIP = ("empty", "all", "cantor", "bernstein", "rationals", "!rationals", "lattice")

    @staticmethod
    def _sets():
        rng = random.Random(14)
        corpus = [(to_text(random_expr(rng, n, max_depth=3)), n) for n in (2, 3) for _ in range(6)]
        return [(text, 2) for text in TestExplainVerdicts.FLAGSHIP] + corpus

    def test_explain_prints_the_classify_verdict_of_every_property(self, capsys):
        dims = set()
        for text, n in self._sets():
            common = ("--set", text, "--dimension", str(n))
            record = _json_of(capsys, "classify", *common)
            for name in classify(text, n).property_names():
                block, key = (("boundary_subspace", name[len("boundary."):])
                              if name.startswith("boundary.") else ("properties", name))
                explained = _json_of(capsys, "explain", *common, "--property", name)
                assert explained["verdict"] == record[block][key], (text, n, name)
            dims.add((record["properties"]["dim"], record["boundary_subspace"]["dim"]))
        # a settled and an unsettled dimension, of the space and of its boundary
        assert {d == "unknown" for d, _ in dims} == {True, False}
        assert {b == "unknown" for _, b in dims} == {True, False}


class TestMemberWireWords:
    """member returns a Verdict; only the CLI spells it in / out / unknown."""

    def test_unknown_json(self, capsys):
        assert cli.main(["member", "--set", "bernstein", "--point", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["membership"] == "unknown"

    def test_unknown_human(self, capsys):
        assert cli.main(["member", "--set", "bernstein", "--point", "0"]) == 0
        assert capsys.readouterr().out.strip() == "unknown"

    def test_negative_point_with_equals_form(self, capsys):
        assert cli.main(["member", "--set", "oball(0;1)", "--point=-1/2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["point"] == ["-1/2"]
        assert data["membership"] == "in"


class TestNegativePointWords:
    """A --point value that starts with '-' may be written as its own word."""

    def test_member_negative_pair(self):
        proc = run_cli("member", "--dimension", "3", "--set", "all", "--point", "-1,2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "in"

    def test_member_negative_fraction(self):
        proc = run_cli("member", "--set", "all", "--point", "-1/2", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["point"] == ["-1/2"]

    def test_nbhd_negative_point(self):
        proc = run_cli("nbhd", "--topology", "niemytzki", "--point", "-1,0", "--eps", "1",
                       "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["point"] == ["-1", "0"]


def _nested(depth: int) -> str:
    """Union and intersection alternating `depth` parentheses deep: each
    "(" opens one new tree level."""
    text = "cantor"
    for i in range(depth):
        text = f"(point({i}) {'&|'[i % 2]} {text})"
    return text


def _deepest(depth: int) -> str:
    """A union and an intersection inside each of `depth` parentheses: two
    tree levels per "(", the deepest tree for a given nesting."""
    text = "point(0) | point(1) & cantor"
    for i in range(depth):
        text = f"point({i}) | point({i + 1}) & ({text})"
    return text


def _complemented_union(depth: int) -> str:
    """point | !(point | !(...)): a union at the top, so its complement
    is one level deeper than the expression."""
    text = "cantor"
    for i in range(depth // 2):
        text = f"point({i}) | !({text})"
    return text


class TestHostileInput:
    """Oversized input is a parse error (exit 2), never a traceback."""

    CAP = setdsl._Parser.MAX_DEPTH

    @pytest.mark.parametrize("text", [
        _nested(CAP),
        "!(cball(0;1) | " * (CAP // 2) + "lattice" + ")" * (CAP // 2),
        "!" * CAP + "cantor",
        "(" * CAP + "cantor" + ")" * CAP,
        _deepest(CAP),
        _complemented_union(CAP),
    ], ids=["alternating", "complemented-unions", "bangs", "parentheses", "deepest",
            "union-of-complements"])
    @pytest.mark.parametrize("argv", [
        ["classify", "--set"],
        ["explain", "--property", "lindelof", "--set"],
        ["member", "--point", "1/3", "--set"],
        ["compare", "--set-b", "cball(0;1)", "--set-a"],
    ], ids=lambda argv: argv[0])
    def test_nesting_at_the_cap_runs(self, argv, text, capsys):
        assert cli.main([*argv, text, "--json"]) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("text", [
        _nested(CAP + 1),
        "!" * (CAP + 1) + "cantor",
        "(" * (CAP + 1) + "cantor" + ")" * (CAP + 1),
        "!" * 5000 + "empty",
        "(" * 3000 + "all" + ")" * 3000,
    ], ids=["alternating", "bangs", "parentheses", "5000-bangs", "3000-parentheses"])
    def test_nesting_past_the_cap_is_a_parse_error(self, text, capsys):
        assert cli.main(["classify", "--set", text]) == 2
        err = capsys.readouterr().err
        assert f"nested deeper than {self.CAP}" in err
        assert "offset" in err

    @pytest.mark.parametrize("text, offset", [
        ("cantor " + "a" * 100_000, 7), ("a" * 100_000, 0), ("point(" + "a" * 100_000 + ")", 6),
    ], ids=["trailing", "unknown-primitive", "expected"])
    def test_a_long_token_is_a_parse_error_with_a_short_message(self, text, offset, capsys):
        assert cli.main(["classify", "--set", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f" (the first 64 of 100000 characters) (at offset {offset})\n")
        assert len(err) < 200

    def test_overlong_literal_is_a_parse_error(self, capsys):
        assert cli.main(["classify", "--set", f"point({'7' * 5000})"]) == 2
        assert "(at offset 6)" in capsys.readouterr().err
        assert cli.main(["classify", "--set", f"point(1/{'7' * 5000})"]) == 2
        assert "(at offset 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("limit,digits", [("0", 5000), ("1000", 5000), ("1000", 2000)])
    def test_literal_cap_holds_under_any_interpreter_limit(self, limit, digits):
        # PYTHONINTMAXSTRDIGITS=0 lifts int()'s own digit limit, 1000 lowers it
        proc = subprocess.run(
            [sys.executable, "-m", "niemytzki.cli", "classify", "--set",
             f"point({'7' * digits})"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONINTMAXSTRDIGITS=limit), timeout=30,
        )
        assert proc.returncode == 2
        assert "(at offset 6)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["nbhd", "--topology", "euclidean", "--point", "0,1", "--eps", "1e30000000"],
        ["member", "--set", "all", "--point", "1e30000000"],
        ["converge", "--topology", "niemytzki", "--family", "vertical((0);1e30000000)"],
        ["nbhd", "--topology", "euclidean", "--point", "0,1", "--eps", "0.5"],
        ["member", "--set", "all", "--point", "9" * 5000],
    ], ids=["eps-exponent", "point-exponent", "family-exponent", "eps-decimal",
            "point-5000-digits"])
    def test_rational_flags_take_only_rat(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "niemytzki.cli", *argv], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: bad rational in ")
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("classify", "--dimension", "2", "--set", "bernstein", "--json"),
            ("member", "--set", "cantor", "--point", "1/4", "--json"),
            ("compare", "--set-a", "empty", "--set-b", "all", "--json"),
            ("check", "--suite", "S4", "--samples", "40", "--seed", "42", "--json"),
        ],
    )
    def test_byte_identical_json(self, args):
        first, second = run_cli(*args), run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


# --- mutated input, in process -------------------------------------------------------

_WORDS = ("point(", "finite{", "cball(", "oball(", "cantor", "rationals", "lattice",
          "bernstein", "empty", "all", " | ", " & ", "!", "(", ")", ";", ",", "/", "-",
          "{", "}", "1/2", "0", "7", "99999999999")
_BASES = {n: [to_text(random_expr(random.Random(i), n)) for i in range(6)] for n in (2, 3, 4)}


@st.composite
def _mutated_text(draw, n):
    """A text of the set language at dimension n after up to three random
    insertions, deletions and grammar words."""
    text = draw(st.sampled_from(_BASES[n]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "word")))
        if edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 4)):]
        else:
            piece = draw(st.sampled_from(_WORDS) if edit == "word" else st.characters())
            text = text[:i] + piece + text[i:]
    return text


@st.composite
def _mutated_argv(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    text, other = draw(_mutated_text(n)), draw(_mutated_text(n))
    coords = ",".join(draw(st.sampled_from(("0", "1/2", "-3", "1"))) for _ in range(n))
    command = draw(st.sampled_from(("classify", "member", "explain", "compare", "nbhd")))
    argv = {
        "classify": [f"--set={text}"],
        "member": [f"--set={text}", f"--point={coords.partition(',')[2]}"],
        "explain": [f"--set={text}", "--property=normal"],
        "compare": [f"--set-a={text}", f"--set-b={other}"],
        "nbhd": [f"--topology={text}", f"--point={coords}", "--eps=1/2"],
    }[command]
    return [command, *argv, "--dimension", str(n)]


@settings(max_examples=150, deadline=None)
@given(_mutated_argv())
@example(["classify", "--set=--", "--dimension", "2"])
def test_mutated_input_gets_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code in range(5), (argv, err.getvalue())
