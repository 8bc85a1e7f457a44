"""Command-line interface.

Commands: classify, member, nbhd, converge, compare, check, explain.  A
command is one row of ``_COMMANDS``: its help text, its handler and its own
flags; ``build_parser`` adds ``--dimension`` and ``--json`` to each.  A
handler returns what it prints, and ``_main`` is the one place that prints.
``--json`` switches to a machine-readable record; identical invocations
(including seeds) print byte-identical JSON.  Exit codes: 0 success,
1 usage error, 2 expression parse error, 3 verification failure,
4 undecidable-membership abort, 141 (128 + SIGPIPE) when standard output
is closed before the answer is written, as by ``niemytzki check ... | head``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .geometry import Point
from .setdsl import DEFAULT_BUDGET, IN, OUT, UNKNOWN, ParseError, member, parse, parse_rational, to_text

if TYPE_CHECKING:
    from .topology import SequenceFamily, TopologySpec

# setdsl and geometry serve every command.  Each handler imports the other
# modules it uses, so that a cold call loads only those: classify never
# loads topology, and only check loads harness.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFICATION = 3
EXIT_UNDECIDABLE = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE: what a shell shows for a writer whose reader has gone


# membership verdicts on the wire
_MEMBERSHIP_WORDS = {IN: "in", OUT: "out", UNKNOWN: "unknown"}


class UsageError(ValueError):
    pass


def _rational(text: str, what: str) -> Fraction:
    """A ``rat`` flag value, read as the expression parser reads one."""
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise UsageError(f"bad rational in {what}: {exc}") from exc


def _fractions(text: str, want: int, what: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != want:
        raise UsageError(f"{what} needs {want} coordinate(s), got {len(parts)}")
    return tuple(_rational(p, what) for p in parts)


def _parse_topology(text: str, dimension: int) -> TopologySpec:
    from .topology import TopologySpec

    name = text.strip().lower()
    if name == "euclidean":
        return TopologySpec.euclidean(dimension)
    if name == "niemytzki":
        return TopologySpec.niemytzki(dimension)
    return TopologySpec.modified(text, dimension)


_FAMILY_RE = re.compile(
    r"\s*(?P<name>vertical|tangent-circle)\s*\(\s*\((?P<coords>[^)]*)\)\s*;\s*(?P<param>[^)]+)\)\s*"
)


def _parse_family(text: str, dimension: int) -> SequenceFamily:
    from .topology import TangentCircle, Vertical

    m = _FAMILY_RE.fullmatch(text)
    if m is None:
        raise UsageError(
            "family syntax: vertical((coords);rat) or tangent-circle((coords);rat)"
        )
    coords = _fractions(m.group("coords"), dimension - 1, "family anchor")
    param = _rational(m.group("param"), "family parameter")
    anchor = Point.boundary(*coords)
    if m.group("name") == "vertical":
        return Vertical(anchor, param)
    return TangentCircle(anchor, param)


def _verdict_lines(block: dict) -> str:
    return "\n".join(f"  {name}: {value}" for name, value in block.items())


def _cmd_classify(args) -> tuple:
    from .theorems import classify

    report = classify(args.set, args.dimension)
    payload = report.to_json()
    payload["set_classes"] = report.set_classes.to_json()
    human = (
        f"space: {report.space}   dimension: {report.dimension}\n"
        + _verdict_lines(payload["properties"])
        + "\nboundary subspace:\n"
        + _verdict_lines(payload["boundary_subspace"])
        + "\n(use `explain` for rule citations)"
    )
    return payload, human


def _cmd_member(args) -> tuple:
    expr = parse(args.set, args.dimension)
    point = _fractions(args.point, args.dimension - 1, "--point")
    word = _MEMBERSHIP_WORDS[member(expr, point)]
    payload = {
        "set": to_text(expr),
        "point": [str(c) for c in point],
        "membership": word,
    }
    return payload, word


def _cmd_nbhd(args) -> tuple:
    from .topology import local_base_element

    topo = _parse_topology(args.topology, args.dimension)
    point = Point(_fractions(args.point, args.dimension, "--point"))
    eps = _rational(args.eps, "--eps")
    element = local_base_element(topo, point, eps)
    payload = {
        "topology": topo.to_json(),
        "point": point.to_json(),
        "eps": str(eps),
        "neighborhood": element.to_json(),
    }
    human = (
        f"{element.kind} at ({','.join(element.center.to_json())}) "
        f"radius {element.radius}"
    )
    return payload, human


def _cmd_converge(args) -> tuple:
    from .topology import decide_convergence

    topo = _parse_topology(args.topology, args.dimension)
    fam = _parse_family(args.family, args.dimension)
    verdict = decide_convergence(fam, topo)
    payload = {
        "family": fam.to_json(),
        "topology": topo.to_json(),
        **verdict.to_json(),
    }
    if verdict.converges is None:
        human = "inconclusive (finite prefix)"
    elif verdict.converges:
        human = "converges to the anchor\n" + "\n".join(
            f"  certificate: {c.to_json()}" for c in verdict.certificates
        )
    else:
        lines = ["does not converge (the prefix is discrete)"]
        for cert in verdict.certificates:
            record = cert.to_json()
            if record["kind"] == "blocking-neighborhood":
                nbhd = record["neighborhood"]
                lines.append(
                    f"  blocking neighborhood: {nbhd['kind']} at "
                    f"({','.join(nbhd['center'])}) radius {nbhd['radius']}"
                )
            else:
                lines.append(f"  {record['kind']}: {len(record['entries'])} isolating balls")
        human = "\n".join(lines)
    return payload, human


def _cmd_compare(args) -> tuple:
    from .descriptive import compare

    eA = parse(args.set_a, args.dimension)
    eB = parse(args.set_b, args.dimension)
    fwd, _, order = compare(eA, eB, budget=args.budget, seed=args.seed)
    payload = {
        "set_a": to_text(eA),
        "set_b": to_text(eB),
        "subset_a_in_b": fwd.value,
        "relation": order.value,
    }
    return payload, f"tau(A) vs tau(B): {order.value}"


def _cmd_check(args) -> tuple:
    from .harness import SuiteConfig, run_suite

    cfg = SuiteConfig(
        suite=args.suite,
        samples=args.samples,
        seed=args.seed,
        dimension=args.dimension,
    )
    result = run_suite(cfg)
    payload = result.to_json()
    human = (
        f"suite {result.suite} (n={result.dimension}, samples={result.samples}, "
        f"seed={result.seed}): {result.checks} checks, "
        f"{len(result.failures)} failures, {result.elapsed:.2f}s"
    )
    if result.failures:
        first = result.failures[0]
        human += f"\n  first counterexample (sample {first.index}): {first.check} {first.data}"
    return payload, human, EXIT_OK if result.ok else EXIT_VERIFICATION


def _cmd_explain(args) -> tuple:
    from .theorems import classify, explain, verdict_json

    report = classify(args.set, args.dimension)
    steps = explain(report, args.property)
    payload = {
        "space": report.space,
        "property": args.property,
        "verdict": verdict_json(report.verdict(args.property)),
        "trace": [s.to_json() for s in steps],
    }
    lines = [f"{args.property}:"]
    for s in steps:
        lines.append(f"  [{s.rule}] \"{s.citation}\" -> {s.verdict}")
        for key, value in s.inputs.items():
            lines.append(f"        {key} = {value}")
    return payload, "\n".join(lines)


_REQUIRED = {"required": True}

# name -> (help, handler, the command's own flags in help order)
_COMMANDS = {
    "classify": ("property report for (X_n, tau(A))", _cmd_classify, {
        "--set": {**_REQUIRED, "help": "boundary-set expression A"},
    }),
    "member": ("membership of a boundary point in A", _cmd_member, {
        "--set": _REQUIRED,
        "--point": {**_REQUIRED, "help": "n-1 comma-separated rationals (p or p/q)"},
    }),
    "nbhd": ("basic neighborhood of a point", _cmd_nbhd, {
        "--topology": {**_REQUIRED, "help": "euclidean, niemytzki, or a set expression"},
        "--point": {**_REQUIRED, "help": "n comma-separated rationals (p or p/q)"},
        "--eps": {**_REQUIRED, "help": "a positive rational (p or p/q)"},
    }),
    "converge": ("convergence of a closed-form family", _cmd_converge, {
        "--family": {**_REQUIRED, "help": "vertical((coords);rat) or tangent-circle((coords);rat)"},
        "--topology": _REQUIRED,
    }),
    "compare": ("order of tau(A) versus tau(B)", _cmd_compare, {
        "--set-a": _REQUIRED,
        "--set-b": _REQUIRED,
        "--budget": {"type": int, "default": DEFAULT_BUDGET},
        "--seed": {"type": int, "default": 0},
    }),
    "check": ("run a verification suite", _cmd_check, {
        "--suite": {**_REQUIRED, "help": "one of S1, S2, S3, S4, S5, S6, S7"},
        "--samples": {"type": int, "default": 10_000},
        "--seed": {"type": int, "default": 42},
    }),
    "explain": ("trace one property's verdict", _cmd_explain, {
        "--set": _REQUIRED,
        "--property": _REQUIRED,
    }),
}


class _Parser(argparse.ArgumentParser):
    """argparse as Python 3.13 reads a lone ``--`` flag value (``--set=--``):
    as that text, which the flag's type then reads.  Before 3.13 argparse
    drops it and hands the flag ``[]``, which no command expects."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.option_strings:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="niemytzki",
        description="Exact classification of tangent-ball topologies on the closed half-space.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, flags) in _COMMANDS.items():
        p = commands.add_parser(name, help=text)
        p.add_argument("--dimension", type=int, default=2, help="session dimension n >= 2 (default 2)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


_NEGATIVE_VALUE_RE = re.compile(r"-[\d./]")


def _attach_point_values(argv: list[str]) -> list[str]:
    """Join a value such as ``-1/2`` or ``-1,2`` to the ``--point`` before
    it: argparse would read the separate word as an unknown option."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--point" and _NEGATIVE_VALUE_RE.match(word):
            out[-1] = f"--point={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so a closed pipe is found here, not at exit
    except BrokenPipeError:
        # as the SIGPIPE note of Python's signal documentation does: what is
        # still buffered goes to devnull, so the flush at exit cannot fail
        # again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


# The classes _main maps to exit codes live in modules a command may not have
# loaded.  An except clause's expression is evaluated only when an exception
# reaches that clause, so these imports are paid on the error path alone.
def _undecidable() -> type:
    from .topology import UndecidableMembership

    return UndecidableMembership


def _usage_errors() -> tuple[type, ...]:
    # UsageError and harness.UnknownSuite are ValueErrors
    from .harness import SamplingError
    from .theorems import UnknownProperty

    return (UnknownProperty, SamplingError, ValueError)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        payload, human, *code = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _undecidable() as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(payload, indent=2, ensure_ascii=False) if args.json else human)
    return code[0] if code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
