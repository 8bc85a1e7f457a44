"""Command-line interface.

Commands: classify, member, nbhd, converge, compare, check, explain.
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


def _parse_point(text: str, dimension: int) -> Point:
    coords = _fractions(text, dimension, "--point")
    try:
        return Point(coords)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_boundary_point(text: str, dimension: int) -> tuple[Fraction, ...]:
    return _fractions(text, dimension - 1, "--point")


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


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(human)


def _verdict_lines(block: dict) -> str:
    return "\n".join(f"  {name}: {value}" for name, value in block.items())


def _cmd_classify(args) -> int:
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
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_member(args) -> int:
    expr = parse(args.set, args.dimension)
    point = _parse_boundary_point(args.point, args.dimension)
    word = _MEMBERSHIP_WORDS[member(expr, point)]
    payload = {
        "set": to_text(expr),
        "point": [str(c) for c in point],
        "membership": word,
    }
    _emit(payload, args.json, word)
    return EXIT_OK


def _cmd_nbhd(args) -> int:
    from .topology import local_base_element

    topo = _parse_topology(args.topology, args.dimension)
    point = _parse_point(args.point, args.dimension)
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
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_converge(args) -> int:
    from .topology import decide_convergence

    topo = _parse_topology(args.topology, args.dimension)
    fam = _parse_family(args.family, args.dimension)
    verdict = decide_convergence(fam, topo, fam.anchor)
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
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_compare(args) -> int:
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
    _emit(payload, args.json, f"tau(A) vs tau(B): {order.value}")
    return EXIT_OK


def _cmd_check(args) -> int:
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
    _emit(payload, args.json, human)
    return EXIT_OK if result.ok else EXIT_VERIFICATION


def _cmd_explain(args) -> int:
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
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dimension", type=int, default=2, help="session dimension n >= 2 (default 2)")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="niemytzki",
        description="Exact classification of tangent-ball topologies on the closed half-space.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("classify", help="property report for (X_n, tau(A))")
    _add_common(p)
    p.add_argument("--set", required=True, help="boundary-set expression A")
    p.set_defaults(handler=_cmd_classify)

    p = commands.add_parser("member", help="membership of a boundary point in A")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True, help="n-1 comma-separated rationals (p or p/q)")
    p.set_defaults(handler=_cmd_member)

    p = commands.add_parser("nbhd", help="basic neighborhood of a point")
    _add_common(p)
    p.add_argument("--topology", required=True, help="euclidean, niemytzki, or a set expression")
    p.add_argument("--point", required=True, help="n comma-separated rationals (p or p/q)")
    p.add_argument("--eps", required=True, help="a positive rational (p or p/q)")
    p.set_defaults(handler=_cmd_nbhd)

    p = commands.add_parser("converge", help="convergence of a closed-form family")
    _add_common(p)
    p.add_argument("--family", required=True, help="vertical((coords);rat) or tangent-circle((coords);rat)")
    p.add_argument("--topology", required=True)
    p.set_defaults(handler=_cmd_converge)

    p = commands.add_parser("compare", help="order of tau(A) versus tau(B)")
    _add_common(p)
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_compare)

    p = commands.add_parser("check", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", required=True, help="one of S1, S2, S3, S4, S5, S6, S7")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_check)

    p = commands.add_parser("explain", help="trace one property's verdict")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--property", required=True)
    p.set_defaults(handler=_cmd_explain)

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
    from .harness import SamplingError, UnknownSuite
    from .theorems import UnknownProperty

    return (UsageError, UnknownSuite, UnknownProperty, SamplingError, ValueError)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _undecidable() as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
