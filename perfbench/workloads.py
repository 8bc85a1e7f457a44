"""The four workloads: inputs, the operation each input makes, and its check.

A workload is a sequence of rounds; round r of seed s is a fixed list of
operations from ``perfbench.inputs``.  ``run`` performs one operation through
the program's public functions and returns its output text; ``check`` judges
that text against facts the benchmark knows independently and returns
(problems, verdicts), where verdicts are the three-valued answers the output
commits to or leaves open.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import selectors
import subprocess
import sys
from pathlib import Path

import niemytzki
from niemytzki import cli, descriptive, harness, setdsl, theorems

from . import inputs

# Program functions are called through their modules, never bound here, so
# the tracer's rebinding of module attributes reaches these calls too.

SRC = Path(niemytzki.__file__).resolve().parent.parent


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8")


def run_child(cmd: list[str], env: dict) -> tuple[int, bytes, bytes, float]:
    """Run cmd to its end: exit code, stdout, stderr and the peak resident
    set of that one child in MB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
            usage.ru_maxrss / 1024)


def clear_caches() -> None:
    """Empty every functools cache in the package, so a pass starts cold."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "niemytzki" or name.startswith("niemytzki.")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _report_verdicts(payload: dict) -> list[str]:
    """Every answer of a property report; a settled dimension is an int."""
    return [str(v) for block in ("properties", "boundary_subspace")
            for v in payload[block].values()]


def _classify_json(text: str, n: int) -> str:
    return json.dumps(theorems.classify(text, n).to_json(), ensure_ascii=False)


def _coherence(props: dict) -> list[str]:
    """The equivalence theorems' invariants on one property report."""
    problems = []
    for group in (("lindelof", "normal", "paracompact", "countably_paracompact"),
                  ("metrizable", "second_countable", "hereditarily_lindelof"),
                  ("boundary_z_embedded", "boundary_cstar_embedded", "normal")):
        if len({props[g] for g in group}) != 1:
            problems.append(f"split equivalence class {group}")
    for ante, cons in (("sigma_compact", "second_countable"),
                       ("second_countable", "lindelof")):
        if props[ante] == "true" and props[cons] == "false":
            problems.append(f"broken implication {ante} => {cons}")
    return problems


def _committed_mismatches(got: dict, want: dict, what: str) -> list[str]:
    return [f"{what} {k}: {got[k]} where {v} holds"
            for k, v in want.items() if got[k] != "unknown" and got[k] != v]


def _probe_subset(a: tuple, b: tuple, m: int, seed_key: str) -> list[str]:
    """A point the oracle puts in a but not in b refutes 'a is a subset of b'."""
    rng = inputs.rng_for("probe", seed_key)
    for p in inputs.probe_points(("or", (a, b)), m, rng):
        if inputs.evaluate(a, p) is True and inputs.evaluate(b, p) is False:
            return [f"subset refuted at {tuple(str(c) for c in p)}"]
    return []


class Workload:
    name = ""
    min_rounds = 1    # every untraced run completes these; they fix digests
    trace_rounds = 1  # the traced pass runs exactly these rounds
    speed_probe = "kernel"  # see run.PROBES
    warmup_ops = 8

    def round(self, seed: int, r: int) -> list:
        raise NotImplementedError

    def run(self, op) -> str:
        raise NotImplementedError

    def replay(self, op) -> str:
        """The operation as the traced run performs it."""
        return self.run(op)

    def check(self, op, text: str) -> tuple[list[str], list[str]]:
        raise NotImplementedError

    def warmup(self, seed: int) -> None:
        for op in self.round(seed, 0)[: self.warmup_ops]:
            self.check(op, self.run(op))

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process that does the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Suites(Workload):
    """run_suite over S1-S7 x n in {2,3,4}, one call per operation."""

    name = "suites"
    min_rounds = 5
    trace_rounds = 1

    def round(self, seed, r):
        return inputs.suite_round(seed, r)

    def warmup(self, seed):
        for suite, n, _, sseed in self.round(seed, 0):
            self.run((suite, n, 3, sseed))

    def run(self, op):
        suite, n, samples, sseed = op
        config = harness.SuiteConfig(suite, samples=samples, seed=sseed, dimension=n)
        return json.dumps(harness.run_suite(config).to_json(), sort_keys=True)

    @staticmethod
    def expected_checks(suite: str, samples: int) -> tuple[int, int]:
        if suite == "S4":
            return 2 * samples, 4 * samples
        if suite == "S5":
            prefix = min(samples, 250)
            return 2 * (2 * prefix + 2), 2 * (2 * prefix + 2)
        per = {"S1": 6, "S2": 5, "S3": 5, "S6": 5, "S7": 9}[suite]
        return per * samples, per * samples

    def check(self, op, text):
        suite, n, samples, sseed = op
        record = json.loads(text)
        lo, hi = self.expected_checks(suite, samples)
        problems = []
        if not record["ok"]:
            problems.append(f"{suite} n={n} seed={sseed} reported failures")
        if not lo <= record["checks"] <= hi:
            problems.append(f"{suite} n={n} made {record['checks']} checks, expected {lo}..{hi}")
        return problems, []


class Corpus(Workload):
    """A library session over many small seeded expressions."""

    name = "corpus"
    min_rounds = inputs.CORPUS_LIBRARY
    trace_rounds = 8

    def round(self, seed, r):
        return inputs.corpus_round(seed, r)

    def warmup(self, seed):
        # the first round past the library, so no timed operation finds its
        # caches warm
        for op in inputs.corpus_library_round(inputs.CORPUS_LIBRARY)[: self.warmup_ops]:
            self.check(op, self.run(op))

    def run(self, op):
        kind, text, n, other, _ = op
        if kind == "classify":
            return _classify_json(text, n)
        return descriptive.compare_topologies(setdsl.parse(text, n), setdsl.parse(other, n)).value

    def check(self, op, text):
        kind, a_text, n, b_text, extra = op
        if kind == "classify":
            payload = json.loads(text)
            props = payload["properties"]
            problems = _coherence(props)
            if extra is not None:
                problems += [f"flagship {a_text}: {k} is {props[k]}, expected {v}"
                             for k, v in extra.items() if props[k] != v]
            return problems, _report_verdicts(payload)
        a, b = extra
        key = f"{a_text}/{b_text}"
        problems = []
        if text in ("finer", "equal"):
            problems += _probe_subset(a, b, n - 1, key)
        if text in ("coarser", "equal"):
            problems += _probe_subset(b, a, n - 1, key)
        if text not in ("finer", "coarser", "equal", "incomparable", "unknown"):
            problems.append(f"unexpected relation {text!r}")
        return problems, [text]


# What the construction of the wide unions guarantees.
WIDE_PROPERTIES = {
    "separable": "true", "first_countable": "true", "tychonoff": "true",
    "completely_hausdorff": "true", "metrizable": "false", "second_countable": "false",
    "hereditarily_lindelof": "false", "locally_compact": "false", "perfect": "true",
    "lindelof": "false", "normal": "false", "paracompact": "false",
    "countably_paracompact": "false", "sigma_compact": "false",
    "boundary_z_embedded": "false", "boundary_cstar_embedded": "false",
}
WIDE_BOUNDARY = {"hereditarily_collectionwise_normal": "true", "perfect": "true",
                 "lindelof": "false", "sigma_compact": "false"}
WIDE_SET = {"countable": "false", "co_countable": "false", "closed": "true",
            "open": "false", "g_delta": "true", "f_sigma": "true", "compact": "true",
            "contains_closed_uncountable": "true", "equals_all": "false",
            "equals_empty": "false"}
WIDE_COMPLEMENT = {"countable": "false", "co_countable": "false", "closed": "false",
                   "open": "true", "g_delta": "true", "f_sigma": "true", "compact": "false",
                   "contains_closed_uncountable": "true", "equals_all": "false",
                   "equals_empty": "false"}


class Wide(Workload):
    """Unions of k points and k/4 closed balls over a doubling ladder of k."""

    name = "wide"
    min_rounds = 10
    trace_rounds = 2
    warmup_ops = 4

    def round(self, seed, r):
        return [(kind, k, full, half)
                for k, full, half in inputs.wide_round(seed, r)
                for kind in ("classify", "compare")]

    def run(self, op):
        kind, k, full, half = op
        if kind == "classify":
            return _classify_json(full, 2)
        return descriptive.compare_topologies(setdsl.parse(half, 2), setdsl.parse(full, 2)).value

    def check(self, op, text):
        kind, k, full, half = op
        if kind == "compare":
            # the half is a proper subset, so only finer is true
            ok = text in ("finer", "unknown")
            return ([] if ok else [f"k={k}: sub-union compared {text}"]), [text]
        payload = json.loads(text)
        problems = _committed_mismatches(payload["properties"], WIDE_PROPERTIES, f"k={k}")
        problems += _committed_mismatches(payload["boundary_subspace"], WIDE_BOUNDARY,
                                          f"k={k} boundary")
        problems += _committed_mismatches(descriptive.infer(setdsl.parse(full, 2)).to_json(), WIDE_SET,
                                          f"k={k} set")
        problems += _committed_mismatches(descriptive.infer(setdsl.parse(f"!({full})", 2)).to_json(),
                                          WIDE_COMPLEMENT, f"k={k} complement")
        return problems, _report_verdicts(payload)


class Cli(Workload):
    """Cold `python -m niemytzki.cli ... --json` calls, one at a time."""

    name = "cli"
    min_rounds = inputs.CLI_LIBRARY
    trace_rounds = 3
    warmup_ops = 3
    speed_probe = "interpreter"

    def __init__(self):
        self.child_rss_mb = 0.0

    def round(self, seed, r):
        return inputs.cli_round(seed, r)

    def run(self, argv):
        code, out, err, rss_mb = run_child([sys.executable, "-m", "niemytzki.cli", *argv],
                                           child_env())
        self.child_rss_mb = max(self.child_rss_mb, rss_mb)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.decode()[-300:]}")
        return out.decode("utf-8")

    def peak_rss_mb(self):
        """Peak resident set of the CLI processes alone: no other child of
        the run, such as a set-up sample or a speed probe, is counted."""
        return self.child_rss_mb

    def replay(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"exit {code} in-process")
        return buf.getvalue()

    def warmup(self, seed):
        # the first round past the library, as for the corpus
        for argv in inputs.cli_library_round(inputs.CLI_LIBRARY)[: self.warmup_ops]:
            self.replay(argv)

    def check(self, argv, text):
        payload = json.loads(text)
        problems = []
        if self.replay(argv) != text:
            problems.append(f"{argv[0]}: subprocess output differs from in-process replay")
        verdicts = []
        if "properties" in payload:
            verdicts = _report_verdicts(payload)
        for key in ("relation", "membership"):
            if key in payload:
                verdicts.append(payload[key])
        return problems, verdicts


WORKLOADS = {w.name: w for w in (Suites(), Corpus(), Wide(), Cli())}
