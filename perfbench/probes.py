"""Outside-in measurements of layers a trace cannot split.

Each probe drives one layer through its public functions with seeded inputs
and returns per-layer metrics as {name: (value, unit)}.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import time

from niemytzki import geometry, harness
from niemytzki.harness import SuiteConfig, generate_samples, run_suite
from niemytzki.setdsl import parse
from niemytzki.theorems import classify

from . import inputs
from .tracer import rebind, restore
from .workloads import child_env

KERNEL = ("in_tangent_ball", "tangent_gauge", "in_ball")


def _record(names, action, cap: int = 4000) -> dict[str, list]:
    """Arguments of the named geometry functions while ``action`` runs."""
    seen: dict[str, list] = {name: [] for name in names}
    undo = []
    for name in names:
        fn = getattr(geometry, name)

        def recorder(*args, _fn=fn, _log=seen[name], **kwargs):
            if len(_log) < cap:
                _log.append(args)
            return _fn(*args, **kwargs)

        undo += rebind("niemytzki", fn, recorder)
    try:
        action()
    finally:
        restore(undo)
    return seen


def kernel_replay(seed: int, seconds: float = 0.3) -> dict:
    """Calls per second of the exact kernel on inputs recorded from the suites."""

    def suites():
        for suite in ("S1", "S2", "S4", "S6"):
            for n in inputs.DIMENSIONS:
                run_suite(SuiteConfig(suite, samples=40, seed=seed, dimension=n))

    recorded = _record(KERNEL, suites)
    out = {}
    for name, calls in recorded.items():
        fn = getattr(geometry, name)
        done, start = 0, time.perf_counter()
        while time.perf_counter() - start < seconds:
            for args in calls:
                fn(*args)
            done += len(calls)
        out[f"geometry.{name}.calls_per_s"] = (done / (time.perf_counter() - start), "1/s")
    return out


def stream_drain(seed: int, seconds: float = 0.15) -> dict:
    """Samples per second of each suite's stream alone, and the share of
    gauge tests the S2/S3 rejection sampler accepts."""
    out = {}
    gauge_tests = [0]
    accepted = 0
    original = harness.tangent_gauge

    def counted(*args):
        gauge_tests[0] += 1
        return original(*args)

    for suite in inputs.SUITES:
        cfg = SuiteConfig(suite, samples=inputs.SUITE_SAMPLES[suite], seed=seed, dimension=3)
        sampler = suite in ("S2", "S3")
        undo = rebind("niemytzki.harness", original, counted) if sampler else []
        try:
            drained, start = 0, time.perf_counter()
            while time.perf_counter() - start < seconds:
                drained += sum(1 for _ in generate_samples(cfg))
            elapsed = time.perf_counter() - start
        finally:
            restore(undo)
        if sampler:
            accepted += drained
        out[f"harness.generate_samples.{suite}.samples_per_s"] = (drained / elapsed, "1/s")
    out["harness.sampler.accept_ratio"] = (accepted / max(gauge_tests[0], 1), "ratio")
    return out


def suite_table(seed: int) -> dict:
    """Wall time of one run_suite call per suite and dimension."""
    out = {}
    for suite, n, samples, sseed in inputs.suite_round(seed, 0):
        start = time.perf_counter()
        run_suite(SuiteConfig(suite, samples=samples, seed=sseed, dimension=n))
        out[f"harness.run_suite.{suite}.n{n}.s"] = (time.perf_counter() - start, "s")
    return out


def wide_ladder(seed: int, per_width: int = 3) -> dict:
    """Median classify and parse latency per union width, and the log-log
    slope of classify latency against width."""
    out = {}
    rng = inputs.rng_for("wide-ladder", seed)
    points = []
    for k in inputs.WIDE_LADDER:
        parse_ms, classify_ms = [], []
        for _ in range(per_width):
            text = " | ".join(inputs.wide_members(rng, k))
            start = time.perf_counter()
            parse(text, 2)
            parse_ms.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            classify(text, 2)
            classify_ms.append((time.perf_counter() - start) * 1e3)
        out[f"wide.parse_ms.k{k}"] = (statistics.median(parse_ms), "ms")
        out[f"wide.classify_ms.k{k}"] = (statistics.median(classify_ms), "ms")
        points.append((math.log(k), math.log(statistics.median(classify_ms))))
    xs, ys = zip(*points)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x in xs)
    out["wide.width_exponent"] = (slope, "1")
    return out


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_cost(repeats: int = 3) -> dict:
    """Package import time from ``-X importtime`` in a child, and the wall
    time of a bare interpreter."""
    env = child_env()
    imports = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import niemytzki.cli"],
                              capture_output=True, text=True, env=env, check=True)
        total_us = 0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            # top-level entries of the package; nested ones are in their cumulative
            if m and m.group(4).split(".")[0] == "niemytzki" and len(m.group(3)) == 1:
                total_us += int(m.group(2))
        imports.append(total_us / 1e6)
    bare = []
    for _ in range(repeats + 2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - start)
    return {"cli.import_s": (statistics.median(imports), "s"),
            "cli.interpreter_s": (statistics.median(bare), "s")}


def all_probes(seed: int) -> dict:
    out = {}
    for probe in (kernel_replay, stream_drain, suite_table, wide_ladder):
        out.update(probe(seed))
    out.update(import_cost())
    return out
