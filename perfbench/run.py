"""Benchmark of the niemytzki library and CLI.

    python3 perfbench/run.py --workload {suites,corpus,wide,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  Each
run is a closed loop: one client, one operation at a time.  Every input
comes from ``--seed`` (see ``perfbench/inputs.py``), every output is checked,
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics.  Operations run in whole
rounds until their summed wall time reaches ``--seconds``; the first
``min_rounds`` rounds always run and fix the output digest and peak memory.
Latencies are rescaled by the machine's speed (see ``Speed``).  Set-up time
is the median of five fresh processes that import the package and warm up
on inputs no timed operation uses.  The run re-executes itself with a
fixed PYTHONHASHSEED, so that every run has the same string-hash layout.

``--trace 1`` runs a fixed number of rounds twice, untraced and then traced
with the caches emptied in between, and reports per-layer metrics: calls and
self time of each public function, the outside-in probes, and the tracing
overhead.  A summary line before the JSON gives the error rate, the share of
Unknown verdicts and SHA-256 digests of the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5           # set-up samples per run, each in a fresh process
WALL_LIMIT_S = 150   # stop adding rounds past this, whatever min_rounds says
WARMUP_SEED = -1     # never a timed seed (>= 0); see each workload's warmup
HASH_SEED = "0"      # PYTHONHASHSEED of the run and of every child

TRACED = (
    "geometry.tangent_gauge", "geometry.in_tangent_ball", "geometry.in_ball",
    "geometry.sq_dist", "geometry.t_level", "geometry.separating_f",
    "geometry.tangent_sphere_point", "geometry.inner_ball_radius",
    "harness.generate_samples", "harness.run_suite",
    "topology.contains", "topology.refine", "topology.decide_convergence",
    "topology.certificate_failures", "topology.local_base_element",
    "setdsl.parse", "setdsl.normalize", "setdsl.to_text",
    "setdsl.structural_candidates", "setdsl.member", "setdsl.find_witness",
    "descriptive.infer", "descriptive.subset", "descriptive.compare_topologies",
    "theorems.classify", "cli.main",
)


def reference_kernel():
    """Fixed stdlib-only work shaped like the program's: exact rational
    arithmetic with growing integers, plus tuple-keyed dict traffic."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i)
    table = {(i, i % 7): str(i) for i in range(2000)}
    return acc, len(table)


def kernel_ms(repeats: int = 3) -> float:
    """The least of a few timings of the kernel, the one least disturbed."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def interpreter_ms() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - start) * 1e3


# Speed probes: (timing function, its time on the quiet machine in ms, the
# least seconds between two samples).  In-process operations are compared
# with the kernel; cold CLI calls, which are mostly process start-up, with a
# bare interpreter start.
PROBES = {
    "kernel": (kernel_ms, 1.5, 0.05),
    "interpreter": (interpreter_ms, 70.0, 1.0),
}


class Speed:
    """Rescales wall times to a machine of fixed speed.

    The shared machine changes speed (by up to 1.8x, from fractions of a
    second to tens of seconds at a time), which moves every wall time
    alike.  A fixed probe is timed between operations, at most every
    ``every_s`` seconds, and each operation's time is multiplied by the
    probe's quiet-machine time over the mean of its times just before and
    just after the operation, so runs compare as on a quiet machine.
    """

    def __init__(self, probe: str = "kernel"):
        self.measure, self.nominal_ms, self.every_s = PROBES[probe]
        self.samples: list[float] = []
        self.last = float("-inf")
        self.pending: list[tuple[float, int]] = []  # (wall time, sample before)

    def sample(self) -> None:
        self.samples.append(self.measure())
        self.last = time.perf_counter()

    def before_op(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def add(self, elapsed: float) -> None:
        self.pending.append((elapsed, len(self.samples) - 1))

    def rescaled(self) -> list[float]:
        """The recorded wall times, rescaled; takes one closing sample."""
        self.sample()
        return [elapsed * 2 * self.nominal_ms / (self.samples[i] + self.samples[i + 1])
                for elapsed, i in self.pending]


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import niemytzki  # noqa: F401  (fails when the program is missing)
    from perfbench import workloads
    return workloads


def setup_child(workload: str, seed: int) -> None:
    """One set-up sample: package import plus a warm-up, in this process,
    rescaled by the machine speed measured around it."""
    before = statistics.median(kernel_ms() for _ in range(3))
    start = time.perf_counter()
    workloads = _import_program()
    workloads.WORKLOADS[workload].warmup(seed)
    elapsed = time.perf_counter() - start
    after = statistics.median(kernel_ms() for _ in range(3))
    print(elapsed * 2 * PROBES["kernel"][1] / (before + after))


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Ledger:
    """Attempted and failed operations, verdict counts and output digests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.verdicts = 0
        self.unknown = 0
        self.digest = hashlib.sha256()

    def record(self, workload, op, text: str | None, error: str | None) -> None:
        self.attempted += 1
        self.digest.update(repr(op).encode() + b"\0" + (text or error).encode() + b"\0")
        if error is None:
            try:
                problems, verdicts = workload.check(op, text)
            except Exception as exc:  # a malformed output is a failed operation
                problems, verdicts = [f"check raised {exc!r}"], []
            self.verdicts += len(verdicts)
            self.unknown += sum(v == "unknown" for v in verdicts)
        else:
            problems = [error]
        if problems:
            self.failures.append(f"{op!r}: {problems[0]}")

    @property
    def unknown_share(self) -> float:
        return self.unknown / self.verdicts if self.verdicts else 0.0


def perform(fn, op) -> tuple[float, str | None, str | None]:
    """Wall time, output and error of one operation."""
    start = time.perf_counter()
    try:
        text, error = fn(op), None
    except Exception as exc:  # a failed operation is counted, not fatal
        text, error = None, f"raised {exc!r}"
    return time.perf_counter() - start, text, error


def untraced(wl, seed: int, seconds: float) -> tuple[dict, Ledger, str]:
    setup_s = measure_setup(wl.name, WARMUP_SEED)
    wl.warmup(WARMUP_SEED)
    ledger = Ledger()
    speed = Speed(wl.speed_probe)
    busy = 0.0
    wall_start = time.perf_counter()
    prefix = ""
    r = 0
    while r < wl.min_rounds or busy < seconds:
        if r >= wl.min_rounds and time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
        for op in wl.round(seed, r):
            speed.before_op()
            elapsed, text, error = perform(wl.run, op)
            speed.add(elapsed)
            busy += elapsed
            ledger.record(wl, op, text, error)
        r += 1
        if r == wl.min_rounds:
            rss = wl.peak_rss_mb()
            prefix = (f"prefix_ops={ledger.attempted} prefix_digest={ledger.digest.hexdigest()} "
                      f"unknown_share={ledger.unknown_share:.6f}")
    latencies = speed.rescaled()
    cuts = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (cuts[4] * 1e3, "ms"),
        "latency_p90_ms": (cuts[8] * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, ledger, (f"{prefix} ops={ledger.attempted} busy_s={busy:.3f} "
                             f"digest={ledger.digest.hexdigest()}")


def traced(wl, seed: int, workloads) -> tuple[dict, Ledger, str]:
    from perfbench import probes
    from perfbench.tracer import Tracer

    wl.warmup(WARMUP_SEED)
    ops = [op for r in range(wl.trace_rounds) for op in wl.round(seed, r)]
    ledger = Ledger()
    workloads.clear_caches()
    plain_s = 0.0
    for op in ops:
        elapsed, text, error = perform(wl.replay, op)
        plain_s += elapsed
        ledger.record(wl, op, text, error)
    unknown_share = ledger.unknown_share

    workloads.clear_caches()
    tracer = Tracer("niemytzki", TRACED).install()
    traced_s = 0.0
    try:
        for op in ops:
            tracer.active = True
            elapsed, text, error = perform(wl.replay, op)
            tracer.active = False
            traced_s += elapsed
            tracer.fold()
            ledger.record(wl, op, text, error)
    finally:
        tracer.active = False
        tracer.uninstall()

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    fw_calls = tracer.calls["setdsl.find_witness"]
    metrics["setdsl.find_witness.hit_ratio"] = (
        tracer.returned["setdsl.find_witness"] / fw_calls if fw_calls else 0.0, "ratio")
    metrics["setdsl.member.calls_per_op"] = (tracer.calls["setdsl.member"] / len(ops), "count")
    metrics["unknown_share"] = (unknown_share, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics.update(probes.all_probes(seed))

    self_total = sum(tracer.self_s.values())
    if min(tracer.self_s.values(), default=0.0) < 0 or self_total > traced_s:
        ledger.failures.append(f"self times {self_total} exceed traced wall {traced_s}")
    idle = [n for n in TRACED if n not in tracer.absent and not tracer.calls[n]]
    summary = (f"absent={','.join(tracer.absent) or '-'} not_called={','.join(idle) or '-'} "
               f"traced_ops={len(ops)} self_total_s={self_total:.6f} traced_wall_s={traced_s:.6f}")
    return metrics, ledger, summary


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # one string-hash layout for every run, its set-up and CLI children
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suites", "corpus", "wide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 and not args.setup_child:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "niemytzki" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    workloads = _import_program()
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, ledger, summary = traced(wl, args.seed, workloads)
    else:
        metrics, ledger, summary = untraced(wl, args.seed, args.seconds)

    for failure in ledger.failures[:10]:
        print(f"FAILED {failure}")
    error_rate = len(ledger.failures) / ledger.attempted
    print(f"summary: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"error_rate={error_rate:.6f} {summary}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
