"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads suites,corpus,wide,cli \
        --seeds 1-10 [--seconds 15] [--out results.json]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="suites,corpus,wide,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("\n".join(lines[-12:]), file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in report[workload].items():
            print(f"{workload:7s} {name:15s} median={s['median']:.4f} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f} spread={s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
