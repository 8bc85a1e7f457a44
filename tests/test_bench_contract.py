"""The benchmark's trace probes still run against the library: a change that
drops a name they rebind or read fails here, before a traced run does."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import inputs  # noqa: E402
from perfbench.probes import stream_drain  # noqa: E402


def test_stream_drain_reports_every_stream():
    out = stream_drain(0, seconds=0.01)
    assert set(out) == {f"harness.generate_samples.{suite}.samples_per_s"
                        for suite in inputs.SUITES} | {"harness.sampler.accept_ratio"}
    assert all(value > 0 for value, _ in out.values())
