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


def test_clear_caches_leaves_classify_cold(monkeypatch):
    from niemytzki import setdsl, theorems
    from perfbench.workloads import clear_caches

    text = "cantor | point(1/2,0)"
    theorems.classify(text, 3)
    clear_caches()
    for cache in (theorems._template, theorems._step):
        assert cache.cache_info().currsize == 0
    # parse's table has no cache_clear: emptying the caches that held the
    # tree lets it go, so the text is read again
    assert (text, 3) not in setdsl._PARSED
    runs = []

    class Counted(setdsl._Parser):
        def __init__(self, *args):
            runs.append(args)
            super().__init__(*args)

    monkeypatch.setattr(setdsl, "_Parser", Counted)
    misses = theorems._template.cache_info().misses
    theorems.classify(text, 3)
    assert theorems._template.cache_info().misses == misses + 1
    assert runs == [(text, 3)]
