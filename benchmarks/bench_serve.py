"""Serving throughput: the online prediction server under trace replay.

Boots an in-process :class:`~repro.serve.server.PrefetchServer` trained on
the head of a synthetic NASA-like trace and replays the tail through the
load generator in combined report+predict mode, with one hot-swap rebuild
fired mid-run.  Writes ``benchmarks/results/BENCH_serve.json``.

Thresholds are CI-safe floors (shared-runner tolerant); the committed
artifact records the real numbers from a quiet machine.  Correctness
(zero failed requests) is asserted unconditionally.
"""

import json
import pathlib

from repro.serve.loadgen import format_report, run_loadgen

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Floors a loaded CI runner still clears with headroom; the acceptance
#: numbers (>= 2000 predictions/s, p99 < 10 ms) come from a quiet run.
MIN_PREDICTIONS_PER_S = 500.0
MAX_P99_MS = 100.0


def test_serve_throughput(benchmark):
    out = RESULTS_DIR / "BENCH_serve.json"

    def run():
        return run_loadgen(
            spawn=True,
            profile="nasa-like",
            days=1,
            train_days=2,
            seed=7,
            scale=1.0,
            connections=8,
            mode="combined",
            refresh_mid_run=True,
            out=str(out),
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(format_report(report))

    assert report["failed_requests"] == 0
    assert report["refresh_triggered"] is True
    assert report["prediction_urls_returned"] > 0
    assert report["predictions_per_s"] >= MIN_PREDICTIONS_PER_S
    assert report["latency_ms"]["p99"] <= MAX_P99_MS

    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["requests_total"] == report["requests_total"]

