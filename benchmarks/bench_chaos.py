"""Chaos verdict: every fault armed, zero predictions lost.

Runs one seeded chaos schedule (:func:`repro.resilience.chaos.run_chaos`)
— a live server booted against a corrupt snapshot with every serving
fault injected under loadgen traffic, then a SIGKILL crash drill of a
journalled server — and writes ``benchmarks/results/BENCH_chaos.json``.

Unlike the throughput benches there are no performance floors here: the
artifact records *recovery* counters (faults fired, 503 retries, shed
requests, snapshot retries, breaker transitions), and the assertion is
the all-or-nothing ``ok`` verdict.
"""

import json
import pathlib

from repro.resilience.chaos import format_chaos_report, run_chaos

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_chaos_verdict(benchmark):
    out = RESULTS_DIR / "BENCH_chaos.json"

    def run():
        return run_chaos(seed=7, out=str(out))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(format_chaos_report(report))

    assert report["ok"] is True
    serving = report["serving"]
    assert serving["failed_requests"] == 0
    assert serving["armed_never_fired"] == []
    assert serving["server"]["breaker_state_final"] == "closed"

    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["ok"] is True
