"""Streaming-workload benchmarks: flat RAM, generator rate, scenario grid.

Measures the tentpole claims of the ``repro.workloads`` subsystem:

* **flat-RAM streaming** — a 10⁷-event flash-crowd workload streams to a
  columnar ``.rpt`` with peak RSS ≤ 1.5× that of a 10⁵-event run.  Both
  runs happen in child processes (``workload_probe.py``) so each gets a
  fresh heap and an honest VmHWM;
* **generation rate** — events/s of every registered scenario, consumed
  and discarded (pure generator throughput);
* **scenario grid** — the default scenario × model grid at a bounded
  per-scenario event count, recording per-scenario model quality
  (hit ratio / traffic increment) and live serving metrics.

``REPRO_WORKLOAD_BENCH_EVENTS`` bounds the big streaming run (default
10,000,000 — the full acceptance run); ``REPRO_WORKLOAD_GRID_EVENTS``
bounds the grid (default 150,000 events per scenario).  Results merge
into ``benchmarks/results/BENCH_workloads.json`` and are gated against
``benchmarks/baselines/BENCH_workloads.json`` by
``python benchmarks/harness.py check workloads``.
"""

from __future__ import annotations

import os
import sys

import pytest

from harness import run_probe, update_results

PROBE = "workload_probe.py"

#: Full-run streaming size; the 1.5x acceptance gate applies at >= this.
FULL_EVENTS = 10_000_000
TARGET_EVENTS = int(
    os.environ.get("REPRO_WORKLOAD_BENCH_EVENTS", FULL_EVENTS)
)
#: The small run the big one's peak RSS is compared against.
SMALL_EVENTS = max(10_000, TARGET_EVENTS // 100)
GRID_EVENTS = int(os.environ.get("REPRO_WORKLOAD_GRID_EVENTS", 150_000))
#: Generator-rate sample size (fixed: rates are per-event, not per-run).
RATE_EVENTS = min(TARGET_EVENTS, 100_000)

#: Run-size header of BENCH_workloads.json.
SIZES = {"target_events": TARGET_EVENTS, "grid_events": GRID_EVENTS}


def test_flat_rss_streaming_to_rpt(tmp_path):
    """Peak RSS of a .rpt stream must not grow with the event count."""
    small = run_probe(
        PROBE, "write", "flashcrowd", SMALL_EVENTS, tmp_path / "small.rpt"
    )
    big = run_probe(
        PROBE, "write", "flashcrowd", TARGET_EVENTS, tmp_path / "big.rpt"
    )
    flatness = big["hwm_kb"] / small["hwm_kb"]
    payload = {
        "small_events": small["events"],
        "big_events": big["events"],
        "small_hwm_kb": small["hwm_kb"],
        "big_hwm_kb": big["hwm_kb"],
        "rss_flatness": round(flatness, 3),
        "write_events_per_s": big["events_per_s"],
        "big_file_bytes": (tmp_path / "big.rpt").stat().st_size,
    }
    update_results("workloads", "streaming", payload, **SIZES)
    print(
        f"streamed {big['events']} events at {big['events_per_s']:.0f}/s; "
        f"peak RSS {big['hwm_kb']}KB vs {small['hwm_kb']}KB at "
        f"{small['events']} events = {flatness:.2f}x"
    )
    if TARGET_EVENTS >= FULL_EVENTS:
        # The PR's acceptance bar: 100x the events, <= 1.5x the memory.
        assert flatness <= 1.5
    else:
        # Smoke scale: fixed interpreter overhead dominates both runs, so
        # the ratio is even flatter — keep a guard rail all the same.
        assert flatness <= 1.8


def test_generation_rate_per_scenario():
    """Pure iterator throughput of every registered scenario."""
    from repro.workloads import available_workloads

    payload = {}
    for name in available_workloads():
        result = run_probe(PROBE, "generate", name, RATE_EVENTS)
        payload[name] = {
            "events": result["events"],
            "events_per_s": result["events_per_s"],
            "hwm_kb": result["hwm_kb"],
        }
        print(f"{name}: {result['events_per_s']:,.0f} events/s")
    update_results("workloads", "generation", payload, **SIZES)
    assert all(entry["events_per_s"] > 0 for entry in payload.values())


def test_scenario_grid_quality_and_serving():
    """The default grid, bounded, with live serving metrics per scenario."""
    from repro.workloads import run_grid

    tree = run_grid(
        {
            "models": ["pb", "standard"],
            "serve": {
                "events": 400,
                "train_events": 1_500,
                "connections": 2,
            },
        },
        events=GRID_EVENTS,
    )
    payload = {}
    for label, node in tree["scenarios"].items():
        entry = {
            "gen_events_per_s": round(
                node["generation"]["events_per_s"], 1
            ),
            "clients": node["generation"]["clients"],
            "urls": node["generation"]["urls"],
        }
        for cell, metrics in node["models"].items():
            entry[f"hit_ratio_{cell}"] = round(metrics["hit_ratio"], 4)
            entry[f"traffic_increment_{cell}"] = round(
                metrics["traffic_increment"], 4
            )
            entry[f"node_count_{cell}"] = metrics["node_count"]
        serving = node["serving"]
        entry["serve_requests_per_s"] = serving["requests_per_s"]
        entry["serve_failed"] = serving["failed"]
        entry["serve_latency_p99_ms"] = serving["latency_p99_ms"]
        payload[label] = entry
        print(
            f"{label}: pb hit {entry['hit_ratio_pb']:.3f}, "
            f"standard hit {entry['hit_ratio_standard']:.3f}, "
            f"served {serving['requests_per_s']:.0f} req/s"
        )
    update_results("workloads", "grid", payload, **SIZES)
    assert len(payload) >= 5, "the default grid must cover 5 scenarios"
    assert all(entry["serve_failed"] == 0 for entry in payload.values())
    # The scenarios must actually stress the models differently: the
    # adversarial crawler scan has to hurt PB-PPM's popularity-pruned trie
    # relative to the stationary control.
    assert (
        payload["crawler"]["hit_ratio_pb"]
        < payload["stationary"]["hit_ratio_pb"]
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-v", "-s"]))
