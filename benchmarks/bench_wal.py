"""Write-ahead journal benchmarks: serving overhead, append rate, recovery.

Measures the costs the durability tentpole is allowed to charge:

* **serving overhead** — the same seeded loadgen replay against a spawned
  server with the journal off and on (default ``interval`` fsync
  policy), in alternating pairs.  The acceptance bar: journaling costs
  **at most 10%** of loadgen throughput (the median pair's
  ``overhead_ratio >= 0.9``);
* **append throughput** — raw ``ReportJournal.append_report`` rate per
  fsync policy (``off`` / ``interval`` / ``batch``), the floor under any
  serving path;
* **recovery rate** — records/s of a cold :func:`read_journal` scan plus
  session grouping over a multi-segment journal, the number that bounds
  restart time after a crash.

``REPRO_WAL_BENCH_EVENTS`` bounds the loadgen replays (default 20,000
page views, which CI runs too).  Results merge into
``benchmarks/results/BENCH_wal.json`` and are gated against
``benchmarks/baselines/BENCH_wal.json`` by
``python benchmarks/harness.py check wal``.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from harness import update_results

TARGET_EVENTS = int(os.environ.get("REPRO_WAL_BENCH_EVENTS", 20_000))
#: Journal-off / journal-on replay pairs behind the overhead ratio.
OVERHEAD_PAIRS = 5
#: Direct-append sample size (fixed: append cost is per-record).
APPEND_RECORDS = 50_000
#: Recovery-scan journal size.
RECOVERY_RECORDS = 100_000


def _loadgen(wal_dir: str | None) -> dict:
    from repro.serve.loadgen import run_loadgen

    # One nasa-like day is ~3.5k replay events; six days give the 20k
    # the default target asks for (``max_events`` caps smoke runs).
    return run_loadgen(
        spawn=True,
        profile="nasa-like",
        days=6,
        train_days=1,
        seed=7,
        scale=1.0,
        connections=4,
        mode="combined",
        max_events=TARGET_EVENTS,
        wal_dir=wal_dir,
    )


def test_serving_overhead_with_journal(tmp_path):
    """Journaling every report before ack must cost <= 10% throughput.

    Journal-off and journal-on replays run in pairs, alternating which
    side goes first, and the gate reads the median pair's ratio, so
    load from the rest of a shared box lands on both sides of a pair
    rather than on one side of the comparison.
    """
    pairs = []
    for index in range(OVERHEAD_PAIRS):
        wal_dir = str(tmp_path / f"wal-{index}")
        order = (None, wal_dir) if index % 2 == 0 else (wal_dir, None)
        runs = {}
        for side in order:
            report = _loadgen(side)
            assert report["failed_requests"] == 0
            runs[side is not None] = report
        off, on = runs[False], runs[True]
        pairs.append(
            {
                "first": "off" if order[0] is None else "on",
                "requests_per_s_off": off["requests_per_s"],
                "requests_per_s_on": on["requests_per_s"],
                "ratio": round(on["requests_per_s"] / off["requests_per_s"], 3),
                "latency_p99_ms_off": off["latency_ms"]["p99"],
                "latency_p99_ms_on": on["latency_ms"]["p99"],
            }
        )
    median = sorted(pairs, key=lambda pair: pair["ratio"])[len(pairs) // 2]
    payload = {
        "events": on["requests_total"],
        "pairs": pairs,
        "requests_per_s_wal_off": median["requests_per_s_off"],
        "requests_per_s_wal_on": median["requests_per_s_on"],
        "overhead_ratio": median["ratio"],
        "latency_p99_ms_wal_off": median["latency_p99_ms_off"],
        "latency_p99_ms_wal_on": median["latency_p99_ms_on"],
    }
    update_results(
        "wal", "serving_overhead", payload, target_events=TARGET_EVENTS
    )
    print(
        "journal-on / journal-off loadgen throughput by pair: "
        + ", ".join(f"{pair['ratio']:.3f}x" for pair in pairs)
        + f"; median pair {median['requests_per_s_on']:,.0f} / "
        f"{median['requests_per_s_off']:,.0f} req/s = "
        f"{median['ratio']:.3f}x retained"
    )
    # The acceptance bar, with a little slack at smoke scale where fixed
    # startup costs amplify run-to-run noise.
    assert median["ratio"] >= (0.9 if TARGET_EVENTS >= 20_000 else 0.8)


def test_append_throughput_per_policy(tmp_path):
    """Raw journal append rate for each fsync policy."""
    from repro.serve.wal import ReportJournal

    payload = {}
    for policy in ("off", "interval", "batch"):
        count = APPEND_RECORDS if policy != "batch" else APPEND_RECORDS // 25
        journal = ReportJournal(
            str(tmp_path / f"wal-{policy}"), fsync=policy
        )
        started = time.perf_counter()
        for index in range(count):
            journal.append_report(
                f"c{index % 512}", f"/page/{index % 4096}", float(index)
            )
        elapsed = time.perf_counter() - started
        journal.close()
        payload[policy] = {
            "records": count,
            "records_per_s": round(count / elapsed, 1),
            "fsyncs": journal.fsync_total,
            "segments": journal.active_seq,
        }
        print(
            f"append[{policy}]: {count / elapsed:,.0f} records/s "
            f"({journal.fsync_total} fsyncs)"
        )
    update_results("wal", "append", payload, target_events=TARGET_EVENTS)
    assert all(entry["records_per_s"] > 0 for entry in payload.values())
    # batch fsyncs every ack; it cannot be faster than no syncing at all.
    assert payload["batch"]["fsyncs"] == payload["batch"]["records"]
    assert payload["off"]["fsyncs"] <= 1


def test_recovery_scan_rate(tmp_path):
    """Cold-boot journal replay rate over a multi-segment journal."""
    from repro.serve.wal import ReportJournal, read_journal, recovery_sessions

    journal = ReportJournal(
        str(tmp_path / "wal"), fsync="off", segment_max_bytes=4 * 1024 * 1024
    )
    for index in range(RECOVERY_RECORDS):
        journal.append_report(
            f"c{index % 1024}", f"/page/{index % 4096}", float(index)
        )
    journal.close()
    started = time.perf_counter()
    recovery = read_journal(journal.directory)
    sessions = recovery_sessions(recovery)
    elapsed = time.perf_counter() - started
    payload = {
        "records": recovery.records_replayed,
        "segments": recovery.segments_scanned,
        "bytes_scanned": recovery.bytes_scanned,
        "sessions_recovered": len(sessions),
        "records_per_s": round(recovery.records_replayed / elapsed, 1),
        "recovery_s": round(elapsed, 4),
    }
    update_results("wal", "recovery", payload, target_events=TARGET_EVENTS)
    print(
        f"recovered {recovery.records_replayed} records from "
        f"{recovery.segments_scanned} segments in {elapsed:.2f}s "
        f"({recovery.records_replayed / elapsed:,.0f} records/s)"
    )
    assert recovery.records_replayed == RECOVERY_RECORDS
    assert recovery.truncated_tails == 0
    assert recovery.corrupt_frames == 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-v", "-s"]))
