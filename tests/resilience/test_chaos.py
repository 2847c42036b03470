"""End-to-end chaos run: the ISSUE's acceptance scenario, shrunk for CI.

One seeded :func:`repro.resilience.chaos.run_chaos` with every fault
armed must finish with zero failed requests, every armed site fired, the
breaker walked back to closed, the report journal fully covered by the
final snapshot, and the SIGKILL crash drill zero-loss.
"""

from __future__ import annotations

import json

from repro.resilience.chaos import format_chaos_report, run_chaos


def test_chaos_run_is_green_and_writes_report(tmp_path):
    out = str(tmp_path / "BENCH_chaos.json")
    report = run_chaos(seed=7, scale=0.2, max_events=250, out=out)

    assert report["ok"] is True

    serving = report["serving"]
    assert serving["failed_requests"] == 0
    assert serving["prediction_urls_returned"] > 0
    assert serving["boot_quarantined"] is True
    assert serving["armed_never_fired"] == []
    # Each absorption mechanism did real work.
    assert serving["server"]["request_timeouts_total"] >= 1
    assert serving["server"]["snapshot_retries_total"] >= 1
    assert serving["server"]["refresh_failures_total"] == 2
    assert serving["server"]["refresh_skipped_total"] >= 1
    assert serving["server"]["breaker_opened_total"] == 1
    assert serving["server"]["breaker_state_final"] == "closed"
    assert serving["healthz_degraded"]["status"] == "degraded"
    assert serving["healthz_final"]["status"] == "ok"
    # The journal absorbed its injected faults: refused appends were
    # retried by the client, the torn append left an observable truncated
    # tail, and after the graceful stop the final snapshot covered every
    # journalled report.
    assert serving["wal"]["write_errors_total"] >= 2
    assert serving["wal"]["rejected_reports_total"] >= 2
    assert serving["wal"]["truncated_tails_observed"] >= 1
    assert serving["wal"]["rotations_total"] >= 1
    assert serving["wal"]["post_stop_unsnapshotted_reports"] == 0
    assert serving["wal"]["final_snapshot_boundary"] is not None

    crash = report["crash"]
    assert crash["acked_reports"] >= 1
    assert crash["lost_acked_reports"] == 0
    assert crash["zero_loss"] is True
    assert crash["restart_records_replayed"] == crash[
        "journal_reports_on_disk"
    ]
    assert crash["graceful_exit_code"] == 0
    assert crash["post_shutdown_unsnapshotted_reports"] == 0

    assert set(report) == {"config", "serving", "crash", "ok"}

    with open(out, encoding="utf-8") as handle:
        assert json.load(handle)["ok"] is True

    text = format_chaos_report(report)
    assert "verdict            OK" in text
    assert "crash drill" in text
    assert "lost 0" in text
