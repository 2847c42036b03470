"""Seeded chaos runs: every fault armed, zero predictions lost.

``repro chaos`` is the executable proof of the resilience story.  One run
(:func:`run_chaos`) drives two phases from a single seed:

**Serving phase** — a live :class:`~repro.serve.server.PrefetchServer` is
booted against a *corrupt* snapshot file (exercising boot quarantine)
with a write-ahead report journal enabled, then load-generator traffic
replays against it while a :class:`~repro.resilience.FaultPlan` arms
every serving-side injection site: slow handlers overrun the request
deadline and drive load shedding, clients stall and send malformed
frames, snapshot writes tear and raise, model rebuilds raise and stall
until the circuit breaker opens, journal appends fail and tear their
frames mid-write, and an fsync stalls.  A scripted admin schedule walks
the breaker through open → skipped → half-open → closed, and a second
traffic burst proves the server recovered.  The acceptance bar: **zero
failed requests** — every injected fault is absorbed by a retry, a
503-with-Retry-After the client honours, or a last-good fallback — and
after shutdown the journal holds **zero unsnapshotted reports**.

**Crash phase** — a real ``repro serve`` subprocess (journal enabled) is
SIGKILLed mid-traffic while a load pump records every acknowledged
report in a ledger.  The journal on disk must contain every ledger entry
(**zero lost acknowledged reports**), a restarted subprocess must replay
them on boot, and a SIGTERM must shut it down gracefully with a final
snapshot that covers the whole journal.

The report (written to ``benchmarks/results/BENCH_chaos.json`` by the CI
smoke job) records the per-site fire counts, the recovery counters of
every subsystem, and the per-phase verdicts folded into one ``ok``.

Not all of it is fixed by the seed.  The seed fixes ``config``, the
traffic (``serving.events_per_burst``) and the fault schedule, so every
fire count (``fault_fires``, ``armed_never_fired``); every verdict
(``failed_requests``, the lost and unsnapshotted counts, ``zero_loss``,
``ok``) must hold on any run.  The recovery counters that follow from
the schedule (``serving.server``, ``serving.wal``, ``requests_total``,
``retried_503``, ``reconnects``, ``injected_client_faults``,
``admin_statuses``) were equal in every pair of runs compared.  Timing
moves the rest: wall-clock fields (``uptime_s``); what
the server has folded or expired when it is read
(``healthz_final.active_clients`` and ``model_nodes``) or when each
prediction is made (``prediction_urls_returned``,
``non_empty_prediction_responses``); and in the crash phase how far the
pump got when the SIGKILL landed: the error it raised
(``pump_disconnect``: ``ConnectionResetError``, ``RemoteDisconnected``
or ``BrokenPipeError``) and the acked, journalled and replayed counts,
which reports in flight can carry past ``kill_after_acks``.
"""

from __future__ import annotations

import asyncio
import glob
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro import params
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, injected
from repro.serve.loadgen import _build_events, _replay
from repro.serve.snapshot import restore_snapshot, restore_snapshot_state
from repro.serve.wal import read_journal
from repro.synth.generator import generate_trace
from repro.trace.dataset import Trace

#: Serving-phase timing knobs, sized so every fault window resolves in a
#: few hundred milliseconds and the whole run stays CI-friendly.  The
#: client's 503 patience (retry budget x Retry-After) deliberately
#: exceeds the longest degraded window (a slow handler holding its slot
#: until the request deadline), so shed requests always land eventually.
_REQUEST_TIMEOUT_S = 0.4
_SLOW_REQUEST_S = 1.0
_MAX_INFLIGHT = 3
_RETRY_AFTER_S = 0.1
_CLIENT_RETRY_503 = 20
_REBUILD_TIMEOUT_S = 1.0
_REBUILD_STALL_S = 1.5
_BREAKER_COOLDOWN_S = 0.8


def _serving_plan(seed: int, *, events_per_burst: int) -> FaultPlan:
    """Every serving-side site armed, each with a finite firing window."""
    return (
        FaultPlan(seed)
        # First two dispatches stall past the request deadline: the 503
        # deadline path, and (slots held) the load-shedding path.
        .arm("serve.slow_request", times=2, delay_s=_SLOW_REQUEST_S)
        # First two page views: a delayed client and two malformed frames.
        .arm("client.slow_report", times=2, delay_s=0.1)
        .arm("client.corrupt_report", times=2)
        # First snapshot write: torn on attempt 1, OSError on attempt 2,
        # clean on attempt 3 — inside one snapshot_once retry budget.
        .arm("snapshot.torn_write", times=1)
        .arm("snapshot.io_error", after=1, times=1)
        # First rebuild raises, second stalls past the rebuild deadline:
        # two consecutive failures trip the breaker.
        .arm("rebuild.exception", times=1)
        .arm("rebuild.stall", after=1, times=1, delay_s=_REBUILD_STALL_S)
        # Journal appends 6-7 are refused (503, client retries), and one
        # append early in burst 2 tears mid-frame — past every burst-1
        # append plus the admin snapshots' carry records, so the damaged
        # segment survives until shutdown compaction and a mid-run scan
        # can observe the truncated tail.
        .arm("wal.write_error", after=5, times=2)
        .arm("wal.torn_tail", after=events_per_burst + 6, times=1)
        .arm("wal.fsync_stall", times=1, delay_s=0.2)
    )


def _http(host: str, port: int, method: str, path: str) -> tuple[int, dict]:
    """One admin/health request; JSON-decoded body (``{}`` if not JSON)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(body)
    except ValueError:
        return response.status, {}


def _run_serving_phase(
    seed: int,
    *,
    profile: str,
    scale: float,
    days: int,
    train_days: int,
    connections: int,
    max_events: int | None,
) -> dict:
    from repro.serve.server import PrefetchServer, ServerThread

    trace = generate_trace(
        profile, days=train_days + days, seed=seed, scale=scale
    )
    split = trace.split(train_days=train_days, test_days=days)
    replay = Trace(
        [r for r in trace.records if trace.day_of(r.timestamp) >= train_days],
        name=trace.name,
    )
    events = _build_events(
        replay,
        mode="combined",
        threshold=params.PREDICTION_PROBABILITY_THRESHOLD,
        max_events=max_events,
    )

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        snapshot_path = os.path.join(tmpdir, "model.json")
        wal_dir = os.path.join(tmpdir, "wal")
        # Plant a corrupt snapshot so boot exercises the quarantine path.
        with open(snapshot_path, "w", encoding="utf-8") as handle:
            handle.write('{"model": "torn mid-wr')
        model = restore_snapshot(snapshot_path)
        boot_quarantined = model is None and bool(
            glob.glob(f"{snapshot_path}.corrupt-*")
        )

        server = PrefetchServer(
            bootstrap_sessions=split.train_sessions,
            snapshot_path=snapshot_path,
            request_timeout_s=_REQUEST_TIMEOUT_S,
            max_inflight=_MAX_INFLIGHT,
            retry_after_s=_RETRY_AFTER_S,
            housekeeping_interval_s=0.05,
            wal_dir=wal_dir,
            wal_fsync="interval",
            wal_fsync_interval_s=0.2,
            wal_segment_max_bytes=16 * 1024,
        )
        server.updater.rebuild_timeout_s = _REBUILD_TIMEOUT_S
        server.updater.breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=_BREAKER_COOLDOWN_S
        )
        server.snapshots.backoff_s = 0.01

        plan = _serving_plan(seed, events_per_burst=len(events))
        with injected(plan):
            handle = ServerThread(server).start()
            try:
                host, port = handle.host, handle.port
                burst = lambda: asyncio.run(  # noqa: E731 - two identical calls
                    _replay(
                        host,
                        port,
                        events,
                        connections=connections,
                        refresh_mid_run=False,
                        request_timeout_s=30.0,
                        retry_503=_CLIENT_RETRY_503,
                    )
                )
                # Burst 1: slow handlers + client faults fire in here.
                stats_1, _, _ = burst()

                # Admin schedule: rebuild raises (failure 1), rebuild
                # stalls (failure 2 -> breaker opens), a refresh is
                # skipped on the open breaker, the snapshot write tears
                # and raises through its retries, then the cooldown
                # elapses and the half-open trial closes the breaker.
                admin = []
                for path in ("/admin/refresh", "/admin/refresh",
                             "/admin/refresh", "/admin/snapshot"):
                    admin.append(_http(host, port, "POST", path)[0])
                _, healthz_degraded = _http(host, port, "GET", "/healthz")
                # Past the breaker cooldown, and past the stalled rebuild
                # still finishing in its background thread.
                time.sleep(max(_BREAKER_COOLDOWN_S, _REBUILD_STALL_S) + 0.2)
                admin.append(_http(host, port, "POST", "/admin/refresh")[0])
                admin.append(_http(host, port, "POST", "/admin/snapshot")[0])

                # Burst 2: every fault window is spent; clean traffic
                # proves the server recovered, not merely survived.
                stats_2, _, _ = burst()
                _, healthz_final = _http(host, port, "GET", "/healthz")
                # The torn append sealed its damaged segment during burst
                # 2 (after the admin snapshots compacted), so a scan of
                # the live journal sees the truncated tail — and nothing
                # worse.
                mid_scan = read_journal(wal_dir)
            finally:
                handle.stop()

        # After the graceful stop, everything journalled is covered by
        # the final snapshot: replaying past its boundary must find zero
        # report records.
        _model, final_boundary = restore_snapshot_state(snapshot_path)
        residue = read_journal(wal_dir, boundary=final_boundary)
        residue_reports = sum(
            1 for record in residue.records if record.get("k") == "r"
        )

        stats = list(stats_1) + list(stats_2)
        updater, snapshots = server.updater, server.snapshots
        return {
            "boot_quarantined": boot_quarantined,
            "events_per_burst": len(events),
            "requests_total": sum(len(s.latencies) for s in stats),
            "failed_requests": sum(s.failed for s in stats),
            "retried_503": sum(s.retried_503 for s in stats),
            "reconnects": sum(s.reconnects for s in stats),
            "injected_client_faults": sum(s.injected_faults for s in stats),
            "prediction_urls_returned": sum(s.predictions for s in stats),
            "non_empty_prediction_responses": sum(s.non_empty for s in stats),
            "admin_statuses": admin,
            "healthz_degraded": healthz_degraded,
            "healthz_final": healthz_final,
            "fault_fires": plan.fires,
            "armed_never_fired": sorted(
                set(plan.armed_sites) - set(plan.fires)
            ),
            "server": {
                "shed_total": server.shed_total,
                "request_timeouts_total": server.request_timeouts_total,
                "refresh_failures_total": updater.refresh_failures_total,
                "refresh_timeouts_total": updater.refresh_timeouts_total,
                "refresh_skipped_total": updater.refresh_skipped_total,
                "breaker_opened_total": updater.breaker.opened_total,
                "breaker_state_final": updater.breaker.state,
                "snapshot_total": snapshots.snapshot_total,
                "snapshot_retries_total": snapshots.snapshot_retries_total,
                "snapshot_failures_total": snapshots.snapshot_failures_total,
            },
            "wal": {
                "appended_records_total": server.wal.appended_records_total,
                "rotations_total": server.wal.rotations_total,
                "write_errors_total": server.wal.write_errors_total,
                "rejected_reports_total": server.wal_rejected_reports_total,
                "compacted_segments_total": (
                    server.wal.compacted_segments_total
                ),
                "fsync_total": server.wal.fsync_total,
                "truncated_tails_observed": mid_scan.truncated_tails,
                "corrupt_frames_observed": mid_scan.corrupt_frames,
                "final_snapshot_boundary": final_boundary,
                "post_stop_unsnapshotted_reports": residue_reports,
            },
        }


def _spawn_serve(
    argv: list[str], *, timeout_s: float = 120.0
) -> tuple[subprocess.Popen, int, list[str]]:
    """Boot a real ``repro serve`` subprocess; returns (proc, port, log).

    The subprocess runs unbuffered with stderr merged into stdout; a
    drain thread collects every line into ``log`` (so the pipe never
    fills) and the call returns once the server announces its bound
    port.
    """
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    log: list[str] = []
    listening = threading.Event()
    port_box: list[int] = []

    def drain() -> None:
        for line in proc.stdout:
            log.append(line.rstrip("\n"))
            marker = "listening on http://"
            if marker in line and not listening.is_set():
                port_box.append(int(line.rsplit(":", 1)[1]))
                listening.set()
        listening.set()  # EOF: unblock the waiter on early death

    threading.Thread(target=drain, daemon=True).start()
    if not listening.wait(timeout_s) or not port_box:
        proc.kill()
        proc.wait()
        raise RuntimeError(
            "repro serve subprocess never came up:\n" + "\n".join(log)
        )
    return proc, port_box[0], log


def _run_crash_phase(
    seed: int,
    *,
    profile: str,
    scale: float,
    train_days: int,
    kill_after_acks: int = 40,
) -> dict:
    """SIGKILL a journalling server mid-traffic; prove zero acked loss.

    A pump thread posts reports over a live connection and records every
    acknowledged ``(client, url, ts)`` in a ledger.  Once the ledger
    holds ``kill_after_acks`` entries the server is SIGKILLed — no
    shutdown hook runs, exactly like a crash.  The journal on disk must
    contain every ledger entry (write-ahead ordering: journalled before
    acked), a restarted server must replay them on boot, and SIGTERM
    must stop it gracefully with a final snapshot whose boundary covers
    the whole journal.
    """
    with tempfile.TemporaryDirectory(prefix="repro-chaos-crash-") as tmpdir:
        wal_dir = os.path.join(tmpdir, "wal")
        snapshot_path = os.path.join(tmpdir, "model.json")
        argv = [
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--profile", profile,
            "--train-days", str(train_days),
            "--seed", str(seed),
            "--scale", str(scale),
            "--snapshot", snapshot_path,
            "--wal-dir", wal_dir,
            "--wal-fsync", "interval",
            "--wal-segment-bytes", "16384",
        ]
        proc, port, _log = _spawn_serve(argv)

        ledger: list[tuple[str, str, float]] = []
        pump_errors: list[str] = []
        enough_acks = threading.Event()

        def pump() -> None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=5
            )
            index = 0
            try:
                while True:
                    client = f"crash-{index % 8}"
                    url = f"/page/{index}"
                    ts = 1_000_000.0 + index * 5.0
                    body = json.dumps(
                        {"client": client, "url": url, "ts": ts}
                    )
                    connection.request(
                        "POST",
                        "/report",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    response.read()
                    if response.status == 200:
                        ledger.append((client, url, ts))
                        if len(ledger) >= kill_after_acks:
                            enough_acks.set()
                    index += 1
            except (OSError, http.client.HTTPException) as exc:
                # The SIGKILL severs the connection mid-traffic; any
                # request in flight was never acknowledged and so is
                # allowed (not required) to survive.
                pump_errors.append(type(exc).__name__)
            finally:
                enough_acks.set()
                connection.close()

        pump_thread = threading.Thread(target=pump, daemon=True)
        pump_thread.start()
        enough_acks.wait(60.0)
        proc.kill()  # SIGKILL: no flush, no handlers, no goodbye
        proc.wait()
        pump_thread.join(10.0)

        # The ledger is the client's truth; the journal is the disk's.
        recovered = read_journal(wal_dir)
        journalled = {
            (record["c"], record["u"], record["t"])
            for record in recovered.records
            if record.get("k") == "r"
        }
        lost = [entry for entry in ledger if entry not in journalled]

        # Restart the same command line: boot recovery must replay the
        # journal, and SIGTERM must produce a graceful, covering exit.
        proc2, port2, _log2 = _spawn_serve(argv)
        _status, metrics = _http_text(
            "127.0.0.1", port2, "GET", "/metrics"
        )
        replayed = _metric_value(
            metrics, "repro_wal_recovery_records_replayed"
        )
        proc2.send_signal(signal.SIGTERM)
        graceful_exit = proc2.wait(timeout=60)

        _model, boundary = restore_snapshot_state(snapshot_path)
        residue = read_journal(wal_dir, boundary=boundary)
        residue_reports = sum(
            1 for record in residue.records if record.get("k") == "r"
        )

        return {
            "acked_reports": len(ledger),
            "pump_disconnect": pump_errors[0] if pump_errors else None,
            "journal_reports_on_disk": len(journalled),
            "lost_acked_reports": len(lost),
            "restart_records_replayed": replayed,
            "graceful_exit_code": graceful_exit,
            "final_snapshot_boundary": boundary,
            "post_shutdown_unsnapshotted_reports": residue_reports,
            "zero_loss": bool(ledger) and not lost,
        }


def _http_text(
    host: str, port: int, method: str, path: str
) -> tuple[int, str]:
    """One request with the raw body as text (for /metrics)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    return response.status, body.decode()


def _metric_value(metrics: str, name: str) -> int | None:
    for line in metrics.splitlines():
        if line.startswith(name + " "):
            return int(float(line.split()[1]))
    return None


def run_chaos(
    seed: int = 7,
    *,
    profile: str = "nasa-like",
    scale: float = 0.3,
    days: int = 1,
    train_days: int = 1,
    connections: int = 6,
    max_events: int | None = 400,
    out: str | None = None,
) -> dict:
    """One seeded chaos run; returns (and optionally writes) the report.

    The report's ``ok`` is the whole acceptance bar in one bool: the
    serving phase finished with zero failed requests and real predictions
    while every armed fault fired, the breaker closed again, the journal
    absorbed its injected faults and ended fully covered by the final
    snapshot, the SIGKILL crash drill lost zero acknowledged reports and
    restarted + shut down cleanly.
    """
    serving = _run_serving_phase(
        seed,
        profile=profile,
        scale=scale,
        days=days,
        train_days=train_days,
        connections=connections,
        max_events=max_events,
    )
    crash = _run_crash_phase(
        seed, profile=profile, scale=scale, train_days=train_days
    )
    report = {
        "config": {
            "seed": seed,
            "profile": profile,
            "scale": scale,
            "days": days,
            "train_days": train_days,
            "connections": connections,
            "max_events": max_events,
        },
        "serving": serving,
        "crash": crash,
        "ok": (
            serving["failed_requests"] == 0
            and serving["prediction_urls_returned"] > 0
            and serving["boot_quarantined"]
            and not serving["armed_never_fired"]
            and serving["server"]["breaker_state_final"] == "closed"
            and serving["wal"]["write_errors_total"] >= 1
            and serving["wal"]["truncated_tails_observed"] >= 1
            and serving["wal"]["post_stop_unsnapshotted_reports"] == 0
            and crash["zero_loss"]
            and crash["graceful_exit_code"] == 0
            and crash["post_shutdown_unsnapshotted_reports"] == 0
        ),
    }
    if out:
        directory = os.path.dirname(os.path.abspath(out))
        os.makedirs(directory, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def format_chaos_report(report: dict) -> str:
    """A compact human-readable rendering of a chaos report."""
    serving = report["serving"]
    crash = report["crash"]
    fires = ", ".join(
        f"{site} x{count}" for site, count in sorted(
            serving["fault_fires"].items()
        )
    ) or "none"
    lines = [
        f"verdict            {'OK' if report['ok'] else 'FAILED'}",
        f"requests           {serving['requests_total']}"
        f"  (failed {serving['failed_requests']})",
        f"prediction urls    {serving['prediction_urls_returned']}",
        f"faults fired       {fires}",
        f"absorbed by        503 retries {serving['retried_503']},"
        f" reconnects {serving['reconnects']},"
        f" shed {serving['server']['shed_total']},"
        f" snapshot retries {serving['server']['snapshot_retries_total']},"
        f" rebuild failures {serving['server']['refresh_failures_total']}"
        f" (skipped {serving['server']['refresh_skipped_total']}"
        f" while breaker open)",
        f"boot quarantine    {serving['boot_quarantined']}"
        f"  breaker final {serving['server']['breaker_state_final']}",
        f"journal            {serving['wal']['appended_records_total']}"
        f" records, write errors {serving['wal']['write_errors_total']},"
        f" torn tails {serving['wal']['truncated_tails_observed']},"
        f" unsnapshotted after stop"
        f" {serving['wal']['post_stop_unsnapshotted_reports']}",
        f"crash drill        {crash['acked_reports']} acked, SIGKILL,"
        f" lost {crash['lost_acked_reports']},"
        f" replayed {crash['restart_records_replayed']}"
        f" on restart, graceful exit {crash['graceful_exit_code']}",
    ]
    if serving["armed_never_fired"]:
        lines.append(
            "never fired        " + ", ".join(serving["armed_never_fired"])
        )
    return "\n".join(lines)
