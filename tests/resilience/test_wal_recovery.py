"""Journal recovery under damage and injected faults.

The corruption matrix from the ISSUE: torn tails, a mid-segment bit-flip
sweep over *every byte* of a segment, a tampered format version, empty
and zero-length segments, and a snapshot newer than the whole journal —
each must recover deterministically (truncate, skip or quarantine), and
``read_journal`` must never raise.  On top: the three ``wal.*``
injection sites exercised through a live server, and an end-to-end
crash-image restart proving reports survive across a snapshot boundary
with their open-session context intact.
"""

from __future__ import annotations

import os
import shutil
import struct

import pytest

from repro.errors import WalError
from repro.resilience import FaultPlan, injected
from repro.serve.server import PrefetchServer, ServerThread
from repro.serve.snapshot import restore_snapshot_state
from repro.serve.wal import (
    WAL_MAGIC,
    ReportJournal,
    list_segments,
    read_journal,
    segment_name,
)

from tests.serve.conftest import ServeClient, fitted_model


def journal_with_reports(tmp_path, count: int = 3) -> str:
    journal = ReportJournal(str(tmp_path / "wal"), fsync="off")
    for index in range(count):
        journal.append_report(f"c{index % 2}", f"/p{index}", 100.0 + index)
    journal.close()
    return journal.directory


def segment_path(directory: str, seq: int = 1) -> str:
    return os.path.join(directory, segment_name(seq))


class TestCorruptionMatrix:
    def test_torn_tail_truncates_to_valid_prefix(self, tmp_path):
        directory = journal_with_reports(tmp_path, count=3)
        path = segment_path(directory)
        intact = read_journal(directory).records
        # Cut the file at every length from just-past-the-header to
        # just-short-of-complete: the scan must return a clean prefix.
        full = open(path, "rb").read()
        for cut in range(9, len(full)):
            with open(path, "wb") as handle:
                handle.write(full[:cut])
            recovery = read_journal(directory)
            assert recovery.records == intact[: len(recovery.records)]
            assert recovery.corrupt_frames == 0
            if recovery.truncated_tails == 0:
                # Only a cut landing exactly on a frame boundary reads
                # clean — and then every record before it must survive.
                assert len(recovery.records) < len(intact)
            else:
                assert recovery.truncated_tails == 1
        # Empty-past-header is a valid, record-less segment.
        with open(path, "wb") as handle:
            handle.write(full[:8])
        assert read_journal(directory).records == []

    def test_bit_flip_sweep_never_crashes(self, tmp_path):
        directory = journal_with_reports(tmp_path, count=3)
        path = segment_path(directory)
        original = open(path, "rb").read()
        intact = read_journal(directory).records
        for position in range(len(original)):
            damaged = bytearray(original)
            damaged[position] ^= 0x40
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            recovery = read_journal(directory)  # must never raise
            # Whatever the flip hit — header, length, CRC or payload —
            # recovery yields a (possibly shorter) prefix of the truth,
            # never fabricated or reordered records.
            assert recovery.records == intact[: len(recovery.records)]
            if recovery.records != intact:
                assert (
                    recovery.corrupt_segments
                    + recovery.corrupt_frames
                    + recovery.truncated_tails
                ) >= 1
        with open(path, "wb") as handle:
            handle.write(original)
        assert read_journal(directory).records == intact

    def test_version_tamper_skips_segment_not_journal(self, tmp_path):
        journal = ReportJournal(str(tmp_path / "wal"), fsync="off")
        journal.append_report("c1", "/old", 1.0)
        journal.rotate()
        journal.append_report("c1", "/new", 2.0)
        journal.close()
        path = segment_path(journal.directory, seq=1)
        with open(path, "r+b") as handle:
            handle.write(struct.pack("<4sI", WAL_MAGIC, 99))
        recovery = read_journal(journal.directory)
        assert recovery.corrupt_segments == 1
        # The tampered segment is skipped; the later segment still replays.
        assert [r["u"] for r in recovery.records] == ["/new"]

    def test_magic_tamper_skips_segment(self, tmp_path):
        directory = journal_with_reports(tmp_path)
        path = segment_path(directory)
        with open(path, "r+b") as handle:
            handle.write(b"NOPE")
        recovery = read_journal(directory)
        assert recovery.corrupt_segments == 1
        assert recovery.records == []

    def test_zero_length_segment_is_tolerated(self, tmp_path):
        directory = journal_with_reports(tmp_path)
        open(os.path.join(directory, segment_name(2)), "wb").close()
        recovery = read_journal(directory)
        assert recovery.empty_segments == 1
        assert recovery.records_replayed == 3

    def test_short_header_is_a_truncated_tail(self, tmp_path):
        directory = journal_with_reports(tmp_path)
        with open(os.path.join(directory, segment_name(2)), "wb") as handle:
            handle.write(b"RPW")
        recovery = read_journal(directory)
        assert recovery.truncated_tails == 1
        assert recovery.records_replayed == 3

    def test_absurd_length_field_is_corruption_not_allocation(self, tmp_path):
        directory = journal_with_reports(tmp_path, count=1)
        path = segment_path(directory)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 1 << 30, 0) + b"xx")
        recovery = read_journal(directory)
        assert recovery.corrupt_frames == 1
        assert recovery.records_replayed == 1

    def test_snapshot_newer_than_journal_replays_nothing(self, tmp_path):
        directory = journal_with_reports(tmp_path)
        recovery = read_journal(directory, boundary=10)
        assert recovery.records == []
        assert recovery.segments_skipped == 1
        assert recovery.segments_scanned == 0


class TestInjectedWalFaults:
    @pytest.fixture
    def wal_server(self, tmp_path):
        handle = ServerThread(
            PrefetchServer(
                fitted_model(),
                housekeeping_interval_s=0.05,
                wal_dir=str(tmp_path / "wal"),
                wal_fsync="off",
            )
        ).start()
        try:
            yield handle
        finally:
            handle.stop()

    def test_write_error_refuses_report_and_journal_stays_intact(
        self, wal_server
    ):
        server = wal_server.server
        client = ServeClient(wal_server.host, wal_server.port)
        try:
            client.report("c1", "A", 1.0)
            plan = FaultPlan(seed=7).arm("wal.write_error", times=1)
            with injected(plan):
                status, payload = client.report("c1", "B", 2.0)
            assert status == 503
            assert "not journalled" in payload["error"]
            # The refused report never reached the tracker: no divergence
            # between what was acked and what is durable.
            assert server.tracker.context("c1") == ("A",)
            assert server.wal_rejected_reports_total == 1
            assert server.wal.consecutive_write_errors == 1
            # The client's retry (no fault armed now) goes through.
            status, _ = client.report("c1", "B", 2.0)
            assert status == 200
            assert server.wal.consecutive_write_errors == 0
        finally:
            client.close()
        wal_server.stop()
        recovery = read_journal(server.wal.directory)
        assert [r["u"] for r in recovery.records] == ["A", "B"]

    def test_degraded_while_appends_failing(self, wal_server):
        client = ServeClient(wal_server.host, wal_server.port)
        try:
            plan = FaultPlan(seed=7).arm("wal.write_error", times=1)
            with injected(plan):
                client.report("c1", "A", 1.0)
            status, payload = client.json("GET", "/healthz")
            assert status == 200
            assert payload["status"] == "degraded"
            assert "wal-appends-failing" in payload["degraded_reasons"]
        finally:
            client.close()

    def test_torn_tail_seals_segment_and_rotates(self, wal_server):
        server = wal_server.server
        client = ServeClient(wal_server.host, wal_server.port)
        try:
            client.report("c1", "A", 1.0)
            plan = FaultPlan(seed=7).arm("wal.torn_tail", times=1)
            with injected(plan):
                status, _ = client.report("c1", "B", 2.0)
            assert status == 503
            assert server.wal.rotations_total == 1
            assert server.wal.active_seq == 2
            # The retry lands in the fresh segment.
            status, _ = client.report("c1", "B", 2.0)
            assert status == 200
        finally:
            client.close()
        wal_server.stop()
        recovery = read_journal(server.wal.directory)
        assert recovery.truncated_tails == 1
        # The torn frame is gone; both acknowledged reports survive.
        assert [r["u"] for r in recovery.records] == ["A", "B"]

    def test_fsync_stall_slows_but_does_not_fail(self, tmp_path):
        journal = ReportJournal(str(tmp_path / "wal"), fsync="batch")
        plan = FaultPlan(seed=7).arm(
            "wal.fsync_stall", times=1, delay_s=0.05
        )
        with injected(plan):
            journal.append_report("c1", "A", 1.0)
        assert journal.appended_records_total == 1
        assert journal.fsync_total == 1
        journal.close()

    def test_metrics_expose_wal_counters(self, wal_server):
        client = ServeClient(wal_server.host, wal_server.port)
        try:
            client.report("c1", "A", 1.0)
            _status, payload = client.request("GET", "/metrics")
        finally:
            client.close()
        text = payload.decode()
        assert "repro_wal_appended_records_total 1" in text
        assert "repro_wal_write_errors_total 0" in text
        assert "repro_wal_active_segment 1" in text


class TestCrashImageRestart:
    def test_reports_survive_across_snapshot_boundary(self, tmp_path):
        """Crash-image restart: snapshot + journal = no acked click lost.

        A copy of the disk state taken *before* the graceful stop is a
        faithful crash image (a graceful stop would write a covering
        snapshot; a crash does not).  Recovery must restore the model
        from the snapshot, apply its carry, and replay the post-boundary
        reports — with the client's open session continuing seamlessly.
        """
        live_wal = str(tmp_path / "wal")
        live_snapshot = str(tmp_path / "model.json")
        handle = ServerThread(
            PrefetchServer(
                fitted_model(),
                housekeeping_interval_s=0.05,
                snapshot_path=live_snapshot,
                wal_dir=live_wal,
                wal_fsync="off",
            )
        ).start()
        handle.server.snapshots.backoff_s = 0.0
        client = ServeClient(handle.host, handle.port)
        try:
            client.report("c1", "A", 100.0)
            client.report("c1", "B", 110.0)
            status, _ = client.json("POST", "/admin/snapshot")
            assert status == 200
            client.report("c1", "C", 120.0)
            client.report("c2", "A", 125.0)
            # Crash image: what a kill -9 at this instant leaves on disk.
            image_wal = str(tmp_path / "image-wal")
            image_snapshot = str(tmp_path / "image-model.json")
            shutil.copytree(live_wal, image_wal)
            shutil.copy(live_snapshot, image_snapshot)
        finally:
            client.close()
            handle.stop()

        model, boundary = restore_snapshot_state(image_snapshot)
        assert model is not None
        assert boundary is not None
        # Compaction ran at the snapshot: pre-boundary segments are gone.
        assert all(seq >= boundary for seq, _ in list_segments(image_wal))

        restarted = PrefetchServer(
            model,
            snapshot_path=image_snapshot,
            wal_dir=image_wal,
            wal_fsync="off",
        )
        replayed = restarted.recover_journal(boundary)
        assert replayed["reports"] == 2
        assert restarted.last_recovery["carry_applied"] == 1
        # c1's session is back *open* with full pre-crash context; the
        # journal carried A,B over the boundary and replayed C after it.
        assert restarted.tracker.context("c1") == ("A", "B", "C")
        assert restarted.tracker.context("c2") == ("A",)
        restarted.wal.close()

