"""Unit tests for the write-ahead report journal.

Append/scan round-trips, segment rotation by size and age, the three
fsync policies, boundary-gated carry records, compaction, and the replay
helpers for both serving topologies — all against real files in a
tmpdir, with an injectable clock where timing matters.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ServeError, WalError
from repro.serve.state import ClientSessionTracker, ModelRef
from repro.serve.updater import ModelUpdater
from repro.serve.wal import (
    ReportJournal,
    list_segments,
    read_journal,
    recovery_sessions,
    replay_into_tracker,
    segment_name,
)

from tests.helpers import make_sessions
from tests.resilience.test_breaker import FakeClock
from tests.serve.conftest import fitted_model


def make_journal(tmp_path, **kwargs) -> ReportJournal:
    kwargs.setdefault("fsync", "off")
    return ReportJournal(str(tmp_path / "wal"), **kwargs)


class TestAppendAndScan:
    def test_report_round_trips(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "/a", 100.0)
        journal.append_report("c1", "/b", 105.5)
        journal.close()
        recovery = read_journal(journal.directory)
        assert recovery.records == [
            {"k": "r", "c": "c1", "u": "/a", "t": 100.0},
            {"k": "r", "c": "c1", "u": "/b", "t": 105.5},
        ]
        assert recovery.truncated_tails == 0
        assert recovery.corrupt_frames == 0

    def test_session_batch_round_trips(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_sessions(make_sessions([("A", "B"), ("C",)]))
        journal.close()
        recovery = read_journal(journal.directory)
        (record,) = recovery.records
        assert record["k"] == "s"
        sessions = recovery_sessions(recovery)
        assert [[r.url for r in s.requests] for s in sessions] == [
            ["A", "B"],
            ["C"],
        ]

    def test_empty_session_batch_is_not_journalled(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_sessions([])
        assert journal.appended_records_total == 0
        journal.close()

    def test_append_on_closed_journal_raises(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.close()
        assert journal.closed
        with pytest.raises(WalError):
            journal.append_report("c1", "/a", 1.0)

    def test_close_is_idempotent(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.close()
        journal.close()

    def test_unknown_fsync_policy_is_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="fsync policy"):
            ReportJournal(str(tmp_path / "wal"), fsync="aggressively")

    def test_tiny_segment_cap_is_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="segment_max_bytes"):
            ReportJournal(str(tmp_path / "wal"), segment_max_bytes=8)

    def test_stats_shape(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "/a", 1.0)
        stats = journal.stats()
        assert stats["appended_records_total"] == 1
        assert stats["appended_bytes_total"] > 0
        assert stats["active_segment"] == 1
        assert stats["fsync_policy"] == "off"
        journal.close()


class TestRotation:
    def test_size_rotation_opens_next_segment(self, tmp_path):
        journal = make_journal(tmp_path, segment_max_bytes=128)
        for index in range(10):
            journal.append_report(f"c{index}", "/page", float(index))
        assert journal.rotations_total >= 2
        assert journal.active_seq == journal.rotations_total + 1
        journal.close()
        # Every record survives across all the segments.
        assert read_journal(journal.directory).records_replayed == 10

    def test_each_process_opens_a_fresh_segment(self, tmp_path):
        first = make_journal(tmp_path)
        first.append_report("c1", "/a", 1.0)
        first.close()
        second = make_journal(tmp_path)
        assert second.active_seq == 2
        second.append_report("c2", "/b", 2.0)
        second.close()
        assert [seq for seq, _ in list_segments(second.directory)] == [1, 2]
        assert read_journal(second.directory).records_replayed == 2

    def test_age_rotation_via_tick(self, tmp_path):
        clock = FakeClock()
        journal = make_journal(tmp_path, segment_max_age_s=60.0, clock=clock)
        journal.append_report("c1", "/a", 1.0)
        journal.tick()  # too young
        assert journal.rotations_total == 0
        clock.advance(61.0)
        journal.tick()
        assert journal.rotations_total == 1
        assert journal.active_seq == 2
        journal.close()

    def test_empty_segment_is_never_age_rotated(self, tmp_path):
        clock = FakeClock()
        journal = make_journal(tmp_path, segment_max_age_s=60.0, clock=clock)
        clock.advance(3600.0)
        journal.tick()
        assert journal.rotations_total == 0
        journal.close()


class TestFsyncPolicies:
    def test_batch_syncs_every_append(self, tmp_path):
        journal = make_journal(tmp_path, fsync="batch")
        journal.append_report("c1", "/a", 1.0)
        journal.append_report("c1", "/b", 2.0)
        assert journal.fsync_total == 2
        journal.close()

    def test_off_never_syncs(self, tmp_path):
        journal = make_journal(tmp_path, fsync="off")
        journal.append_report("c1", "/a", 1.0)
        journal.sync()  # sync() only flushes dirty *fsync-managed* state
        journal.close()
        assert journal.fsync_total == 1  # the explicit shutdown sync only

    def test_interval_syncs_when_due(self, tmp_path):
        clock = FakeClock()
        journal = make_journal(
            tmp_path, fsync="interval", fsync_interval_s=5.0, clock=clock
        )
        journal.append_report("c1", "/a", 1.0)
        assert journal.fsync_total == 0  # not due yet
        clock.advance(6.0)
        journal.append_report("c1", "/b", 2.0)
        assert journal.fsync_total == 1
        journal.append_report("c1", "/c", 3.0)
        assert journal.fsync_total == 1  # interval restarted
        journal.close()

    def test_tick_syncs_dirty_interval_journal(self, tmp_path):
        clock = FakeClock()
        journal = make_journal(
            tmp_path, fsync="interval", fsync_interval_s=5.0, clock=clock
        )
        journal.append_report("c1", "/a", 1.0)
        clock.advance(6.0)
        journal.tick()
        assert journal.fsync_total == 1
        journal.close()


class TestCompaction:
    def test_compact_removes_only_below_boundary(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "/a", 1.0)
        journal.rotate()
        journal.append_report("c1", "/b", 2.0)
        boundary = journal.rotate()
        journal.append_report("c1", "/c", 3.0)
        assert journal.compact(boundary) == 2
        assert journal.compacted_segments_total == 2
        remaining = [seq for seq, _ in list_segments(journal.directory)]
        assert remaining == [boundary]
        journal.close()
        assert read_journal(journal.directory).records_replayed == 1

    def test_recovery_skips_segments_below_boundary(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "/a", 1.0)
        boundary = journal.rotate()
        journal.append_report("c1", "/b", 2.0)
        journal.close()
        recovery = read_journal(journal.directory, boundary=boundary)
        assert recovery.segments_skipped == 1
        assert [r["u"] for r in recovery.records] == ["/b"]


class TestCarry:
    def test_matching_boundary_applies_carry(self, tmp_path):
        journal = make_journal(tmp_path)
        boundary = journal.rotate()
        journal.append_carry(
            boundary,
            [["c1", [["/open", 10.0]]]],
            make_sessions([("A", "B")]),
        )
        journal.close()
        recovery = read_journal(journal.directory, boundary=boundary)
        assert recovery.carry_applied == 1
        assert recovery.carry_skipped == 0
        (record,) = recovery.records
        assert record["k"] == "c"

    def test_mismatched_boundary_skips_carry(self, tmp_path):
        journal = make_journal(tmp_path)
        boundary = journal.rotate()
        journal.append_carry(boundary, [], [])
        journal.close()
        # No snapshot landed (boundary=None) or an older snapshot won:
        # either way the carry must not double-count.
        for restored in (None, boundary - 1):
            recovery = read_journal(journal.directory, boundary=restored)
            assert recovery.carry_applied == 0
            assert recovery.carry_skipped == 1
            assert recovery.records == []


class TestReplayIntoTracker:
    def test_reports_reopen_sessions_with_context(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "A", 100.0)
        journal.append_report("c1", "B", 110.0)
        journal.close()
        ref = ModelRef(fitted_model())
        tracker = ClientSessionTracker(ref)
        updater = ModelUpdater(ref)
        recovery = read_journal(journal.directory)
        replayed = replay_into_tracker(recovery, tracker, updater)
        assert replayed["reports"] == 2
        assert replayed["open_clients"] == 1
        # The recovered session is open *with context*: prediction picks
        # up exactly where the journal left off.
        assert tracker.context("c1") == ("A", "B")

    def test_carry_pending_sessions_are_folded(self, tmp_path):
        journal = make_journal(tmp_path)
        boundary = journal.rotate()
        journal.append_carry(
            boundary,
            [["c9", [["A", 50.0]]]],
            make_sessions([("Q", "R"), ("Q", "R"), ("Q", "R")]),
        )
        journal.close()
        ref = ModelRef(fitted_model())
        tracker = ClientSessionTracker(ref)
        updater = ModelUpdater(ref)
        recovery = read_journal(journal.directory, boundary=boundary)
        replayed = replay_into_tracker(recovery, tracker, updater)
        assert replayed["sessions_folded"] == 3
        assert tracker.context("c9") == ("A",)
        assert "Q" in updater.ref.model.roots


class TestRecoverySessions:
    def test_idle_gap_splits_sessions(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "A", 100.0)
        journal.append_report("c1", "B", 110.0)
        journal.append_report("c1", "C", 110.0 + 3600.0)  # past the gap
        journal.close()
        sessions = recovery_sessions(
            read_journal(journal.directory), idle_timeout_s=1800.0
        )
        assert [[r.url for r in s.requests] for s in sessions] == [
            ["A", "B"],
            ["C"],
        ]

    def test_interleaved_clients_stay_separate(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append_report("c1", "A", 1.0)
        journal.append_report("c2", "X", 2.0)
        journal.append_report("c1", "B", 3.0)
        journal.close()
        sessions = recovery_sessions(read_journal(journal.directory))
        by_client = {s.client: [r.url for r in s.requests] for s in sessions}
        assert by_client == {"c1": ["A", "B"], "c2": ["X"]}


def test_segment_name_is_zero_padded():
    assert segment_name(7) == "wal-00000007.log"


def test_list_segments_ignores_strangers(tmp_path):
    directory = tmp_path / "wal"
    os.makedirs(directory)
    (directory / "wal-00000001.log").write_bytes(b"")
    (directory / "wal-1.log").write_bytes(b"")
    (directory / "notes.txt").write_bytes(b"")
    assert [seq for seq, _ in list_segments(str(directory))] == [1]


def test_list_segments_missing_directory(tmp_path):
    assert list_segments(str(tmp_path / "absent")) == []
