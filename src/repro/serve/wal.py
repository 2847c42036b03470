"""Durable write-ahead report journal: zero-loss crash recovery.

Snapshots persist the model every few minutes
(:data:`repro.params.SERVE_SNAPSHOT_INTERVAL_S`); everything reported
since the last one dies with the process.  This module closes that gap
with the classic database answer — a write-ahead log: every report is
appended (and flushed to the operating system) *before* it is
acknowledged, so a crash, OOM-kill or ``kill -9`` loses at most the
requests that were never answered ``200``.

Format
------
A journal is a directory of segment files ``wal-<seq>.log``.  Each
segment starts with an 8-byte header (``RPWL`` magic + u32 format
version, checked by the recovery scan) followed by records framed as
``<u32 length><u32 crc32><payload>`` — the same
:func:`repro.validation.checksum` CRC-32 the columnar trace format uses.
Payloads are compact JSON:

``{"k": "r", "c": client, "u": url, "t": ts}``
    One acknowledged report (the server's unit of durability).
``{"k": "s", "sessions": [[client, [[url, ts], ...]], ...]}``
    A batch of completed sessions (:meth:`ReportJournal.append_sessions`).
    No serving path writes these any more; recovery still reads them.
``{"k": "c", "b": boundary, "open": [...], "pending": [...]}``
    A *carry* record written at a snapshot boundary: the open-session
    and pending-fold state that the model snapshot does **not** cover.
    Valid only for the snapshot whose stored boundary matches ``b`` —
    carries from failed snapshot attempts are skipped at recovery
    because everything they duplicate is still present as ordinary
    records in the retained segments.

Durability policy (:data:`repro.params.SERVE_WAL_FSYNC`): every append
is flushed to the file descriptor (page cache) before the caller acks,
which is already crash-proof against *process* death; ``fsync`` guards
against machine/power failure — ``"off"`` never syncs, ``"interval"``
(default) syncs at most every ``SERVE_WAL_FSYNC_INTERVAL_S`` seconds,
``"batch"`` syncs before every acknowledgement.

Rotation & compaction: the active segment is sealed and a new one
opened when it exceeds ``SERVE_WAL_SEGMENT_MAX_BYTES`` or
``SERVE_WAL_SEGMENT_MAX_AGE_S``.  A *successful* snapshot stores the
rotation boundary inside the snapshot document and then deletes the
sealed segments below it — compaction is pure space reclamation, never
a correctness step, so a failed snapshot simply leaves segments (and an
orphaned carry) behind for the next attempt.

Recovery (:func:`read_journal`): segments below the snapshot's boundary
are skipped (already inside the model); the rest replay in order.  A
segment scan stops at the first torn or corrupt frame (torn-tail
tolerant: a record half-written at the moment of death truncates
logically, it never poisons the journal) but later *segments* still
replay — an append error mid-run seals the damaged segment and rotates,
so a valid frame never follows a torn one within a segment.

Injection points (``repro.resilience``): ``wal.write_error`` fails an
append before any byte is written; ``wal.torn_tail`` tears an append
mid-frame (sealing the segment, as a crash would); ``wal.fsync_stall``
sleeps inside fsync.
"""

from __future__ import annotations

import json
import logging
import os
import re
import struct
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from math import isfinite
from typing import Callable

from repro import params
from repro.errors import ServeError, WalError
from repro.resilience.faults import fire
from repro.trace.record import Request
from repro.trace.sessions import Session
from repro.validation import checksum

logger = logging.getLogger("repro.serve")

WAL_MAGIC = b"RPWL"
WAL_VERSION = 1

_HEADER = struct.Struct("<4sI")  # magic, format version
_FRAME = struct.Struct("<II")  # payload length, payload crc32

#: Upper bound on one record's payload; a length field above it is
#: treated as corruption (a bit flip in the length must not make the
#: reader attempt a gigabyte allocation).
_MAX_RECORD_BYTES = 16 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

_FSYNC_POLICIES = ("off", "interval", "batch")


__all__ = [
    "ReportJournal",
    "WalRecovery",
    "WalError",
    "read_journal",
    "replay_into_tracker",
    "recovery_sessions",
    "list_segments",
    "segment_name",
]


def segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.log"


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(seq, path)`` for every segment file, ascending by sequence."""
    found: list[tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort()
    return found


def _encode_sessions(sessions: list[Session]) -> list:
    return [
        [s.client, [[r.url, r.timestamp] for r in s.requests]]
        for s in sessions
    ]


def _decode_sessions(encoded: list) -> list[Session]:
    sessions = []
    for client, clicks in encoded:
        if not clicks:
            continue
        sessions.append(
            Session(
                client=client,
                requests=tuple(
                    Request(client=client, timestamp=ts, url=url, size=0)
                    for url, ts in clicks
                ),
            )
        )
    return sessions


class ReportJournal:
    """Append-only, CRC-framed, segment-rotating report journal.

    Single-writer by design: every append happens on the serving event
    loop, so no internal locking is needed — the same discipline the tracker and updater
    already follow.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).  Existing segments are
        never appended to: each process lifetime opens a fresh segment
        above the highest sequence found, so a crash's torn tail stays
        sealed where recovery can truncate it.
    fsync / fsync_interval_s:
        Durability policy, see the module docstring.
    segment_max_bytes / segment_max_age_s:
        Rotation thresholds for the active segment.
    clock:
        Monotonic clock, injectable for the age-rotation tests.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = params.SERVE_WAL_FSYNC,
        fsync_interval_s: float = params.SERVE_WAL_FSYNC_INTERVAL_S,
        segment_max_bytes: int = params.SERVE_WAL_SEGMENT_MAX_BYTES,
        segment_max_age_s: float = params.SERVE_WAL_SEGMENT_MAX_AGE_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            known = ", ".join(_FSYNC_POLICIES)
            raise ServeError(
                f"unknown wal fsync policy {fsync!r}; expected one of {known}"
            )
        if segment_max_bytes < 64:
            raise ServeError(
                f"segment_max_bytes must be >= 64, got {segment_max_bytes}"
            )
        self.directory = directory
        self.fsync_policy = fsync
        self.fsync_interval_s = fsync_interval_s
        self.segment_max_bytes = segment_max_bytes
        self.segment_max_age_s = segment_max_age_s
        self._clock = clock
        self._file = None
        self._size = 0
        self._opened_at = 0.0
        self._last_fsync = clock()
        self._dirty = False
        self.appended_records_total = 0
        self.appended_bytes_total = 0
        self.fsync_total = 0
        self.rotations_total = 0
        self.write_errors_total = 0
        self.compacted_segments_total = 0
        self.consecutive_write_errors = 0
        os.makedirs(directory, exist_ok=True)
        existing = list_segments(directory)
        self.active_seq = (existing[-1][0] + 1) if existing else 1
        self._open_segment(self.active_seq)

    # -- segment lifecycle -----------------------------------------------------

    def _open_segment(self, seq: int) -> None:
        path = os.path.join(self.directory, segment_name(seq))
        handle = open(path, "xb", buffering=0)
        handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION))
        self._file = handle
        self._size = _HEADER.size
        self._opened_at = self._clock()
        self.active_seq = seq

    def rotate(self) -> int:
        """Seal the active segment, open the next; returns the new seq.

        The snapshot manager calls this to establish a boundary: every
        record below the returned sequence is in sealed segments that a
        successful snapshot (plus its carry record) fully covers.
        """
        self._seal(fsync=self.fsync_policy != "off")
        self.rotations_total += 1
        self._open_segment(self.active_seq + 1)
        return self.active_seq

    def _seal(self, *, fsync: bool) -> None:
        handle = self._file
        if handle is None:
            return
        self._file = None
        try:
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        except OSError:
            pass
        finally:
            try:
                handle.close()
            except OSError:
                pass
        self._dirty = False

    def close(self) -> None:
        """Flush, sync and close the active segment (idempotent)."""
        self._seal(fsync=self.fsync_policy != "off")

    @property
    def closed(self) -> bool:
        return self._file is None

    # -- appends ---------------------------------------------------------------

    def append_report(self, client: str, url: str, timestamp: float) -> None:
        """Journal one report; the caller acks only after this returns.

        This is the serving hot path — one call per acknowledged
        ``POST /report`` — so the payload is framed by hand (the C
        string escaper plus ``repr`` of the float, which is exactly what
        ``json.dumps`` emits for finite floats) instead of encoding a
        dict.  Anything unusual falls back to the generic encoder.
        """
        if type(timestamp) is float and isfinite(timestamp):
            self._append_payload(
                b'{"k":"r","c":%s,"u":%s,"t":%s}'
                % (
                    _json_string(client).encode(),
                    _json_string(url).encode(),
                    repr(timestamp).encode(),
                )
            )
        else:
            self._append({"k": "r", "c": client, "u": url, "t": timestamp})

    def append_sessions(self, sessions: list[Session]) -> None:
        """Journal a batch of completed sessions as one ``"s"`` record."""
        if sessions:
            self._append({"k": "s", "sessions": _encode_sessions(sessions)})

    def append_carry(
        self,
        boundary: int,
        open_sessions: list,
        pending_sessions: list[Session],
    ) -> None:
        """Journal the snapshot-boundary carry record.

        ``open_sessions`` uses the already-encoded
        ``[client, [[url, ts], ...]]`` shape (see
        :meth:`~repro.serve.state.ClientSessionTracker.open_session_state`);
        ``pending_sessions`` are Session objects awaiting the next fold.
        Recovery applies the carry only when the restored snapshot's
        stored boundary equals ``boundary``.
        """
        self._append(
            {
                "k": "c",
                "b": boundary,
                "open": list(open_sessions),
                "pending": _encode_sessions(pending_sessions),
            }
        )

    def _append(self, record: dict) -> None:
        self._append_payload(json.dumps(record, separators=(",", ":")).encode())

    def _append_payload(self, payload: bytes) -> None:
        if self._file is None:
            raise WalError("report journal is closed")
        frame = _FRAME.pack(len(payload), checksum(payload)) + payload
        if fire("wal.write_error"):
            self.write_errors_total += 1
            self.consecutive_write_errors += 1
            raise WalError("injected journal write error")
        torn = fire("wal.torn_tail")
        try:
            if torn is not None:
                self._file.write(frame[: max(1, len(frame) // 2)])
                raise OSError("injected torn append")
            # The segment is unbuffered: one write(2) puts the frame in
            # the page cache, which is the crash-durability guarantee.
            written = self._file.write(frame)
            while written < len(frame):  # short writes are theoretical
                written += self._file.write(memoryview(frame)[written:])
        except OSError as exc:
            # The segment may now end in a partial frame; recovery
            # truncates it, but a valid frame must never follow it —
            # seal the damaged segment and move on to a fresh one.
            self.write_errors_total += 1
            self.consecutive_write_errors += 1
            self._seal(fsync=False)
            self.rotations_total += 1
            try:
                self._open_segment(self.active_seq + 1)
            except OSError:
                # Disk truly gone: later appends fail loudly on the
                # closed journal; /healthz reports degraded meanwhile.
                logger.error(
                    "journal cannot open a fresh segment in %s",
                    self.directory,
                )
            raise WalError(f"journal append failed: {exc}") from exc
        self._size += len(frame)
        self.appended_records_total += 1
        self.appended_bytes_total += len(frame)
        self.consecutive_write_errors = 0
        self._dirty = True
        if self.fsync_policy == "batch":
            self._do_fsync()
        elif (
            self.fsync_policy == "interval"
            and self._clock() - self._last_fsync >= self.fsync_interval_s
        ):
            self._do_fsync()
        if self._size >= self.segment_max_bytes:
            self.rotate()

    # -- periodic work ---------------------------------------------------------

    def _do_fsync(self) -> None:
        spec = fire("wal.fsync_stall")
        if spec is not None:
            time.sleep(spec.delay_s)
        try:
            os.fsync(self._file.fileno())
        except OSError as exc:
            self.write_errors_total += 1
            raise WalError(f"journal fsync failed: {exc}") from exc
        self.fsync_total += 1
        self._last_fsync = self._clock()
        self._dirty = False

    def sync(self) -> None:
        """Force an fsync of the active segment now (shutdown path)."""
        if self._file is not None and self._dirty:
            self._do_fsync()

    def tick(self) -> None:
        """Housekeeping: age-based rotation and interval fsync.

        Swallows sync errors (they are counted and re-surface on the
        next append) so the caller's housekeeping loop never dies.
        """
        if self._file is None:
            return
        now = self._clock()
        if (
            self._size > _HEADER.size
            and now - self._opened_at >= self.segment_max_age_s
        ):
            self.rotate()
            return
        if (
            self.fsync_policy == "interval"
            and self._dirty
            and now - self._last_fsync >= self.fsync_interval_s
        ):
            try:
                self._do_fsync()
            except WalError:
                pass

    # -- compaction ------------------------------------------------------------

    def compact(self, boundary: int) -> int:
        """Delete sealed segments below ``boundary``; returns the count.

        Only called after a snapshot storing ``boundary`` has been
        verified on disk — every deleted record is inside the model (or
        its carry).  Deletion failures are logged and retried by the
        next snapshot's compaction; correctness never depends on them.
        """
        removed = 0
        for seq, path in list_segments(self.directory):
            if seq >= boundary:
                break
            try:
                os.unlink(path)
                removed += 1
            except OSError as exc:  # pragma: no cover - exotic perms
                logger.warning("journal compaction cannot remove %s: %s",
                               path, exc)
        self.compacted_segments_total += removed
        return removed

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "appended_records_total": self.appended_records_total,
            "appended_bytes_total": self.appended_bytes_total,
            "fsync_total": self.fsync_total,
            "rotations_total": self.rotations_total,
            "write_errors_total": self.write_errors_total,
            "compacted_segments_total": self.compacted_segments_total,
            "active_segment": self.active_seq,
            "fsync_policy": self.fsync_policy,
        }


# -- recovery ------------------------------------------------------------------


@dataclass
class WalRecovery:
    """What one :func:`read_journal` scan found and decided.

    ``records`` is the replayable stream in append order — carries that
    do not match the snapshot boundary are already filtered out.
    """

    boundary: int | None = None
    records: list[dict] = field(default_factory=list)
    segments_scanned: int = 0
    segments_skipped: int = 0
    corrupt_segments: int = 0
    empty_segments: int = 0
    truncated_tails: int = 0
    corrupt_frames: int = 0
    carry_applied: int = 0
    carry_skipped: int = 0
    bytes_scanned: int = 0

    @property
    def records_replayed(self) -> int:
        return len(self.records)

    def stats(self) -> dict:
        return {
            "boundary": self.boundary,
            "records_replayed": self.records_replayed,
            "segments_scanned": self.segments_scanned,
            "segments_skipped": self.segments_skipped,
            "corrupt_segments": self.corrupt_segments,
            "empty_segments": self.empty_segments,
            "truncated_tails": self.truncated_tails,
            "corrupt_frames": self.corrupt_frames,
            "carry_applied": self.carry_applied,
            "carry_skipped": self.carry_skipped,
            "bytes_scanned": self.bytes_scanned,
        }


def _scan_segment(path: str, recovery: WalRecovery, boundary: int | None) -> None:
    """Append ``path``'s valid record prefix to ``recovery`` (never raises)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        recovery.corrupt_segments += 1
        return
    recovery.bytes_scanned += len(data)
    if not data:
        recovery.empty_segments += 1
        return
    if len(data) < _HEADER.size:
        recovery.truncated_tails += 1
        return
    magic, version = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC or version != WAL_VERSION:
        recovery.corrupt_segments += 1
        return
    offset = _HEADER.size
    size = len(data)
    while offset < size:
        if size - offset < _FRAME.size:
            recovery.truncated_tails += 1
            return
        length, stored_crc = _FRAME.unpack_from(data, offset)
        if length > _MAX_RECORD_BYTES:
            recovery.corrupt_frames += 1
            return
        start = offset + _FRAME.size
        end = start + length
        if end > size:
            recovery.truncated_tails += 1
            return
        payload = data[start:end]
        if checksum(payload) != stored_crc:
            recovery.corrupt_frames += 1
            return
        try:
            record = json.loads(payload)
        except ValueError:
            recovery.corrupt_frames += 1
            return
        if not isinstance(record, dict) or "k" not in record:
            recovery.corrupt_frames += 1
            return
        offset = end
        if record["k"] == "c":
            if boundary is not None and record.get("b") == boundary:
                recovery.carry_applied += 1
                recovery.records.append(record)
            else:
                # A carry from a failed (or different) snapshot attempt:
                # everything it duplicates is still present as ordinary
                # records in the retained segments, so applying it would
                # double-count.
                recovery.carry_skipped += 1
        else:
            recovery.records.append(record)


def read_journal(directory: str, *, boundary: int | None = None) -> WalRecovery:
    """Scan a journal directory into a replayable :class:`WalRecovery`.

    ``boundary`` is the value stored inside the restored snapshot (None
    when there is no snapshot, or a pre-WAL one): segments below it are
    already folded into the snapshot and are skipped; carry records are
    applied only when their stored boundary matches.  Deterministic and
    crash-free on any damage — torn tails truncate, corrupt frames stop
    their segment, tampered headers skip their segment.
    """
    recovery = WalRecovery(boundary=boundary)
    for seq, path in list_segments(directory):
        if boundary is not None and seq < boundary:
            recovery.segments_skipped += 1
            continue
        recovery.segments_scanned += 1
        _scan_segment(path, recovery, boundary)
    return recovery


def replay_into_tracker(recovery: WalRecovery, tracker, updater) -> dict:
    """Replay recovered records through a live tracker/updater pair.

    The single-process boot path: ``"r"`` records re-observe through the
    :class:`~repro.serve.state.ClientSessionTracker` (open sessions come
    back *open*, with their context, and idle gaps split sessions
    exactly as they did live); session batches and carries feed the
    updater.  Ends with a fold so the recovered state is in the model
    before the first request lands.
    """
    reports = 0
    session_batches = 0
    for record in recovery.records:
        kind = record["k"]
        if kind == "r":
            tracker.observe(record["c"], record["u"], record["t"])
            reports += 1
        elif kind == "s":
            updater.add_sessions(_decode_sessions(record["sessions"]))
            session_batches += 1
        elif kind == "c":
            for client, clicks in record["open"]:
                for url, ts in clicks:
                    tracker.observe(client, url, ts)
            updater.add_sessions(_decode_sessions(record["pending"]))
    updater.add_sessions(tracker.drain_completed())
    folded = updater.fold_pending()
    return {
        "reports": reports,
        "session_batches": session_batches,
        "sessions_folded": folded,
        "open_clients": tracker.active_clients,
    }


def recovery_sessions(
    recovery: WalRecovery,
    *,
    idle_timeout_s: float = params.SESSION_IDLE_TIMEOUT_S,
) -> list[Session]:
    """Recovered records as completed sessions, for a caller with no tracker.

    ``"r"`` records are grouped into sessions per client with the paper's
    idle-gap rule and everything is returned as completed work, so open
    sessions do not survive as open (:func:`replay_into_tracker` keeps
    them open).
    """
    sessions: list[Session] = []
    open_clicks: dict[str, list[tuple[str, float]]] = {}

    def flush(client: str) -> None:
        clicks = open_clicks.pop(client, None)
        if clicks:
            sessions.append(
                Session(
                    client=client,
                    requests=tuple(
                        Request(client=client, timestamp=ts, url=url, size=0)
                        for url, ts in clicks
                    ),
                )
            )

    for record in recovery.records:
        kind = record["k"]
        if kind == "r":
            client, url, ts = record["c"], record["u"], record["t"]
            clicks = open_clicks.get(client)
            if clicks and ts - clicks[-1][1] > idle_timeout_s:
                flush(client)
            open_clicks.setdefault(client, []).append((url, ts))
        elif kind == "s":
            sessions.extend(_decode_sessions(record["sessions"]))
        elif kind == "c":
            sessions.extend(_decode_sessions(record["open"]))
            sessions.extend(_decode_sessions(record["pending"]))
    for client in sorted(open_clicks):
        flush(client)
    return sessions
