"""Online prefetch prediction serving (stdlib asyncio HTTP).

The deployable layer over the paper's models: a prediction server with
live model updates and read-copy-update hot swaps
(:mod:`repro.serve.server`), per-client session tracking with the paper's
30-minute idle expiry (:mod:`repro.serve.state`), online maintenance
(:mod:`repro.serve.updater`), snapshots (:mod:`repro.serve.snapshot`),
a durable write-ahead report journal with crash recovery
(:mod:`repro.serve.wal`) and a trace-driven load generator
(:mod:`repro.serve.loadgen`).
"""

from repro.serve.loadgen import format_report, run_loadgen
from repro.serve.server import PrefetchServer, ServerThread
from repro.serve.snapshot import (
    SnapshotManager,
    load_snapshot,
    restore_snapshot,
    restore_snapshot_state,
    write_snapshot,
)
from repro.serve.state import ClientSessionTracker, ModelRef, trim_context
from repro.serve.updater import ModelUpdater
from repro.serve.wal import (
    ReportJournal,
    WalRecovery,
    read_journal,
    recovery_sessions,
    replay_into_tracker,
)

__all__ = [
    "ClientSessionTracker",
    "ModelRef",
    "ModelUpdater",
    "PrefetchServer",
    "ReportJournal",
    "ServerThread",
    "SnapshotManager",
    "WalRecovery",
    "format_report",
    "load_snapshot",
    "read_journal",
    "recovery_sessions",
    "replay_into_tracker",
    "restore_snapshot",
    "restore_snapshot_state",
    "run_loadgen",
    "trim_context",
    "write_snapshot",
]
