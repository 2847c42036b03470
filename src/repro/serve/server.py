"""The online prefetch prediction server (stdlib asyncio, HTTP/1.1).

Exposes the paper's model as the deployable component related work calls a
"predictive prefetching engine": clients report their clicks, the server
answers with prefetch candidates, and the model keeps learning while it
serves.

Surface
-------
``POST /report``
    One access event: ``?client=<id>&url=<path>[&ts=<seconds>]``.  With
    ``&predict=1`` the response carries the predictions for the updated
    context (one round trip per click — the low-latency path the load
    generator measures by default).
``GET /predict``
    Prefetch candidates: ``?client=<id>[&threshold=<p>][&limit=<n>]``.
``GET /healthz``
    Liveness JSON: model version, node count, active clients, uptime.
``GET /metrics``
    Prometheus text-format counters and gauges.
``POST /admin/snapshot`` / ``POST /admin/reload``
    Persist the live model now / swap in the on-disk snapshot.
``POST /admin/refresh``
    Force a read-copy-update rebuild from the retained session window.

Concurrency model: one asyncio event loop runs every request handler, the
housekeeping tick (idle expiry, incremental folds, scheduled refreshes and
snapshots) and the model swaps; rebuild and file-write work is pushed to
worker threads.  A request grabs one ``(model, version)`` snapshot from
the :class:`~repro.serve.state.ModelRef` and computes against it alone, so
predictions during a swap come from exactly the old or the new model —
never a mix (``tests/serve/test_hotswap.py`` pins this).

:class:`ServerThread` runs the whole server on a background thread with
its own loop — the embedding used by the tests, the load generator's
``--spawn`` mode and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from typing import Awaitable, Callable, Iterable
from urllib.parse import parse_qsl, unquote, urlsplit

from repro import params
from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.errors import ReproError, ServeError, WalError
from repro.resilience.faults import fire
from repro.serve.snapshot import SnapshotManager
from repro.serve.state import ClientSessionTracker, ModelRef, check_predict_args
from repro.serve.updater import ModelUpdater
from repro.serve.wal import ReportJournal, read_journal, replay_into_tracker
from repro.trace.sessions import Session

logger = logging.getLogger("repro.serve")

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


#: The head of the data plane's usual answer (200, JSON, keep-alive),
#: formatted once; ``%`` fills in its Content-Length.
_JSON_OK_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
)

#: Entries each memo below holds at most.  Bounded so an adversarial
#: request stream cannot grow one without limit; at the bound a memo
#: stops filling and a miss pays the computation it always did.
_MEMO_LIMIT = 100_000
#: Percent-decoded query keys and values.
_decoded: dict[str, str] = {}
#: JSON-encoded client ids.
_json_strings: dict = {}
#: JSON fragments, one per distinct Prediction tuple: compiled-table rows
#: hand back the same tuples request after request.
_prediction_fragments: dict = {}


def _memo(cache: dict, key, compute: Callable):
    """``compute(key)``, kept in ``cache`` while it holds fewer than
    :data:`_MEMO_LIMIT` entries."""
    value = cache.get(key)
    if value is None:
        value = compute(key)
        if len(cache) < _MEMO_LIMIT:
            cache[key] = value
    return value


def _json_body(status: int, payload: dict) -> tuple[int, str, bytes]:
    return status, _JSON, json.dumps(payload, separators=(",", ":")).encode()


def _split_target(target: str) -> tuple[str, dict[str, str]]:
    """Fast-lane twin of ``urlsplit`` + ``parse_qsl``.

    The common request target — origin form (one leading ``/``),
    ``&``-separated pairs — is handled with string splits and a memoised
    ``unquote`` per escaped field, instead of ``parse_qsl``'s
    unconditional decode of every key and value.  Any other form (the
    absolute form ``http://host/path``, ``//``, ``*``), plus-as-space, a
    fragment, or a tab or line break (which ``urlsplit`` deletes) falls
    back to the stdlib parsers.  Matches ``urlsplit(target).path`` and
    ``dict(parse_qsl(urlsplit(target).query))`` exactly: blank values and
    bare keys are dropped, the last duplicate wins.  A target
    ``urlsplit`` rejects (an unparsable authority such as ``//[``)
    raises :class:`~repro.errors.ServeError`, which is answered 400.
    """
    if (
        target[:1] != "/"
        or target[1:2] == "/"
        or "+" in target
        or "#" in target
        or "\t" in target
        or "\r" in target
        or "\n" in target
    ):
        try:
            split = urlsplit(target)
        except ValueError as exc:
            raise ServeError(f"malformed request target: {exc}") from None
        return split.path, dict(parse_qsl(split.query))
    path, _, qs = target.partition("?")
    query: dict[str, str] = {}
    if qs:
        for pair in qs.split("&"):
            key, eq, value = pair.partition("=")
            if eq and value:
                if "%" in value:
                    value = _memo(_decoded, value, unquote)
                if "%" in key:
                    key = _memo(_decoded, key, unquote)
                query[key] = value
    return path, query


def _is_admin(target: str) -> bool:
    """Whether ``target``'s path is under ``/admin/``: the admin lane."""
    if target.startswith("/admin/"):
        return True
    if target[:1] == "/" and target[1:2] != "/":
        return False  # origin form: the path is a prefix of the target
    try:
        return _split_target(target)[0].startswith("/admin/")
    except ServeError:
        return False  # the data plane answers it 400


def _error_body(status: int, message: str) -> tuple[int, str, bytes]:
    return _json_body(status, {"error": message})


def _failure(exc: Exception) -> tuple[int, str, bytes]:
    """The answer to a dispatch that raised: 400 for a request the
    program refused (:class:`~repro.errors.ReproError`), else 500."""
    if isinstance(exc, ReproError):
        return _error_body(400, str(exc))
    logger.error("request handler failed", exc_info=exc)
    return _error_body(500, f"{type(exc).__name__}: {exc}")


def _response(
    status: int,
    content_type: str,
    payload: bytes,
    close: bool,
    retry_after: float | None,
) -> bytes:
    """One whole HTTP/1.1 response, head and body."""
    if status == 200 and content_type == _JSON and not close:
        return _JSON_OK_HEAD % len(payload) + payload
    head = (
        f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if retry_after is not None:
        head += f"Retry-After: {max(1, round(retry_after))}\r\n"
    head += f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    return head.encode("latin-1") + payload


#: Longest request head the server frames, and the most a connection
#: buffers while a task-lane request holds it (``asyncio``'s default
#: stream buffer limit).
_MAX_HEAD_BYTES = 64 * 1024

#: Largest request body the server reads.  A report body is a few dozen
#: bytes of JSON; a longer declared length is refused before any of it is
#: read.
_MAX_BODY_BYTES = 64 * 1024


def _content_length(headers: dict[str, str]) -> int | None:
    """The request body's length, or None when the header is malformed.

    The field is decimal digits only (RFC 9110); ``int`` alone would also
    accept a sign, underscores and non-ASCII digits.
    """
    field = headers.get("content-length")
    if not field:
        return 0
    if not (field.isascii() and field.isdigit()):
        return None
    try:
        return int(field)
    except ValueError:  # more digits than int() converts
        return None


def _prediction_json(p) -> str:
    return json.dumps(
        {
            "url": p.url,
            "probability": round(p.probability, 6),
            "order": p.order,
            "source": p.source,
        },
        separators=(",", ":"),
    )


class PrefetchServer:
    """Serve predictions from a fitted model over HTTP.

    Parameters
    ----------
    model:
        The fitted model to publish initially (e.g. a restored snapshot).
        May be None when ``bootstrap_sessions`` is given instead: the
        initial model is then fitted through the updater's rolling
        manager, so the first refresh window already holds the bootstrap
        day.
    bootstrap_sessions:
        Training sessions to fit the initial model from (used when
        ``model`` is None): a session view, which stays columns through
        the fit and the rolling window, or any iterable of sessions,
        read once (:func:`~repro.core.online.session_day`).  An empty
        one raises :class:`~repro.errors.ServeError`.
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    idle_timeout_s / max_context_length:
        Session semantics, passed to the tracker (paper defaults).
    model_factory:
        Refresh model builder, passed to the updater (default PB-PPM).
    window_days:
        Session-window days the updater retains for refreshes.
    fold_interval_s:
        How often completed sessions are folded into the live model.
    refresh_interval_s:
        Scheduled read-copy-update rebuild cadence; None leaves refreshes
        to ``POST /admin/refresh``.
    snapshot_path / snapshot_interval_s:
        Snapshot file and cadence; the path alone enables the admin
        surface and a final snapshot on shutdown.
    wal_dir:
        Directory of the write-ahead report journal
        (:class:`~repro.serve.wal.ReportJournal`).  When set, every
        ``POST /report`` is journalled *before* it is acknowledged, so
        an acked report survives any crash; call
        :meth:`recover_journal` after construction (the CLI boot path
        does) to replay what a previous process journalled.  Snapshots
        establish journal boundaries and compact covered segments.
    wal_fsync / wal_fsync_interval_s:
        The journal's fsync policy (``off`` / ``interval`` / ``batch``)
        and the ``interval`` policy's cadence.
    wal_segment_max_bytes / wal_segment_max_age_s:
        Journal segment rotation thresholds.
    housekeeping_interval_s:
        Base tick of the background task.
    request_timeout_s / max_inflight / retry_after_s:
        Overload protection: a dispatch that exceeds the timeout, or
        arrives while ``max_inflight`` requests are already being
        handled, is answered ``503`` with a ``Retry-After`` header
        instead of queueing without bound (defaults from
        :mod:`repro.params`).  ``/admin/*`` requests are exempt from the
        per-request deadline (they run under their own supervised
        rebuild/snapshot deadlines) but still count against — and are
        shed by — the in-flight bound.
    """

    def __init__(
        self,
        model: PPMModel | None = None,
        *,
        bootstrap_sessions: "Iterable[Session] | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: float = params.SESSION_IDLE_TIMEOUT_S,
        max_context_length: int = params.DEFAULT_MAX_CONTEXT_LENGTH,
        model_factory: Callable[[PopularityTable], PPMModel] | None = None,
        window_days: int = 7,
        fold_interval_s: float = params.SERVE_FOLD_INTERVAL_S,
        refresh_interval_s: float | None = None,
        snapshot_path: str | None = None,
        snapshot_interval_s: float | None = None,
        housekeeping_interval_s: float = params.SERVE_HOUSEKEEPING_INTERVAL_S,
        default_threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        request_timeout_s: float = params.SERVE_REQUEST_TIMEOUT_S,
        max_inflight: int = params.SERVE_MAX_INFLIGHT,
        retry_after_s: float = params.SERVE_RETRY_AFTER_S,
        wal_dir: str | None = None,
        wal_fsync: str = params.SERVE_WAL_FSYNC,
        wal_fsync_interval_s: float = params.SERVE_WAL_FSYNC_INTERVAL_S,
        wal_segment_max_bytes: int = params.SERVE_WAL_SEGMENT_MAX_BYTES,
        wal_segment_max_age_s: float = params.SERVE_WAL_SEGMENT_MAX_AGE_S,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        manager = None
        if model is None:
            from repro.core.online import RollingModelManager, session_day
            from repro.serve.updater import default_model_factory

            day = (
                session_day(bootstrap_sessions)
                if bootstrap_sessions is not None
                else ()
            )
            if not day:
                raise ServeError(
                    "PrefetchServer needs a fitted model or bootstrap_sessions"
                )
            manager = RollingModelManager(
                model_factory or default_model_factory,
                window_days=window_days,
                refit_every=1,
            )
            model = manager.advance_day(day)
        self.ref = ModelRef(model)
        self.tracker = ClientSessionTracker(
            self.ref,
            idle_timeout_s=idle_timeout_s,
            max_context_length=max_context_length,
        )
        self.updater = ModelUpdater(
            self.ref,
            model_factory=model_factory,
            window_days=window_days,
            manager=manager,
        )
        self.wal = (
            ReportJournal(
                wal_dir,
                fsync=wal_fsync,
                fsync_interval_s=wal_fsync_interval_s,
                segment_max_bytes=wal_segment_max_bytes,
                segment_max_age_s=wal_segment_max_age_s,
            )
            if wal_dir
            else None
        )
        self.snapshots = (
            SnapshotManager(
                self.ref,
                snapshot_path,
                wal=self.wal,
                tracker=self.tracker,
                updater=self.updater,
            )
            if snapshot_path
            else None
        )
        self.last_recovery: dict | None = None
        self.wal_rejected_reports_total = 0
        self.fold_interval_s = fold_interval_s
        self.refresh_interval_s = refresh_interval_s
        self.snapshot_interval_s = snapshot_interval_s
        self.housekeeping_interval_s = housekeeping_interval_s
        self.default_threshold = default_threshold
        if max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {max_inflight}")
        self.request_timeout_s = request_timeout_s
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None
        self._housekeeping: asyncio.Task | None = None
        self._connections: set[_HttpConnection] = set()
        self._started_at = 0.0
        self.requests_total: dict[str, int] = {}
        self.errors_total = 0
        self.predictions_total = 0
        self.shed_total = 0
        self.request_timeouts_total = 0

    # -- lifecycle -----------------------------------------------------------

    def recover_journal(self, boundary: int | None = None) -> dict | None:
        """Replay the journal left by a previous process (boot path).

        ``boundary`` is the value :func:`~repro.serve.snapshot.
        restore_snapshot_state` read from the restored snapshot (``None``
        without one).  Records re-observe through the tracker — open
        sessions come back open — and everything completed is folded into
        the model before the first request lands.  Call before
        :meth:`start`; returns the recovery stats dict (also kept on
        :attr:`last_recovery` for ``/metrics``), or ``None`` when the
        server has no journal.
        """
        if self.wal is None:
            return None
        recovery = read_journal(self.wal.directory, boundary=boundary)
        replayed = replay_into_tracker(recovery, self.tracker, self.updater)
        self.last_recovery = {**recovery.stats(), **replayed}
        if recovery.records or recovery.truncated_tails:
            logger.info(
                "journal recovery: %d records replayed (%d reports, %d "
                "session batches) across %d segments; %d torn tails "
                "truncated, %d corrupt frames; %d sessions folded, %d "
                "clients restored open",
                recovery.records_replayed,
                replayed["reports"],
                replayed["session_batches"],
                recovery.segments_scanned,
                recovery.truncated_tails,
                recovery.corrupt_frames,
                replayed["sessions_folded"],
                replayed["open_clients"],
            )
        return self.last_recovery

    async def start(self) -> None:
        """Bind, start accepting, and launch the housekeeping task."""
        if self._server is not None:
            raise ServeError("server already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpConnection(self), self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self._housekeeping = asyncio.create_task(self._housekeeping_loop())

    async def stop(self) -> None:
        """Stop accepting, complete open sessions, final fold + snapshot."""
        if self._housekeeping is not None:
            self._housekeeping.cancel()
            try:
                await self._housekeeping
            except asyncio.CancelledError:
                pass
            self._housekeeping = None
        if self._server is not None:
            self._server.close()
            # Closed before the wait: from Python 3.12.1 wait_closed()
            # also waits for every open connection to close.
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None
        expired = self.tracker.expire_all()
        self.updater.add_sessions(self.tracker.drain_completed())
        folded = self.updater.fold_pending()
        snapshot_version = None
        if self.snapshots is not None:
            snapshot_version = await self.snapshots.snapshot_once()
        if self.wal is not None:
            # Everything journalled is now either folded into the model
            # (and, when a snapshot path is configured, covered by the
            # final snapshot) or sealed in segments recovery will replay;
            # sync so even a power cut right after exit loses nothing.
            try:
                self.wal.sync()
            except WalError as exc:  # pragma: no cover - dying disk
                logger.warning("final journal sync failed: %s", exc)
            self.wal.close()
        logger.info(
            "shutdown flush: %d open sessions completed, %d sessions "
            "folded, snapshot %s, journal %s",
            expired,
            folded,
            f"v{snapshot_version}" if snapshot_version is not None
            else "skipped" if self.snapshots is None else "failed",
            f"synced ({self.wal.appended_records_total} records)"
            if self.wal is not None
            else "disabled",
        )

    async def _housekeeping_loop(self) -> None:
        last_fold = last_refresh = last_snapshot = time.monotonic()
        while True:
            await asyncio.sleep(self.housekeeping_interval_s)
            now = time.monotonic()
            # Idle expiry runs in observed (trace) time so replays expire
            # correctly; a live deployment's report timestamps are wall
            # time, making the two clocks coincide.
            self.tracker.expire_idle()
            self.updater.add_sessions(self.tracker.drain_completed())
            if self.wal is not None:
                self.wal.tick()
            if now - last_fold >= self.fold_interval_s:
                self.updater.fold_pending()
                last_fold = now
            if (
                self.refresh_interval_s is not None
                and now - last_refresh >= self.refresh_interval_s
            ):
                await self.updater.refresh()
                last_refresh = now
            if (
                self.snapshots is not None
                and self.snapshot_interval_s is not None
                and now - last_snapshot >= self.snapshot_interval_s
            ):
                await self.snapshots.snapshot_once()
                last_snapshot = now

    def run(self) -> None:  # pragma: no cover - interactive entry point
        """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

        Both signals shut down gracefully: stop accepting, complete open
        sessions, fold, final snapshot, sync and close the journal; the
        log line from :meth:`stop` records what was flushed.
        """

        async def _main() -> None:
            await self.start()
            print(f"repro serve: listening on http://{self.host}:{self.port}")
            stopping = asyncio.Event()
            loop = asyncio.get_running_loop()
            installed: list[signal.Signals] = []
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stopping.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread / platforms without support
            try:
                await stopping.wait()
                print("repro serve: signal received, shutting down cleanly")
            finally:
                for sig in installed:
                    loop.remove_signal_handler(sig)
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """The awaitable lane: admin routes, and every fault-armed request.

        Everything but ``/admin/*`` goes on to :meth:`_dispatch_fast`, so
        a fault-armed request is routed by the production route table.
        """
        spec = fire("serve.slow_request")
        if spec is not None:
            # Injected handler stall: holds an in-flight slot (driving the
            # shed path) and overruns the request deadline.
            await asyncio.sleep(spec.delay_s)
        path, _ = _split_target(target)
        if not path.startswith("/admin/"):
            return self._dispatch_fast(method, target, body)
        self.requests_total[path] = self.requests_total.get(path, 0) + 1
        if method != "POST":
            return _error_body(405, "admin endpoints use POST")
        return await self._handle_admin(path)

    def _dispatch_fast(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """The data-plane route table: every path but ``/admin/*``.

        Synchronous, so a connection calls it inline from
        ``data_received`` with no per-request task or timer;
        :meth:`_dispatch` hands it every non-admin target it receives.
        """
        path, query = _split_target(target)
        self.requests_total[path] = self.requests_total.get(path, 0) + 1
        if path == "/report":
            if method != "POST":
                return _error_body(405, "use POST /report")
            return self._handle_report(query, body)
        if path == "/predict":
            if method != "GET":
                return _error_body(405, "use GET /predict")
            return self._handle_predict(query)
        if path == "/healthz":
            return self._handle_healthz()
        if path == "/metrics":
            return self._handle_metrics()
        return _error_body(404, f"unknown path {path!r}")

    # -- handlers --------------------------------------------------------------

    def _handle_report(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, str, bytes]:
        if not query and body:
            try:
                query = json.loads(body)
            except ValueError:
                return _error_body(400, "body is not valid JSON")
        client = query.get("client")
        url = query.get("url")
        if not client or not url:
            return _error_body(400, "report needs client= and url=")
        ts = query.get("ts")
        try:
            timestamp = float(ts) if ts is not None else time.time()
        except ValueError:
            return _error_body(400, f"bad ts: {ts!r}")
        if self.wal is not None:
            # Write-ahead: the report reaches the journal before the
            # tracker, so an acked report is durable by the time the 200
            # leaves.  A failed append refuses the report (503, the
            # client retries) against a journal that is still intact —
            # the tracker never saw the click, so no state diverges.
            try:
                self.wal.append_report(client, url, timestamp)
            except WalError as exc:
                self.wal_rejected_reports_total += 1
                return _error_body(503, f"report not journalled: {exc}")
        clicks = self.tracker.observe(client, url, timestamp)
        if query.get("predict"):
            return self._predict_payload(client, query)
        return _json_body(200, {"ok": True, "session_clicks": clicks})

    def _handle_predict(self, query: dict[str, str]) -> tuple[int, str, bytes]:
        client = query.get("client")
        if not client:
            return _error_body(400, "predict needs client=")
        return self._predict_payload(client, query)

    def _predict_payload(
        self, client: str, query: dict[str, str]
    ) -> tuple[int, str, bytes]:
        try:
            threshold = float(query.get("threshold") or self.default_threshold)
            limit = int(query["limit"]) if "limit" in query else None
            check_predict_args(threshold, limit)
        except (TypeError, ValueError):
            return _error_body(400, "bad threshold= or limit=")
        predictions, version = self.tracker.predict(
            client, threshold=threshold, limit=limit
        )
        self.predictions_total += len(predictions)
        # The client id and every prediction are memoised JSON, so the
        # body is a join of cached strings, not a json.dumps per call.
        body = (
            '{"client":%s,"model_version":%d,"predictions":[%s]}'
            % (
                _memo(_json_strings, client, json.dumps),
                version,
                ",".join(
                    [
                        _memo(_prediction_fragments, p, _prediction_json)
                        for p in predictions
                    ]
                ),
            )
        ).encode()
        return 200, _JSON, body

    def _degraded_reasons(self) -> list[str]:
        """Why the server is in a degraded (but live) state, if at all."""
        reasons = []
        breaker = self.updater.breaker
        if breaker.state != "closed":
            reasons.append(f"rebuild-breaker-{breaker.state}")
        if self.snapshots is not None and self.snapshots.consecutive_failures:
            reasons.append("snapshot-writes-failing")
        if self.wal is not None and (
            self.wal.closed or self.wal.consecutive_write_errors
        ):
            reasons.append("wal-appends-failing")
        if self._inflight >= self.max_inflight:
            reasons.append("shedding-load")
        return reasons

    def _handle_healthz(self) -> tuple[int, str, bytes]:
        model, version = self.ref.get()
        degraded = self._degraded_reasons()
        return _json_body(
            200,
            {
                # Degraded is still alive: the last-good model keeps
                # serving, so orchestrators must not kill the process —
                # they should alert instead.
                "status": "degraded" if degraded else "ok",
                "degraded_reasons": degraded,
                "model": type(model).__name__,
                "model_version": version,
                "model_nodes": model.node_count,
                "active_clients": self.tracker.active_clients,
                "uptime_s": round(time.time() - self._started_at, 3),
            },
        )

    def _handle_metrics(self) -> tuple[int, str, bytes]:
        model, version = self.ref.get()
        lines = [
            "# HELP repro_serve_requests_total Requests handled, by path.",
            "# TYPE repro_serve_requests_total counter",
        ]
        for path in sorted(self.requests_total):
            lines.append(
                f'repro_serve_requests_total{{path="{path}"}} '
                f"{self.requests_total[path]}"
            )
        tracker = self.tracker
        updater = self.updater
        gauges: list[tuple[str, str, float]] = [
            ("repro_serve_model_version", "Published model version.", version),
            ("repro_serve_model_nodes", "Node count of the live model.",
             model.node_count),
            ("repro_serve_active_clients", "Clients with an open session.",
             tracker.active_clients),
            ("repro_serve_observed_clicks_total", "Clicks reported.",
             tracker.observed_clicks),
            ("repro_serve_sessions_completed_total",
             "Sessions closed by idle expiry or click cap.",
             tracker.completed_sessions),
            ("repro_serve_cursor_resyncs_total",
             "Client cursors rebuilt after a model swap.", tracker.resyncs),
            ("repro_predict_cache_hits_total",
             "Predictions answered from the per-client memo (same cursor "
             "position, same model generation).",
             tracker.predict_cache_hits),
            ("repro_predict_cache_misses_total",
             "Predictions recomputed because the cursor moved, the model "
             "flipped, or the ask changed.",
             tracker.predict_cache_misses),
            ("repro_serve_predictions_total", "Prediction URLs returned.",
             self.predictions_total),
            ("repro_serve_errors_total", "Responses with status >= 400.",
             self.errors_total),
            ("repro_serve_folded_sessions_total",
             "Sessions folded into the live model.",
             updater.folded_sessions_total),
            ("repro_serve_refresh_total", "Read-copy-update rebuilds published.",
             updater.refresh_total),
            ("repro_serve_pending_sessions", "Sessions awaiting the next fold.",
             updater.pending_sessions),
            ("repro_serve_uptime_seconds", "Seconds since start().",
             round(time.time() - self._started_at, 3)),
            ("repro_serve_shed_total",
             "Requests shed with 503 (in-flight bound hit).",
             self.shed_total),
            ("repro_serve_request_timeouts_total",
             "Requests abandoned at the dispatch deadline.",
             self.request_timeouts_total),
            ("repro_serve_inflight_requests", "Requests being handled now.",
             self._inflight),
            ("repro_serve_refresh_failures_total",
             "Model rebuilds that raised or stalled (last-good retained).",
             updater.refresh_failures_total),
            ("repro_serve_refresh_timeouts_total",
             "Model rebuilds abandoned at the rebuild deadline.",
             updater.refresh_timeouts_total),
            ("repro_serve_refresh_skipped_total",
             "Rebuild attempts skipped while the breaker was open.",
             updater.refresh_skipped_total),
            ("repro_serve_breaker_opened_total",
             "Times the rebuild circuit breaker opened.",
             updater.breaker.opened_total),
            ("repro_serve_breaker_open",
             "1 while the rebuild breaker is open or half-open.",
             0 if updater.breaker.state == "closed" else 1),
        ]
        plan = params.FAULT_PLAN
        if plan is not None:
            gauges.append(
                ("repro_serve_faults_injected_total",
                 "Faults fired by the installed fault plan (all sites).",
                 sum(plan.fires.values()))
            )
        if self.snapshots is not None:
            gauges.extend(
                [
                    ("repro_serve_snapshot_total", "Snapshots written.",
                     self.snapshots.snapshot_total),
                    ("repro_serve_snapshot_retries_total",
                     "Snapshot write attempts that were retried.",
                     self.snapshots.snapshot_retries_total),
                    ("repro_serve_snapshot_failures_total",
                     "Snapshot cadence ticks that exhausted every retry.",
                     self.snapshots.snapshot_failures_total),
                ]
            )
        if self.wal is not None:
            wal = self.wal
            gauges.extend(
                [
                    ("repro_wal_appended_records_total",
                     "Records appended to the report journal.",
                     wal.appended_records_total),
                    ("repro_wal_appended_bytes_total",
                     "Frame bytes appended to the report journal.",
                     wal.appended_bytes_total),
                    ("repro_wal_fsync_total", "Journal fsync calls.",
                     wal.fsync_total),
                    ("repro_wal_rotations_total",
                     "Journal segments sealed (size, age or snapshot "
                     "boundary).",
                     wal.rotations_total),
                    ("repro_wal_write_errors_total",
                     "Journal appends or fsyncs that failed.",
                     wal.write_errors_total),
                    ("repro_wal_rejected_reports_total",
                     "Reports refused with 503 because the journal "
                     "append failed.",
                     self.wal_rejected_reports_total),
                    ("repro_wal_compacted_segments_total",
                     "Sealed segments deleted after a covering snapshot.",
                     wal.compacted_segments_total),
                    ("repro_wal_active_segment",
                     "Sequence number of the segment being appended to.",
                     wal.active_seq),
                ]
            )
            if self.last_recovery is not None:
                recovery = self.last_recovery
                gauges.extend(
                    [
                        ("repro_wal_recovery_records_replayed",
                         "Journal records replayed at the last boot.",
                         recovery["records_replayed"]),
                        ("repro_wal_recovery_segments_scanned",
                         "Journal segments scanned at the last boot.",
                         recovery["segments_scanned"]),
                        ("repro_wal_recovery_truncated_tails",
                         "Torn segment tails truncated at the last boot.",
                         recovery["truncated_tails"]),
                        ("repro_wal_recovery_corrupt_frames",
                         "Corrupt (bit-flipped) frames that stopped a "
                         "segment scan at the last boot.",
                         recovery["corrupt_frames"]),
                        ("repro_wal_recovery_carry_applied",
                         "Snapshot-boundary carry records applied at the "
                         "last boot.",
                         recovery["carry_applied"]),
                    ]
                )
        for name, help_text, value in gauges:
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value}")
        return 200, _PROMETHEUS, ("\n".join(lines) + "\n").encode()

    async def _handle_admin(self, path: str) -> tuple[int, str, bytes]:
        if path == "/admin/refresh":
            # Pick up everything completed so far, so the rebuild reflects
            # the state at the moment of the request rather than whenever
            # housekeeping last drained.
            self.tracker.expire_idle()
            self.updater.add_sessions(self.tracker.drain_completed())
            version = await self.updater.refresh()
            if version is None:
                return _error_body(400, "no sessions retained; nothing to rebuild")
            return _json_body(200, {"ok": True, "model_version": version})
        if path == "/admin/snapshot":
            if self.snapshots is None:
                return _error_body(400, "server started without a snapshot path")
            version = await self.snapshots.snapshot_once()
            if version is None:
                return _error_body(
                    500,
                    "snapshot write failed after retries; last-good "
                    "snapshot retained",
                )
            return _json_body(
                200,
                {"ok": True, "path": self.snapshots.path, "model_version": version},
            )
        if path == "/admin/reload":
            if self.snapshots is None:
                return _error_body(400, "server started without a snapshot path")
            version = self.snapshots.reload()
            return _json_body(200, {"ok": True, "model_version": version})
        return _error_body(404, f"unknown admin endpoint {path!r}")


class _HttpConnection(asyncio.Protocol):
    """One client connection, framed and answered inside ``data_received``.

    Every complete request head and body in the buffer is framed in
    arrival order.  A data-plane request is answered inline through
    :meth:`PrefetchServer._dispatch_fast`; each response is one
    ``transport.write``.  An ``/admin/*`` or fault-armed request runs as
    one task through :meth:`PrefetchServer._dispatch` (under the
    ``wait_for`` deadline when it is not admin) and holds the connection:
    no further request is framed until it has been answered.  Reading
    pauses while the transport is above its write high-water mark, and
    while a task holds the connection with more than
    :data:`_MAX_HEAD_BYTES` buffered.
    """

    def __init__(self, server: PrefetchServer) -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: Leading buffer bytes already searched for a head terminator.
        self.scanned = 0
        #: ``(method, target, close, length)`` of a head whose body is
        #: still arriving, and the timer that answers it 408.
        self.head: tuple[str, str, bool, int] | None = None
        self.body_deadline: asyncio.TimerHandle | None = None
        #: The admin or fault-armed request holding the connection.
        self.task: asyncio.Task | None = None
        self.eof = False
        self.write_paused = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        # A running task finishes on its own; its answer is dropped.
        self.server._connections.discard(self)
        if self.body_deadline is not None:
            self.body_deadline.cancel()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.task is None:
            self._frame()
        else:
            self._flow()

    def eof_received(self) -> bool:
        # Half-closed: every request already sent is still answered, and
        # the connection closes after the last answer (_frame).
        self.eof = True
        if self.task is None:
            self._frame()
        return True

    def pause_writing(self) -> None:
        self.write_paused = True
        self._flow()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._flow()

    # -- framing ---------------------------------------------------------------

    def _frame(self) -> None:
        """Answer every complete request in the buffer, in order."""
        buffer = self.buffer
        transport = self.transport
        start = 0
        while self.task is None and not transport.is_closing():
            if self.head is None:
                end = buffer.find(b"\r\n\r\n", max(start, self.scanned))
                if end < 0:
                    if len(buffer) - start - 3 > _MAX_HEAD_BYTES:
                        self._refuse(400, "request head too large")
                    else:
                        self.scanned = max(start, len(buffer) - 3)
                    break
                if end - start > _MAX_HEAD_BYTES:
                    self._refuse(400, "request head too large")
                    break
                self.head = self._parse_head(buffer[start:end])
                start = end + 4
                if self.head is None:
                    break
            method, target, close, length = self.head
            if len(buffer) - start < length:
                # A body shorter than its Content-Length would otherwise
                # hold the connection forever.
                if self.body_deadline is None:
                    self.body_deadline = asyncio.get_running_loop().call_later(
                        self.server.request_timeout_s, self._body_timeout
                    )
                break
            body = bytes(buffer[start : start + length])
            start += length
            self.head = None
            if self.body_deadline is not None:
                self.body_deadline.cancel()
                self.body_deadline = None
            self._answer(method, target, body, close)
        del buffer[:start]
        self.scanned = max(0, self.scanned - start)
        if self.eof and self.task is None and not transport.is_closing():
            if self.head is None and buffer:
                self._refuse(400, "malformed request line")
            else:
                transport.close()
        self._flow()

    def _parse_head(self, head: bytearray) -> tuple[str, str, bool, int] | None:
        """``(method, target, close, length)`` of one request head, or
        None once a malformed or oversized request has been refused."""
        lines = head.decode("latin-1").split("\r\n")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            method, target, _ = lines[0].split(" ", 2)
        except ValueError:
            self._refuse(400, "malformed request line")
            return None
        length = _content_length(headers)
        if length is None:
            self._refuse(400, "malformed Content-Length")
            return None
        if length > _MAX_BODY_BYTES:
            self._refuse(413, f"request body over {_MAX_BODY_BYTES} bytes")
            return None
        close = headers.get("connection", "").lower() == "close"
        return method.upper(), target, close, length

    def _body_timeout(self) -> None:
        self.body_deadline = None
        self._refuse(
            408,
            "request body not received within "
            f"{self.server.request_timeout_s:.1f}s",
        )

    def _flow(self) -> None:
        """Pause reading while the write buffer is over its high-water
        mark, or while a task holds the connection and more than a head's
        limit is buffered; resume once neither holds.  Both transport
        calls are no-ops when already in effect or once closing."""
        if self.write_paused or (
            self.task is not None and len(self.buffer) > _MAX_HEAD_BYTES
        ):
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    # -- answering -------------------------------------------------------------

    def _answer(self, method: str, target: str, body: bytes, close: bool) -> None:
        server = self.server
        if server._inflight >= server.max_inflight:
            # Bounded-queue load shedding: refuse fast and honestly rather
            # than queueing without limit.
            server.shed_total += 1
            self._respond(
                *_error_body(503, "server overloaded; retry later"),
                close,
                server.retry_after_s,
            )
            return
        server._inflight += 1
        admin = _is_admin(target)
        if params.FAULT_PLAN is None and not admin:
            # Data plane: these handlers are synchronous, so a wait_for
            # deadline could never preempt them — answer inline, with no
            # per-request task or timer.
            try:
                answer = server._dispatch_fast(method, target, body)
            except Exception as exc:
                answer = _failure(exc)
            finally:
                server._inflight -= 1
            self._respond(*answer, close)
        else:
            self.task = asyncio.get_running_loop().create_task(
                self._await_answer(method, target, body, close, admin)
            )

    async def _await_answer(
        self, method: str, target: str, body: bytes, close: bool, admin: bool
    ) -> None:
        """The task lane: admin routes, and every fault-armed request."""
        server = self.server
        retry_after: float | None = None
        try:
            if admin:
                # The ops plane is exempt from the data-plane deadline:
                # cancelling a refresh mid-flight would corrupt its
                # breaker bookkeeping, and rebuild/snapshot stalls already
                # run under their own supervised deadlines.
                answer = await server._dispatch(method, target, body)
            else:
                # An armed fault plan: injected stalls still trip the
                # deadline.
                answer = await asyncio.wait_for(
                    server._dispatch(method, target, body),
                    timeout=server.request_timeout_s,
                )
        except asyncio.TimeoutError:
            server.request_timeouts_total += 1
            retry_after = server.retry_after_s
            answer = _error_body(
                503, f"request exceeded {server.request_timeout_s:.1f}s deadline"
            )
        except Exception as exc:
            answer = _failure(exc)
        finally:
            server._inflight -= 1
        self.task = None
        self._respond(*answer, close, retry_after)
        self._frame()

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request that cannot be framed, and close."""
        self._respond(*_error_body(status, message), True)

    def _respond(
        self,
        status: int,
        content_type: str,
        payload: bytes,
        close: bool,
        retry_after: float | None = None,
    ) -> None:
        if status >= 400:
            self.server.errors_total += 1
        transport = self.transport
        if transport.is_closing():
            return  # the client left, or stop() closed the connection
        transport.write(_response(status, content_type, payload, close, retry_after))
        if close:
            transport.close()


class ServerThread:
    """Run a :class:`PrefetchServer` on a dedicated thread and event loop.

    The embedding for tests, benchmarks and ``repro loadgen --spawn``::

        handle = ServerThread(PrefetchServer(model))
        handle.start()              # returns once the port is bound
        ... requests against handle.url ...
        handle.stop()               # clean shutdown, thread joined

    ``call(coro_factory)`` schedules a coroutine on the server loop and
    waits for its result — how tests drive folds and refreshes
    deterministically.
    """

    def __init__(self, server: PrefetchServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
            self._started.set()
            raise
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ServeError(f"server failed to start: {self._startup_error}")
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def call(self, factory: Callable[[], Awaitable]):
        """Run ``factory()`` on the server loop; return its result."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(factory(), self._loop)
        return future.result(timeout=60)

    def stop(self) -> None:
        if self._loop is None or self._stop_event is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60)
