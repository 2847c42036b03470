"""Trace-driven load generator for the prediction server.

Replays a synthetic trace (:mod:`repro.synth`) against a running server
over persistent keep-alive connections and reports throughput and latency
percentiles — the serving twin of the offline replay benchmarks.

Each page view of the trace becomes one client interaction.  Two modes:

* ``combined`` (default) — one ``POST /report?...&predict=1`` per click:
  the response already carries the predictions for the updated context,
  so every request is a prediction request (the low-latency deployment
  pattern, and what ``BENCH_serve.json``'s predictions/sec measures).
* ``paired`` — ``POST /report`` followed by ``GET /predict``, exercising
  the two-endpoint surface.

Clients are partitioned across connections, so each client's clicks
arrive in order (the tracker's sessions are real access sessions) while
connections drive the server concurrently.  ``--refresh-mid-run`` fires
one ``POST /admin/refresh`` halfway through — with the zero-failure
assertion this demonstrates the read-copy-update hot swap under load.

Fault tolerance: the replay loop is written for an unreliable server.  A
connection reset, short read, garbage response or per-request timeout
counts **one** failed request, the worker reconnects and keeps replaying
— the report always gets written.  A ``503`` (the server shedding load or
timing a request out) is not a failure: the worker honours ``Retry-After``
and resends the same frame, counting a ``retried_503``; only a frame that
stays 503 through the whole retry budget is recorded as failed.  The
``client.slow_report`` and ``client.corrupt_report`` injection points
(:mod:`repro.resilience`) let a chaos run delay a client mid-session or
send a malformed frame the server must answer with 400.

``--spawn`` boots an in-process :class:`~repro.serve.server.ServerThread`
trained on the head of the generated trace and replays the tail against
it: the self-contained mode the CI smoke job and the committed
``benchmarks/results/BENCH_serve.json`` use.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Sequence
from urllib.parse import quote

from repro import params
from repro.errors import ServeError
from repro.resilience.faults import fire
from repro.synth.generator import generate_trace
from repro.trace.columnar import SessionView
from repro.trace.dataset import Trace

#: (client, prebuilt request frames) — one frame list per page view.
_Event = tuple[str, list[bytes]]

#: Everything a flaky transport can throw at one request/response
#: exchange: resets and refused reconnects (OSError covers
#: ConnectionError), short reads, per-request timeouts (asyncio's own on
#: 3.10, the builtin on 3.11+), and garbage where a status line should be.
_TRANSPORT_ERRORS = (
    OSError,
    EOFError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    TimeoutError,
    ValueError,
)

#: What ``client.corrupt_report`` puts on the wire: a request line the
#: server cannot parse (no method/target/version split), answered with
#: 400 and a connection close.
_CORRUPT_FRAME = b"report-click-without-a-protocol\r\n\r\n"

_VERSION_MARKER = b'"model_version":'


def _model_version(body: bytes) -> int | None:
    """The ``model_version`` field of a response body, parsed cheaply."""
    marker = body.find(_VERSION_MARKER)
    if marker < 0:
        return None
    start = marker + len(_VERSION_MARKER)
    end = start
    while end < len(body) and body[end : end + 1].isdigit():
        end += 1
    return int(body[start:end]) if end > start else None


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, round(quantile * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def _frames_for(
    client: str, url: str, timestamp: float, *, mode: str, threshold_arg: str
) -> list[bytes]:
    """The request frames one page view becomes, for either mode."""
    quoted_client = quote(client, safe="")
    quoted_url = quote(url, safe="")
    report = (
        f"POST /report?client={quoted_client}&url={quoted_url}&ts={timestamp:.3f}"
    )
    if mode == "combined":
        return [
            (
                f"{report}&predict=1{threshold_arg} HTTP/1.1\r\n"
                f"Host: loadgen\r\nContent-Length: 0\r\n\r\n"
            ).encode()
        ]
    return [
        (
            f"{report} HTTP/1.1\r\nHost: loadgen\r\n"
            f"Content-Length: 0\r\n\r\n"
        ).encode(),
        (
            f"GET /predict?client={quoted_client}{threshold_arg} HTTP/1.1\r\n"
            f"Host: loadgen\r\n\r\n"
        ).encode(),
    ]


def _build_events(
    trace: Trace,
    *,
    mode: str,
    threshold: float,
    max_events: int | None,
) -> list[_Event]:
    """Pre-encode every request frame so the replay loop only does I/O."""
    events: list[_Event] = []
    threshold_arg = f"&threshold={threshold}"
    for request in trace.requests:
        events.append(
            (
                request.client,
                _frames_for(
                    request.client,
                    request.url,
                    request.timestamp,
                    mode=mode,
                    threshold_arg=threshold_arg,
                ),
            )
        )
        if max_events is not None and len(events) >= max_events:
            break
    return events


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes, float | None]:
    # One readuntil for the whole head (the server always speaks CRLF)
    # instead of a readline per header line: the client loop shares one
    # CPU with the server under test, so harness overhead directly caps
    # the measured throughput.
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionError("server closed the connection") from None
        raise
    lines = head[:-4].split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    retry_after: float | None = None
    for line in lines[1:]:
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
        elif line.lower().startswith(b"retry-after:"):
            retry_after = float(line.split(b":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return status, body, retry_after


class _WorkerStats:
    __slots__ = (
        "latencies",
        "failed",
        "predictions",
        "non_empty",
        "predict_requests",
        "retried_503",
        "reconnects",
        "injected_faults",
        "stale",
    )

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.predictions = 0
        self.non_empty = 0
        self.predict_requests = 0
        self.retried_503 = 0
        self.reconnects = 0
        self.injected_faults = 0
        self.stale = 0


async def _iter_events(events: "list[_Event] | asyncio.Queue"):
    """Async view over a worker's event source: a list or a live queue.

    The queue form is how streaming replays feed workers — a producer
    routes events in as they are generated and closes each queue with a
    ``None`` sentinel, so a worker never knows (or buffers) the whole
    stream.
    """
    if isinstance(events, list):
        for event in events:
            yield event
        return
    while True:
        event = await events.get()
        if event is None:
            return
        yield event


async def _worker(
    host: str,
    port: int,
    events: "list[_Event] | asyncio.Queue",
    stats: _WorkerStats,
    shared: dict,
    *,
    request_timeout_s: float = 30.0,
    retry_503: int = 8,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)

    async def reconnect() -> None:
        # Returns with a fresh connection or raises OSError (server gone).
        nonlocal reader, writer
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
        reader, writer = await asyncio.open_connection(host, port)
        stats.reconnects += 1

    async def exchange(frame: bytes) -> tuple[int, bytes, float | None]:
        writer.write(frame)
        await writer.drain()
        # asyncio.timeout arms one timer handle; wait_for would wrap the
        # read in a fresh Task per request (3.11), which at this request
        # rate is measurable harness overhead.
        async with asyncio.timeout(request_timeout_s):
            return await _read_response(reader)

    async def deliver(frame: bytes) -> bool:
        """One frame, retried through 503 backoffs; False = transport died.

        Counts its own failures (non-200, or 503s through the whole
        budget); the caller only handles the broken-transport case.
        """
        for _ in range(retry_503 + 1):
            # Snapshot the published floor *before* the send: any
            # prediction answered after this instant must come from a
            # model at least this new, or a hot swap leaked a stale
            # generation (the single replay loop makes the ordering
            # sound).
            floor = shared.get("refresh_version", 0)
            start = time.perf_counter()
            status, body, retry_after = await exchange(frame)
            stats.latencies.append(time.perf_counter() - start)
            if status == 503:
                stats.retried_503 += 1
                await asyncio.sleep(min(retry_after or 0.05, 1.0))
                continue
            if status != 200:
                stats.failed += 1
            elif body.startswith(b'{"client"'):
                stats.predict_requests += 1
                count = body.count(b'"url"')
                stats.predictions += count
                if count:
                    stats.non_empty += 1
                version = _model_version(body)
                if version is not None and version < floor:
                    stats.stale += 1
            return True
        stats.failed += 1  # 503 through the whole retry budget
        return True

    try:
        async for _client, frames in _iter_events(events):
            spec = fire("client.slow_report")
            if spec is not None:
                await asyncio.sleep(spec.delay_s)
            if fire("client.corrupt_report"):
                stats.injected_faults += 1
                try:
                    status, _body, _retry = await exchange(_CORRUPT_FRAME)
                    if status != 400:
                        stats.failed += 1
                except _TRANSPORT_ERRORS:
                    stats.failed += 1
                # The server closes the connection after a malformed
                # request line, so a reconnect is always due here.
                try:
                    await reconnect()
                except OSError:
                    stats.failed += len(frames)
                    return
            for frame in frames:
                try:
                    await deliver(frame)
                except _TRANSPORT_ERRORS:
                    stats.failed += 1
                    try:
                        await reconnect()
                    except OSError:
                        return  # server gone; the report still writes
            shared["processed"] += 1
            if (
                shared["refresh_at"] is not None
                and not shared["refresh_done"]
                and shared["processed"] >= shared["refresh_at"]
            ):
                shared["refresh_done"] = True
                try:
                    status, body, _retry = await exchange(
                        b"POST /admin/refresh HTTP/1.1\r\nHost: loadgen\r\n"
                        b"Content-Length: 0\r\n\r\n"
                    )
                    if status != 200:
                        stats.failed += 1
                    else:
                        version = _model_version(body)
                        if version is not None:
                            shared["refresh_version"] = max(
                                shared.get("refresh_version", 0), version
                            )
                except _TRANSPORT_ERRORS:
                    stats.failed += 1
                    try:
                        await reconnect()
                    except OSError:
                        return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _replay(
    host: str,
    port: int,
    events: list[_Event],
    *,
    connections: int,
    refresh_mid_run: bool,
    request_timeout_s: float = 30.0,
    retry_503: int = 8,
) -> tuple[list[_WorkerStats], float, dict]:
    # Partition whole clients across connections so each client's click
    # order survives; round-robin by first appearance balances load.
    assignment: dict[str, int] = {}
    buckets: list[list[_Event]] = [[] for _ in range(connections)]
    for event in events:
        client = event[0]
        worker = assignment.setdefault(client, len(assignment) % connections)
        buckets[worker].append(event)
    shared = {
        "processed": 0,
        "refresh_at": len(events) // 2 if refresh_mid_run else None,
        "refresh_done": False,
        "refresh_version": 0,
    }
    stats = [_WorkerStats() for _ in range(connections)]
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _worker(
                host,
                port,
                bucket,
                stat,
                shared,
                request_timeout_s=request_timeout_s,
                retry_503=retry_503,
            )
            for bucket, stat in zip(buckets, stats)
            if bucket
        )
    )
    elapsed = time.perf_counter() - started
    return stats, elapsed, shared


async def _replay_stream(
    host: str,
    port: int,
    records,
    *,
    connections: int,
    mode: str,
    threshold: float,
    refresh_at: int | None,
    request_timeout_s: float = 30.0,
    retry_503: int = 8,
    queue_depth: int = 256,
) -> tuple[list[_WorkerStats], float, dict]:
    """Drive workers from a live record iterator instead of a list.

    A producer task walks the (synchronous, lazily generated) record
    stream, encodes each page view and routes it to a per-connection
    queue using the same partition policy as :func:`_replay` — whole
    clients stick to one connection, assigned round-robin by first
    appearance — so per-client click order is preserved and peak memory
    is bounded by ``connections * queue_depth`` events, never by the
    stream length.
    """
    threshold_arg = f"&threshold={threshold}"
    queues: list[asyncio.Queue] = [
        asyncio.Queue(maxsize=queue_depth) for _ in range(connections)
    ]
    assignment: dict[str, int] = {}

    async def produce() -> None:
        for index, record in enumerate(records):
            worker = assignment.setdefault(
                record.client, len(assignment) % connections
            )
            frames = _frames_for(
                record.client,
                record.url,
                record.timestamp,
                mode=mode,
                threshold_arg=threshold_arg,
            )
            await queues[worker].put((record.client, frames))
            if index % 64 == 0:
                # Generation outruns serving; yield even while the
                # queues still have room so workers are never starved
                # behind a tight producer loop.
                await asyncio.sleep(0)
        for queue in queues:
            await queue.put(None)

    shared = {
        "processed": 0,
        "refresh_at": refresh_at,
        "refresh_done": False,
        "refresh_version": 0,
    }
    stats = [_WorkerStats() for _ in range(connections)]
    started = time.perf_counter()
    await asyncio.gather(
        produce(),
        *(
            _worker(
                host,
                port,
                queue,
                stat,
                shared,
                request_timeout_s=request_timeout_s,
                retry_503=retry_503,
            )
            for queue, stat in zip(queues, stats)
        ),
    )
    elapsed = time.perf_counter() - started
    return stats, elapsed, shared


def run_loadgen(
    url: str | None = None,
    *,
    profile: str = "nasa-like",
    workload: str | None = None,
    workload_params: dict | None = None,
    events: int | None = None,
    train_events: int = 2_000,
    days: int = 1,
    train_days: int = 2,
    seed: int = 7,
    scale: float = 1.0,
    connections: int = 8,
    mode: str = "combined",
    max_events: int | None = None,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    refresh_mid_run: bool = False,
    spawn: bool = False,
    request_timeout_s: float = 30.0,
    wal_dir: str | None = None,
    wal_fsync: str = params.SERVE_WAL_FSYNC,
    out: str | None = None,
) -> dict:
    """Generate traffic, replay it, and return the benchmark report dict.

    Exactly one of ``url`` (an already-running server, e.g.
    ``http://127.0.0.1:8080``) or ``spawn=True`` (boot an in-process
    server) must be given.  With ``out``, the report is also written as
    JSON (the ``BENCH_serve.json`` artifact).

    Two traffic sources:

    * default — a :mod:`repro.synth` ``profile`` trace, fully
      materialised and pre-encoded (``days``/``train_days`` select the
      replay and bootstrap windows);
    * ``workload`` — a registered streaming workload
      (:mod:`repro.workloads`) driven **live**: ``events`` page views
      are generated, encoded and served on the fly through bounded
      queues, so arbitrarily long non-stationary runs never hold the
      stream in memory.  With ``spawn=True`` the first ``train_events``
      records of the same stream bootstrap the server before the replay
      begins.
    """
    if mode not in ("combined", "paired"):
        raise ServeError(f"unknown loadgen mode {mode!r}")
    if connections < 1:
        raise ServeError(f"connections must be >= 1, got {connections}")
    if (url is None) == (not spawn):
        raise ServeError("pass a server url or spawn=True (exactly one)")
    if workload is None:
        if events is not None:
            raise ServeError("events=N only applies to workload replays")
    else:
        if events is None or events < 1:
            raise ServeError(
                "a workload replay needs events=N (how many page views "
                "to generate and serve)"
            )
        if spawn and train_events < 1:
            raise ServeError(
                f"train_events must be >= 1, got {train_events}"
            )

    handle = None
    record_source = None
    event_list: list[_Event] | None = None
    bootstrap_sessions: SessionView | None = None

    if workload is not None:
        import itertools

        from repro.workloads import create_workload

        stream = create_workload(
            workload, seed=seed, scale=scale, **(workload_params or {})
        )
        if spawn:
            # One stream: its head bootstraps the server, its tail is
            # replayed live — the classic warm-up-then-serve shape.
            source = stream.events(train_events + events)
            head = list(itertools.islice(source, train_events))
            bootstrap_sessions = Trace(
                head, name=stream.name or "workload"
            ).sessions
            record_source = source
        else:
            record_source = stream.events(events)
    elif spawn:
        trace = generate_trace(profile, days=train_days + days, seed=seed, scale=scale)
        split = trace.split(train_days=train_days, test_days=days)
        replay = Trace(
            [r for r in trace.records if trace.day_of(r.timestamp) >= train_days],
            name=trace.name,
        )
        # Bootstrapping through the server seeds the updater's rolling
        # window with the training day, so a mid-run /admin/refresh has a
        # real window to rebuild from.
        bootstrap_sessions = split.train_sessions
    else:
        trace = generate_trace(profile, days=days, seed=seed, scale=scale)
        replay = trace

    if spawn:
        from repro.serve.server import PrefetchServer, ServerThread

        wal_kwargs = (
            {"wal_dir": wal_dir, "wal_fsync": wal_fsync}
            if wal_dir is not None
            else {}
        )
        server = PrefetchServer(
            bootstrap_sessions=bootstrap_sessions, **wal_kwargs
        )
        handle = ServerThread(server).start()
        host, port = handle.host, handle.port
    else:
        stripped = url.removeprefix("http://")
        host, _, port_text = stripped.rstrip("/").partition(":")
        try:
            port = int(port_text)
        except ValueError:
            if handle is not None:
                handle.stop()
            raise ServeError(f"server url needs host:port, got {url!r}") from None

    if record_source is None:
        event_list = _build_events(
            replay, mode=mode, threshold=threshold, max_events=max_events
        )
        if not event_list:
            if handle is not None:
                handle.stop()
            raise ServeError("generated trace produced no replay events")

    try:
        if record_source is not None:
            stats, elapsed, shared = asyncio.run(
                _replay_stream(
                    host,
                    port,
                    record_source,
                    connections=connections,
                    mode=mode,
                    threshold=threshold,
                    refresh_at=events // 2 if refresh_mid_run else None,
                    request_timeout_s=request_timeout_s,
                )
            )
        else:
            stats, elapsed, shared = asyncio.run(
                _replay(
                    host,
                    port,
                    event_list,
                    connections=connections,
                    refresh_mid_run=refresh_mid_run,
                    request_timeout_s=request_timeout_s,
                )
            )
    finally:
        if handle is not None:
            handle.stop()

    latencies = sorted(lat for stat in stats for lat in stat.latencies)
    predict_requests = sum(stat.predict_requests for stat in stats)
    report = {
        "config": {
            "profile": None if workload else profile,
            "workload": workload,
            "workload_params": workload_params or {},
            "streamed": workload is not None,
            "days": None if workload else days,
            "train_days": train_days if spawn and workload is None else None,
            "train_events": train_events if spawn and workload else None,
            "seed": seed,
            "scale": scale,
            "connections": connections,
            "mode": mode,
            "threshold": threshold,
            "spawn": spawn,
            "wal": wal_dir is not None,
            "wal_fsync": wal_fsync if wal_dir is not None else None,
            "refresh_mid_run": refresh_mid_run,
            "events": events if workload else len(event_list),
        },
        "requests_total": len(latencies),
        "failed_requests": sum(stat.failed for stat in stats),
        "retried_503": sum(stat.retried_503 for stat in stats),
        "reconnects": sum(stat.reconnects for stat in stats),
        "injected_client_faults": sum(stat.injected_faults for stat in stats),
        "predict_requests": predict_requests,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(len(latencies) / elapsed, 1) if elapsed else 0.0,
        "predictions_per_s": (
            round(predict_requests / elapsed, 1) if elapsed else 0.0
        ),
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p95": round(_percentile(latencies, 0.95) * 1e3, 3),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
            "mean": round(sum(latencies) / len(latencies) * 1e3, 3)
            if latencies
            else 0.0,
            "max": round(latencies[-1] * 1e3, 3) if latencies else 0.0,
        },
        "prediction_urls_returned": sum(stat.predictions for stat in stats),
        "non_empty_prediction_responses": sum(stat.non_empty for stat in stats),
        "refresh_triggered": bool(shared["refresh_done"]),
        "refresh_version": shared["refresh_version"],
        "stale_predictions": sum(stat.stale for stat in stats),
    }
    if out:
        directory = os.path.dirname(os.path.abspath(out))
        os.makedirs(directory, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle_file:
            json.dump(report, handle_file, indent=2, sort_keys=True)
            handle_file.write("\n")
    return report


def format_report(report: dict) -> str:
    """A compact human-readable rendering of a loadgen report."""
    latency = report["latency_ms"]
    lines = [
        f"requests          {report['requests_total']}"
        f"  (failed {report['failed_requests']})",
        f"elapsed           {report['elapsed_s']:.2f}s",
        f"throughput        {report['requests_per_s']:.0f} req/s"
        f"  ({report['predictions_per_s']:.0f} predictions/s)",
        f"latency ms        p50 {latency['p50']:.2f}  p95 {latency['p95']:.2f}"
        f"  p99 {latency['p99']:.2f}  max {latency['max']:.2f}",
        f"prediction urls   {report['prediction_urls_returned']}"
        f"  (non-empty responses {report['non_empty_prediction_responses']})",
    ]
    if report["config"]["refresh_mid_run"]:
        lines.append(
            f"mid-run refresh   {report['refresh_triggered']}"
            f"  (stale predictions {report.get('stale_predictions', 0)})"
        )
    if report.get("retried_503") or report.get("reconnects"):
        lines.append(
            f"resilience        503 retries {report.get('retried_503', 0)}"
            f"  reconnects {report.get('reconnects', 0)}"
            f"  injected faults {report.get('injected_client_faults', 0)}"
        )
    return "\n".join(lines)
