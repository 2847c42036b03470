"""The trace-driven replay engine (paper Sections 2.2, 4 and 5).

Two topologies:

* **client mode** (Section 4): every client owns a cache (browser-sized,
  or proxy-sized when the client's request rate classifies it as a proxy);
  the server predicts from the client's current session context and pushes
  prefetches straight into that client's cache.
* **proxy mode** (Section 5): a set of clients shares one proxy.  Requests
  try the browser cache, then the proxy cache, then the server; the server
  pushes prefetches into the *proxy* cache.  Hits therefore come from three
  sources — browser, proxy-cached and proxy-prefetched documents — exactly
  the accounting of the paper's Figure 5.

Every run maintains *shadow* caches of identical capacity that receive only
demand fills, so the latency-reduction and hit-ratio deltas attribute
exactly what prefetching added on top of plain LRU caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.core.prediction import PredictionCursor
from repro.errors import SimulationError
from repro.sim.replacement import CacheLike, make_cache
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventLog, SimulationEvent
from repro.sim.latency import LatencyModel
from repro.sim.metrics import SimulationResult
from repro.trace.columnar import RequestBatch
from repro.trace.record import Request


def request_sort_key(request: Request) -> tuple[float, str]:
    """The engine's deterministic replay order: (timestamp, client).

    Requests with equal keys keep their input order: the order of a
    stable ``sorted(requests, key=request_sort_key)``, which
    :meth:`~repro.trace.columnar.RequestBatch.from_requests` reproduces.
    """
    return (request.timestamp, request.client)


def replay_rows(
    requests: "Sequence[Request] | RequestBatch",
) -> Iterator[tuple[str, str, float, int]]:
    """Yield ``(client, url, timestamp, total_bytes)`` in replay order.

    The single iteration point of both replay loops.  Every input replays
    off a :class:`RequestBatch`: a batch as it is, and any page views
    through :meth:`RequestBatch.from_requests` (a request view slices its
    columns; objects are sorted by :func:`request_sort_key`).
    """
    if not isinstance(requests, RequestBatch):
        requests = RequestBatch.from_requests(requests)
    return requests.iter_rows()


@dataclass
class _Endpoint:
    """A cache plus bookkeeping of which residents arrived by prefetch."""

    cache: CacheLike
    prefetched: dict[str, int] = field(default_factory=dict)

    def sync_evictions(self, evicted: Sequence[str]) -> None:
        for url in evicted:
            self.prefetched.pop(url, None)

    def demand_fill(self, url: str, size: int) -> None:
        self.sync_evictions(self.cache.store(url, size))
        self.prefetched.pop(url, None)

    def prefetch_fill(self, url: str, size: int) -> bool:
        """Push a prefetched object; returns False when it did not fit."""
        self.sync_evictions(self.cache.store(url, size))
        if url in self.cache:
            self.prefetched[url] = size
            return True
        return False


@dataclass
class _ClientState:
    """Per-client prediction cursor and (client-mode) caches."""

    endpoint: _Endpoint
    shadow: CacheLike
    last_time: float = float("-inf")
    #: The client's session context as incremental suffix-match state;
    #: None when the run has no model.
    cursor: PredictionCursor | None = None


class PrefetchSimulator:
    """Replays test-day requests against a fitted prediction model.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.base.PPMModel`, or ``None`` for a
        caching-only run (useful as an explicit no-prefetch baseline).
    url_sizes:
        Bytes a prefetch of each URL moves, usually
        :meth:`repro.trace.dataset.Trace.url_size_table`.  The server can
        only push documents it knows the size of.
    latency_model:
        The fitted least-squares latency model.
    config:
        Simulation parameters; defaults to the paper's Section-4 values.
    popularity:
        Optional training-day popularity table; when given, prefetch hits
        on popular documents (grade >= 2) are counted for Figure 2.
    event_log:
        Optional :class:`~repro.sim.events.EventLog`; when given, every
        demand request and prefetch push is recorded for inspection.
    """

    def __init__(
        self,
        model: PPMModel | None,
        url_sizes: Mapping[str, int],
        latency_model: LatencyModel,
        config: SimulationConfig | None = None,
        *,
        popularity: PopularityTable | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        if model is not None and not model.is_fitted:
            raise SimulationError("the prediction model must be fitted first")
        self.model = model
        self.url_sizes = url_sizes
        self.latency_model = latency_model
        self.config = config or SimulationConfig()
        self.popularity = popularity
        self.event_log = event_log

    # -- shared helpers ------------------------------------------------------

    def _new_result(self, requests: Sequence[Request]) -> SimulationResult:
        result = SimulationResult(
            model_name=self.model.name if self.model is not None else "none"
        )
        if self.model is not None:
            self.model.reset_usage()
        return result

    def _finish_result(self, result: SimulationResult) -> SimulationResult:
        if self.model is not None:
            result.node_count = self.model.node_count
            result.path_utilization = self.model.path_utilization()
        return result

    def _new_cursor(self) -> PredictionCursor | None:
        if self.model is None:
            return None
        return self.model.prediction_cursor(self.config.max_context_length)

    def _log_event(
        self,
        timestamp: float,
        client: str,
        url: str,
        kind: EventKind,
        detail: float = 0.0,
    ) -> None:
        if self.event_log is not None:
            self.event_log.record(
                SimulationEvent(timestamp, client, url, kind, detail)
            )

    def _update_context(
        self, state: _ClientState, url: str, timestamp: float
    ) -> None:
        cfg = self.config
        cursor = state.cursor
        if cursor is not None:
            if (
                cfg.reset_context_on_session_gap
                and timestamp - state.last_time > cfg.idle_timeout_seconds
            ):
                cursor.reset()
            cursor.advance(url)
        state.last_time = timestamp

    def _account_prefetch_hit(
        self, result: SimulationResult, endpoint: _Endpoint, url: str
    ) -> None:
        size = endpoint.prefetched.pop(url, None)
        if size is None:
            return
        result.prefetch_hits += 1
        result.prefetch_used_bytes += size
        if self.popularity is not None and self.popularity.is_popular(url):
            result.popular_prefetch_hits += 1

    def _next_threshold(self, result: SimulationResult) -> float:
        """The probability threshold of the next prediction.

        The configured one;
        :class:`~repro.sim.adaptive.AdaptivePrefetchSimulator` overrides
        it with its traffic-budget controller.
        """
        return self.config.prediction_threshold

    def _issue_prefetches(
        self,
        result: SimulationResult,
        target: _Endpoint,
        cursor: PredictionCursor | None,
        origin: tuple[float, str] | None = None,
    ) -> None:
        """Predict from the client's ``cursor`` and push what fits into
        ``target``.

        ``origin`` is the ``(timestamp, client)`` of the demand request
        that triggered the predictions, used only for event logging.
        """
        if self.model is None:
            return
        cfg = self.config
        predictions = self.model.predict_cursor(
            cursor, threshold=self._next_threshold(result), mark_used=True
        )
        result.predictions_made += len(predictions)
        issued = 0
        for prediction in predictions:
            if issued >= cfg.max_prefetch_per_request:
                break
            size = self.url_sizes.get(prediction.url)
            if size is None or size > cfg.prefetch_size_limit_bytes:
                continue
            if prediction.url in target.cache:
                continue
            if target.prefetch_fill(prediction.url, size):
                result.prefetch_bytes += size
                result.prefetches_issued += 1
                issued += 1
                if origin is not None:
                    self._log_event(
                        origin[0],
                        origin[1],
                        prediction.url,
                        EventKind.PREFETCH,
                        prediction.probability,
                    )

    # -- client mode (Section 4) -----------------------------------------------

    def run(
        self,
        requests: "Sequence[Request] | RequestBatch",
        *,
        client_kinds: Mapping[str, str] | None = None,
    ) -> SimulationResult:
        """Replay requests in per-client mode.

        Parameters
        ----------
        requests:
            Test-day page views: a request view or a columnar
            :class:`~repro.trace.columnar.RequestBatch`, which replay
            straight off their columns, or request objects, which the
            engine sorts into replay order first.
        client_kinds:
            Optional ``client -> "browser" | "proxy"`` map from
            :meth:`repro.trace.dataset.Trace.classify_clients`; clients
            default to browsers when absent.
        """
        cfg = self.config
        kinds = client_kinds or {}
        result = self._new_result(requests)
        states: dict[str, _ClientState] = {}

        for client, url, timestamp, size in replay_rows(requests):
            state = states.get(client)
            if state is None:
                capacity = (
                    cfg.proxy_cache_bytes
                    if kinds.get(client) == "proxy"
                    else cfg.browser_cache_bytes
                )
                state = _ClientState(
                    endpoint=_Endpoint(make_cache(cfg.cache_policy, capacity)),
                    shadow=make_cache(cfg.cache_policy, capacity),
                    cursor=self._new_cursor(),
                )
                states[client] = state

            self._update_context(state, url, timestamp)
            result.requests += 1

            # Shadow (caching-only) accounting.
            if state.shadow.access(url):
                result.shadow_hits += 1
                shadow_latency = 0.0
            else:
                shadow_latency = self.latency_model.estimate(size)
                result.shadow_latency_seconds += shadow_latency
                state.shadow.store(url, size)
            if cfg.collect_latencies:
                result.shadow_latencies.append(shadow_latency)

            # Prefetching run.
            if state.endpoint.cache.access(url):
                was_prefetched = url in state.endpoint.prefetched
                result.hits += 1
                result.browser_hits += 1
                self._account_prefetch_hit(result, state.endpoint, url)
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.HIT_PREFETCHED
                    if was_prefetched
                    else EventKind.HIT_BROWSER,
                )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            else:
                latency = self.latency_model.estimate(size)
                result.demand_miss_bytes += size
                result.latency_seconds += latency
                state.endpoint.demand_fill(url, size)
                if cfg.collect_latencies:
                    result.latencies.append(latency)
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.MISS,
                    float(size),
                )

            self._issue_prefetches(
                result, state.endpoint, state.cursor, (timestamp, client)
            )

        return self._finish_result(result)

    # -- proxy mode (Section 5) ---------------------------------------------------

    def run_proxy(
        self,
        requests: "Sequence[Request] | RequestBatch",
        *,
        clients: Sequence[str] | None = None,
    ) -> SimulationResult:
        """Replay requests through one shared proxy (Section 5 topology).

        Parameters
        ----------
        requests:
            Test-day page views (a request view, a columnar batch or
            request objects, as for :meth:`run`); when
            ``clients`` is given only requests from those clients are
            replayed (the paper randomly selects 1 to 32 clients per
            proxy).
        """
        cfg = self.config
        result = self._new_result(requests)
        wanted = frozenset(clients) if clients is not None else None

        proxy = _Endpoint(make_cache(cfg.cache_policy, cfg.proxy_cache_bytes))
        proxy_shadow = make_cache(cfg.cache_policy, cfg.proxy_cache_bytes)
        states: dict[str, _ClientState] = {}

        for client, url, timestamp, size in replay_rows(requests):
            if wanted is not None and client not in wanted:
                continue
            state = states.get(client)
            if state is None:
                state = _ClientState(
                    endpoint=_Endpoint(
                        make_cache(cfg.cache_policy, cfg.browser_cache_bytes)
                    ),
                    shadow=make_cache(cfg.cache_policy, cfg.browser_cache_bytes),
                    cursor=self._new_cursor(),
                )
                states[client] = state

            self._update_context(state, url, timestamp)
            result.requests += 1

            # Shadow chain: browser shadow, then proxy shadow, no prefetch.
            if state.shadow.access(url):
                result.shadow_hits += 1
                shadow_latency = 0.0
            elif proxy_shadow.access(url):
                result.shadow_hits += 1
                state.shadow.store(url, size)
                shadow_latency = 0.0
            else:
                shadow_latency = self.latency_model.estimate(size)
                result.shadow_latency_seconds += shadow_latency
                proxy_shadow.store(url, size)
                state.shadow.store(url, size)
            if cfg.collect_latencies:
                result.shadow_latencies.append(shadow_latency)

            # Prefetching chain: browser, proxy, then server.
            if state.endpoint.cache.access(url):
                result.hits += 1
                result.browser_hits += 1
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.HIT_BROWSER,
                )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            elif proxy.cache.access(url):
                was_prefetched = url in proxy.prefetched
                result.hits += 1
                result.proxy_hits += 1
                self._account_prefetch_hit(result, proxy, url)
                state.endpoint.demand_fill(url, size)
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.HIT_PREFETCHED
                    if was_prefetched
                    else EventKind.HIT_PROXY,
                )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            else:
                latency = self.latency_model.estimate(size)
                result.demand_miss_bytes += size
                result.latency_seconds += latency
                proxy.demand_fill(url, size)
                state.endpoint.demand_fill(url, size)
                if cfg.collect_latencies:
                    result.latencies.append(latency)
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.MISS,
                    float(size),
                )

            self._issue_prefetches(
                result, proxy, state.cursor, (timestamp, client)
            )

        return self._finish_result(result)
