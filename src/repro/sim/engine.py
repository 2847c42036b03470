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

Replay runs on integers.  Each run maps the batch's URL ids into one key
space (:class:`_KeySpace`): the model's symbols keep their ids, and the
test URLs the model never saw follow them.  Caches, shadows and
prefetched maps are keyed by those ints, prefetch sizes and popularity
are looked up per key, and each client's context is one node of the
model's store, moved by the compiled table's memoised transitions and
predicted from by the model's per-node step
(:meth:`~repro.core.base.PPMModel.node_predictor`).  URLs come back only
for the event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.errors import SimulationError
from repro.kernel.compact import KEY_SHIFT
from repro.kernel.predict_table import NO_NODE
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


def as_batch(requests: "Sequence[Request] | RequestBatch") -> RequestBatch:
    """The one row source of both replay loops.

    Every input replays off a :class:`RequestBatch`: a batch as it is,
    and any page views through :meth:`RequestBatch.from_requests` (a
    request view slices its columns; objects are sorted by
    :func:`request_sort_key`).
    """
    if isinstance(requests, RequestBatch):
        return requests
    return RequestBatch.from_requests(requests)


def replay_rows(
    requests: "Sequence[Request] | RequestBatch",
) -> Iterator[tuple[str, str, float, int]]:
    """Yield ``(client, url, timestamp, total_bytes)`` in replay order."""
    return as_batch(requests).iter_rows()


@dataclass
class _Endpoint:
    """A cache plus bookkeeping of which residents arrived by prefetch.

    Keyed by whatever the run keys objects by (the engine: its integer
    key space).
    """

    cache: CacheLike
    prefetched: dict = field(default_factory=dict)

    def sync_evictions(self, evicted: Sequence) -> None:
        for key in evicted:
            self.prefetched.pop(key, None)

    def demand_fill(self, key, size: int) -> None:
        self.sync_evictions(self.cache.store(key, size))
        self.prefetched.pop(key, None)

    def prefetch_fill(self, key, size: int) -> bool:
        """Push a prefetched object; returns False when it did not fit."""
        self.sync_evictions(self.cache.store(key, size))
        if key in self.cache:
            self.prefetched[key] = size
            return True
        return False


class _Client:
    """One client's caches, context node and last click time."""

    __slots__ = ("endpoint", "shadow", "node", "last_time")

    def __init__(self, endpoint: _Endpoint, shadow: CacheLike) -> None:
        self.endpoint = endpoint
        self.shadow = shadow
        self.node = NO_NODE
        self.last_time = float("-inf")


class _KeySpace:
    """One run's integer keys for a batch's URLs.

    Keys ``0 .. known - 1`` are the model's symbols (so a predicted
    symbol is already a key); the batch's URLs the model never saw get
    the keys after them, in ascending trace-id order.  ``rows`` holds each
    row's key; ``urls[key]`` turns one back into a URL (event log only).
    ``prefetch_sizes`` and ``popular`` cover the keys a model can predict:
    the bytes a push of each moves (None when its size is unknown or
    above the prefetch limit) and whether it is popular (Figure 2).
    """

    __slots__ = ("rows", "urls", "known", "prefetch_sizes", "popular")

    def __init__(
        self,
        batch: RequestBatch,
        model: PPMModel | None,
        url_sizes: Mapping[str, int],
        size_limit: int,
        popularity: PopularityTable | None,
    ) -> None:
        urls = list(model._symbols.urls()) if model is not None else []
        self.known = len(urls)
        symbol_of = model._symbols.get if model is not None else {}.get
        key_of_id = np.zeros(len(batch.url_table), dtype=np.int64)
        for uid in np.unique(batch.urls).tolist():
            url = batch.url_table[uid]
            key = symbol_of(url)
            if key is None:
                key = len(urls)
                urls.append(url)
            key_of_id[uid] = key
        self.rows = key_of_id[batch.urls].tolist()
        self.urls = urls
        self.prefetch_sizes = [
            size if size is not None and size <= size_limit else None
            for size in map(url_sizes.get, urls[: self.known])
        ]
        self.popular = [
            popularity is not None and popularity.is_popular(url)
            for url in urls[: self.known]
        ]


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

    def _next_threshold(self, result: SimulationResult) -> float:
        """The probability threshold of the next prediction.

        The configured one;
        :class:`~repro.sim.adaptive.AdaptivePrefetchSimulator` overrides
        it with its traffic-budget controller, which reads
        ``demand_miss_bytes``, ``prefetch_bytes`` and
        ``prefetch_used_bytes``: the replay loops keep those three result
        fields current at every click.
        """
        return self.config.prediction_threshold

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
        batch = as_batch(requests)
        replay = _Replay(self, batch)
        result = replay.result
        estimate = self.latency_model.estimate
        states: dict[int, _Client] = {}

        for cid, key, timestamp, size in replay.rows():
            state = states.get(cid)
            if state is None:
                capacity = (
                    cfg.proxy_cache_bytes
                    if kinds.get(batch.client_table[cid]) == "proxy"
                    else cfg.browser_cache_bytes
                )
                state = states[cid] = _Client(
                    _Endpoint(make_cache(cfg.cache_policy, capacity)),
                    make_cache(cfg.cache_policy, capacity),
                )

            # Shadow (caching-only) accounting.
            if state.shadow.access(key):
                result.shadow_hits += 1
                shadow_latency = 0.0
            else:
                shadow_latency = estimate(size)
                result.shadow_latency_seconds += shadow_latency
                state.shadow.store(key, size)
            if cfg.collect_latencies:
                result.shadow_latencies.append(shadow_latency)

            # Prefetching run.
            if state.endpoint.cache.access(key):
                result.hits += 1
                result.browser_hits += 1
                was_prefetched = replay.prefetch_hit(state.endpoint, key)
                if replay.log is not None:
                    replay.record(
                        timestamp,
                        cid,
                        key,
                        EventKind.HIT_PREFETCHED
                        if was_prefetched
                        else EventKind.HIT_BROWSER,
                    )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            else:
                latency = estimate(size)
                result.demand_miss_bytes += size
                result.latency_seconds += latency
                state.endpoint.demand_fill(key, size)
                if cfg.collect_latencies:
                    result.latencies.append(latency)
                if replay.log is not None:
                    replay.record(timestamp, cid, key, EventKind.MISS, float(size))

            replay.click(state, key, timestamp, state.endpoint, cid)

        return replay.finish()

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
        batch = as_batch(requests)
        if clients is not None:
            batch = batch.select_clients(clients)
        replay = _Replay(self, batch)
        result = replay.result
        estimate = self.latency_model.estimate
        proxy = _Endpoint(make_cache(cfg.cache_policy, cfg.proxy_cache_bytes))
        proxy_shadow = make_cache(cfg.cache_policy, cfg.proxy_cache_bytes)
        states: dict[int, _Client] = {}

        for cid, key, timestamp, size in replay.rows():
            state = states.get(cid)
            if state is None:
                state = states[cid] = _Client(
                    _Endpoint(make_cache(cfg.cache_policy, cfg.browser_cache_bytes)),
                    make_cache(cfg.cache_policy, cfg.browser_cache_bytes),
                )

            # Shadow chain: browser shadow, then proxy shadow, no prefetch.
            if state.shadow.access(key):
                result.shadow_hits += 1
                shadow_latency = 0.0
            elif proxy_shadow.access(key):
                result.shadow_hits += 1
                state.shadow.store(key, size)
                shadow_latency = 0.0
            else:
                shadow_latency = estimate(size)
                result.shadow_latency_seconds += shadow_latency
                proxy_shadow.store(key, size)
                state.shadow.store(key, size)
            if cfg.collect_latencies:
                result.shadow_latencies.append(shadow_latency)

            # Prefetching chain: browser, proxy, then server.
            if state.endpoint.cache.access(key):
                result.hits += 1
                result.browser_hits += 1
                if replay.log is not None:
                    replay.record(timestamp, cid, key, EventKind.HIT_BROWSER)
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            elif proxy.cache.access(key):
                result.hits += 1
                result.proxy_hits += 1
                was_prefetched = replay.prefetch_hit(proxy, key)
                state.endpoint.demand_fill(key, size)
                if replay.log is not None:
                    replay.record(
                        timestamp,
                        cid,
                        key,
                        EventKind.HIT_PREFETCHED
                        if was_prefetched
                        else EventKind.HIT_PROXY,
                    )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            else:
                latency = estimate(size)
                result.demand_miss_bytes += size
                result.latency_seconds += latency
                proxy.demand_fill(key, size)
                state.endpoint.demand_fill(key, size)
                if cfg.collect_latencies:
                    result.latencies.append(latency)
                if replay.log is not None:
                    replay.record(timestamp, cid, key, EventKind.MISS, float(size))

            replay.click(state, key, timestamp, proxy, cid)

        return replay.finish()


class _Replay:
    """One run's key space, prediction step and result.

    Both topologies share it: after a click's cache accounting,
    :meth:`click` moves the client's context node by that click and
    pushes what the model predicts there into the target cache.
    Without a model a click pushes nothing.
    """

    def __init__(self, simulator: PrefetchSimulator, batch: RequestBatch) -> None:
        cfg = simulator.config
        model = simulator.model
        self.simulator = simulator
        self.batch = batch
        self.log = simulator.event_log
        self.keys = _KeySpace(
            batch,
            model,
            simulator.url_sizes,
            cfg.prefetch_size_limit_bytes,
            simulator.popularity,
        )
        self.result = SimulationResult(
            model_name=model.name if model is not None else "none"
        )
        self.model = model
        self.reset_on_gap = cfg.reset_context_on_session_gap
        self.idle_timeout = cfg.idle_timeout_seconds
        self.max_length = cfg.max_context_length
        self.max_prefetch = cfg.max_prefetch_per_request
        if model is None:
            self.click = self._no_model
            return
        model.reset_usage()
        table = model._compiled_table()
        self.table = table
        self.transitions = table.transitions(self.max_length)
        self.step = model.node_predictor()
        self.used = model._store.used

    def _no_model(self, state, key, timestamp, target, cid) -> None:
        pass

    def click(
        self,
        state: _Client,
        key: int,
        timestamp: float,
        target: _Endpoint,
        cid: int,
    ) -> None:
        """Advance ``state``'s context node by ``key``, predict there and
        push what fits into ``target``."""
        node = state.node
        if self.reset_on_gap and timestamp - state.last_time > self.idle_timeout:
            node = NO_NODE
        state.last_time = timestamp
        if key >= self.keys.known:
            # A URL the model never saw ends every suffix match.
            node = NO_NODE
        else:
            nxt = self.transitions.get(((node + 1) << KEY_SHIFT) | key)
            if nxt is None:
                nxt = self.table.transition(node, key, self.max_length)
            node = nxt
        state.node = node

        result = self.result
        cut = self.step(node, self.simulator._next_threshold(result))
        if cut.marked is not self.used:
            self.table.mark(cut, self.used)
        result.predictions_made += len(cut.keys)
        sizes = self.keys.prefetch_sizes
        issued = 0
        for key, probability in zip(cut.keys, cut.probs):
            if issued >= self.max_prefetch:
                break
            size = sizes[key]
            if size is None or key in target.cache:
                continue
            if target.prefetch_fill(key, size):
                result.prefetch_bytes += size
                result.prefetches_issued += 1
                issued += 1
                if self.log is not None:
                    self.record(
                        timestamp, cid, key, EventKind.PREFETCH, probability
                    )

    def rows(self) -> Iterator[tuple[int, int, float, int]]:
        """``(client id, key, timestamp, total_bytes)`` in replay order."""
        batch = self.batch
        return zip(
            batch.clients.tolist(),
            self.keys.rows,
            batch.timestamps.tolist(),
            batch.total_bytes.tolist(),
        )

    def prefetch_hit(self, endpoint: _Endpoint, key: int) -> bool:
        """Account a demand hit on ``endpoint``; True when it consumed a
        prefetched object."""
        size = endpoint.prefetched.pop(key, None)
        if size is None:
            return False
        result = self.result
        result.prefetch_hits += 1
        result.prefetch_used_bytes += size
        if self.keys.popular[key]:
            result.popular_prefetch_hits += 1
        return True

    def record(
        self,
        timestamp: float,
        cid: int,
        key: int,
        kind: EventKind,
        detail: float = 0.0,
    ) -> None:
        """Log one event, turning the client id and key back into strings."""
        self.log.record(
            SimulationEvent(
                timestamp,
                self.batch.client_table[cid],
                self.keys.urls[key],
                kind,
                detail,
            )
        )

    def finish(self) -> SimulationResult:
        result = self.result
        result.requests = len(self.batch)
        if self.model is not None:
            result.node_count = self.model.node_count
            result.path_utilization = self.model.path_utilization()
        return result
