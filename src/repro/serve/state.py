"""Per-client serving state: published-model reference and session tracking.

Two pieces every other serve module builds on:

* :class:`ModelRef` — the read-copy-update (RCU) publication point.  The
  updater and the admin surface *replace* the referenced model atomically;
  request handlers grab one ``(model, version)`` snapshot per request, so a
  prediction is always computed against exactly one model — never a mix of
  an old and a new one mid-swap.
* :class:`ClientSessionTracker` — the paper's access-session semantics
  (Section 1: a client idle for more than 30 minutes starts a new session)
  applied to a live request stream, driving one incremental
  :class:`~repro.core.prediction.PredictionCursor` per client instead of
  re-matching the context suffixes on every request.

Completed sessions (idle-expired or explicitly closed) are handed to the
online updater as ordinary :class:`~repro.trace.sessions.Session` objects,
so serving feeds the same maintenance pipeline
(:mod:`repro.core.online`) the offline experiments use.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro import params
from repro.core.base import PPMModel
from repro.core.prediction import Prediction, PredictionCursor
from repro.trace.record import Request
from repro.trace.sessions import Session

#: Clicks after which a still-open session is force-completed; bounds the
#: per-client memory a misbehaving (or proxy) client can pin.
DEFAULT_MAX_SESSION_CLICKS = 500


def check_predict_args(threshold: float, limit: int | None) -> None:
    """Reject a prediction threshold outside [0, 1] (NaN and infinities
    included) and a negative ``limit``, with ``ValueError``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit!r}")


def trim_context(urls: Sequence[str], max_length: int) -> tuple[str, ...]:
    """The context suffix a prediction actually uses (newest clicks win)."""
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    return tuple(urls[-max_length:])


class ModelRef:
    """An atomically swappable reference to the live prediction model.

    ``get()`` returns a ``(model, version)`` snapshot; ``publish()``
    installs a replacement and bumps the version.  The lock only guards
    the reference pair, never a prediction, so readers are wait-free in
    practice; handlers must call :meth:`get` once and use that model for
    the whole request (the RCU discipline the hot-swap tests pin).
    """

    def __init__(self, model: PPMModel) -> None:
        if not model.is_fitted:
            raise ValueError("ModelRef requires a fitted model")
        self._lock = threading.Lock()
        self._model = model
        self._version = 1

    def get(self) -> tuple[PPMModel, int]:
        """The current ``(model, version)`` pair, atomically."""
        with self._lock:
            return self._model, self._version

    @property
    def model(self) -> PPMModel:
        return self.get()[0]

    @property
    def version(self) -> int:
        return self.get()[1]

    def publish(self, model: PPMModel) -> int:
        """Swap in a replacement model; returns the new version."""
        if not model.is_fitted:
            raise ValueError("cannot publish an unfitted model")
        with self._lock:
            self._version += 1
            self._model = model
            return self._version


class _ClientState:
    """One client's open session and its incremental prediction cursor."""

    __slots__ = ("clicks", "timestamps", "cursor", "model", "last_seen", "memo")

    def __init__(self) -> None:
        self.clicks: list[str] = []
        self.timestamps: list[float] = []
        self.cursor: PredictionCursor | None = None
        self.model: PPMModel | None = None
        self.last_seen = 0.0
        #: Last prediction, memoised as ``(threshold, limit, version,
        #: mutations, predictions)``; dropped whenever the cursor moves and
        #: ignored when the model generation flips or the model mutates in
        #: place, so a stale answer can never be replayed.
        self.memo: (
            tuple[float, int | None, int, int, list[Prediction]] | None
        ) = None


class ClientSessionTracker:
    """Sliding per-client contexts over the published model.

    Parameters
    ----------
    ref:
        The :class:`ModelRef` predictions read from.  When a new model is
        published, each client's cursor is transparently rebuilt against
        the new model on its next request (replaying the trimmed context,
        at most ``max_context_length`` clicks).
    idle_timeout_s:
        The paper's session boundary: a gap strictly greater than this
        closes the open session (default 30 minutes).
    max_context_length:
        Longest context suffix kept for prediction (cursor length).
    max_session_clicks:
        Force-complete a session that reaches this many clicks.

    Time is whatever clock ``observe`` is fed — wall-clock seconds for a
    live deployment, trace seconds for a replay; expiry only compares
    observed timestamps (see :meth:`expire_idle`).
    """

    def __init__(
        self,
        ref: ModelRef,
        *,
        idle_timeout_s: float = params.SESSION_IDLE_TIMEOUT_S,
        max_context_length: int = params.DEFAULT_MAX_CONTEXT_LENGTH,
        max_session_clicks: int = DEFAULT_MAX_SESSION_CLICKS,
    ) -> None:
        if idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be > 0, got {idle_timeout_s}")
        if max_context_length < 1:
            raise ValueError(
                f"max_context_length must be >= 1, got {max_context_length}"
            )
        if max_session_clicks < 1:
            raise ValueError(
                f"max_session_clicks must be >= 1, got {max_session_clicks}"
            )
        self.ref = ref
        self.idle_timeout_s = idle_timeout_s
        self.max_context_length = max_context_length
        self.max_session_clicks = max_session_clicks
        self._clients: dict[str, _ClientState] = {}
        self._completed: list[Session] = []
        self._clock = 0.0
        self.observed_clicks = 0
        self.completed_sessions = 0
        self.resyncs = 0
        self.predict_cache_hits = 0
        self.predict_cache_misses = 0

    # -- introspection -------------------------------------------------------

    @property
    def active_clients(self) -> int:
        return len(self._clients)

    @property
    def clock(self) -> float:
        """Latest timestamp observed across all clients."""
        return self._clock

    def context(self, client: str) -> tuple[str, ...]:
        """The trimmed context the next prediction for ``client`` will use."""
        state = self._clients.get(client)
        if state is None:
            return ()
        return trim_context(state.clicks, self.max_context_length)

    def open_session_state(self) -> list:
        """Every open session as ``[client, [[url, ts], ...]]`` pairs.

        The write-ahead journal's snapshot-boundary carry record uses
        this shape (see :meth:`repro.serve.wal.ReportJournal.append_carry`):
        open sessions are the part of the tracker a model snapshot does
        not cover, so they ride in the journal across a restart and are
        re-observed click by click — coming back *open*, with context.
        """
        return [
            [client, [list(pair) for pair in zip(state.clicks, state.timestamps)]]
            for client, state in self._clients.items()
            if state.clicks
        ]

    # -- session lifecycle ---------------------------------------------------

    def _complete(self, client: str, state: _ClientState) -> None:
        if state.clicks:
            requests = tuple(
                Request(client=client, timestamp=ts, url=url, size=0)
                for url, ts in zip(state.clicks, state.timestamps)
            )
            self._completed.append(Session(client=client, requests=requests))
            self.completed_sessions += 1
        state.clicks = []
        state.timestamps = []
        state.memo = None
        if state.cursor is not None:
            state.cursor.reset()

    def _sync_cursor(self, state: _ClientState, model: PPMModel) -> PredictionCursor:
        """The client's cursor against ``model``, rebuilding after a swap."""
        cursor = state.cursor
        if cursor is None or state.model is not model:
            cursor = model.prediction_cursor(self.max_context_length)
            for url in trim_context(state.clicks, self.max_context_length):
                cursor.advance(url)
            state.cursor = cursor
            state.model = model
            state.memo = None
            self.resyncs += 1
        return cursor

    def observe(self, client: str, url: str, timestamp: float) -> int:
        """Record one click; returns the open session's click count.

        A gap above the idle timeout (or the click cap) completes the open
        session first — pick completed sessions up with
        :meth:`drain_completed`.
        """
        if not client:
            raise ValueError("client id must be non-empty")
        if not url:
            raise ValueError("url must be non-empty")
        state = self._clients.get(client)
        if state is None:
            state = _ClientState()
            self._clients[client] = state
        elif (
            state.clicks
            and timestamp - state.last_seen > self.idle_timeout_s
        ):
            self._complete(client, state)
        model, _version = self.ref.get()
        stale = state.cursor is None or state.model is not model
        state.clicks.append(url)
        state.timestamps.append(timestamp)
        state.last_seen = timestamp
        if timestamp > self._clock:
            self._clock = timestamp
        self.observed_clicks += 1
        state.memo = None  # the cursor is about to move
        if stale:
            # Rebuilds from the trimmed context, which already includes
            # this click.
            self._sync_cursor(state, model)
        else:
            state.cursor.advance(url)
        if len(state.clicks) >= self.max_session_clicks:
            self._complete(client, state)
        return len(state.clicks)

    def predict(
        self,
        client: str,
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        limit: int | None = None,
    ) -> tuple[list[Prediction], int]:
        """Prefetch candidates for ``client`` and the model version used.

        Exactly one published model answers the whole request (RCU): the
        snapshot is taken once, and the cursor is synced to it before
        predicting.  Serving never sets usage flags — those belong to the
        offline Figure-2 studies.

        Repeated asks for the same cursor position are memoised per
        client: the memo is dropped on every ``observe`` (the cursor
        moved) and on every model-generation flip, so a hit is always
        byte-identical to a recompute.

        Raises ``ValueError`` for a ``threshold`` outside [0, 1] (NaN
        and infinities included) or a negative ``limit``.
        """
        check_predict_args(threshold, limit)
        model, version = self.ref.get()
        state = self._clients.get(client)
        if state is None or not state.clicks:
            return [], version
        memo = state.memo
        if memo is not None and memo[0] == threshold and memo[1] == limit:
            if (
                memo[2] == version
                and state.model is model
                and memo[3] == model._mutations
            ):
                self.predict_cache_hits += 1
                return memo[4], version
        self.predict_cache_misses += 1
        cursor = self._sync_cursor(state, model)
        predictions = model.predict_cursor(
            cursor, threshold=threshold, mark_used=False
        )
        if limit is not None and len(predictions) > limit:
            predictions = predictions[:limit]
        state.memo = (threshold, limit, version, model._mutations, predictions)
        return predictions, version

    # -- expiry --------------------------------------------------------------

    def expire_idle(self, now: float | None = None) -> int:
        """Complete every session idle for longer than the timeout.

        ``now`` defaults to the latest observed timestamp, so replayed
        traces expire in trace time and a live server can pass
        ``time.time()``.  Returns the number of sessions completed; the
        sessions themselves wait in :meth:`drain_completed`.
        """
        if now is None:
            now = self._clock
        elif now > self._clock:
            self._clock = now
        completed = 0
        for client in list(self._clients):
            state = self._clients[client]
            if now - state.last_seen > self.idle_timeout_s:
                if state.clicks:
                    self._complete(client, state)
                    completed += 1
                del self._clients[client]
        return completed

    def expire_all(self) -> int:
        """Complete every open session (shutdown path)."""
        completed = 0
        for client in list(self._clients):
            state = self._clients.pop(client)
            if state.clicks:
                self._complete(client, state)
                completed += 1
        return completed

    def drain_completed(self) -> list[Session]:
        """Hand over (and forget) every session completed so far."""
        sessions = self._completed
        self._completed = []
        return sessions
