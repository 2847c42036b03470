"""Live model maintenance behind the prediction server.

The paper's maintenance story (Section 2.2) has two tempos, and this module
gives the server both:

* **Cheap in-place folds** — completed sessions are folded into the live
  model with :func:`repro.core.online.update_model` between rebuilds.
  Folds mutate the published model on the event loop; prediction cursors
  notice the model's mutation counter move and resync themselves, so
  in-flight clients keep predicting correctly.
* **Read-copy-update refreshes** — a full rebuild over the retained
  session window runs in a worker thread through a
  :class:`~repro.core.online.RollingModelManager` (``refit_every=1``, so a
  refresh always constructs a *new* model and re-ranks popularity) and is
  then published with one atomic :meth:`~repro.serve.state.ModelRef.publish`
  swap.  Request handlers never block on a refresh and never observe a
  half-built model.

Sessions folded since the last refresh are also retained in the pending
day, so a refresh loses nothing that was folded in the meantime.

Supervised recovery: every rebuild runs under a deadline
(:data:`~repro.params.SERVE_REBUILD_TIMEOUT_S`) and behind a
:class:`~repro.resilience.CircuitBreaker`.  A rebuild that raises has its
day's sessions requeued and counts a breaker failure; one that stalls past
the deadline is abandoned (the thread finishes in the background, guarded
by a lock so it cannot race a later rebuild) and counts a failure too.
Either way the last-good model keeps serving — the swap simply never
happens — and once the failure streak trips the breaker, refresh attempts
are skipped entirely until the cooldown elapses.  Injection points:
``rebuild.exception`` and ``rebuild.stall``.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from typing import Callable

from repro import params
from repro.core.base import PPMModel
from repro.core.online import RollingModelManager, update_model
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.errors import ModelError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fire
from repro.serve.state import ModelRef
from repro.trace.sessions import Session

logger = logging.getLogger("repro.serve")


def default_model_factory(popularity: PopularityTable) -> PPMModel:
    """The served model of choice: the paper's PB-PPM."""
    return PopularityBasedPPM(popularity)


class ModelUpdater:
    """Folds completed sessions into the live model and publishes rebuilds.

    Parameters
    ----------
    ref:
        The :class:`ModelRef` refreshes publish into (and folds mutate
        through).
    model_factory:
        Builds the refresh model from a popularity table; defaults to
        PB-PPM.
    window_days:
        Training days the rolling manager retains for refreshes; each
        refresh treats the sessions completed since the previous one as
        one "day".
    manager:
        An already-seeded :class:`RollingModelManager` to adopt (the
        server's bootstrap path fits the initial model through the manager
        so the first refresh window already contains the bootstrap day);
        default: a fresh one.
    rebuild_timeout_s / breaker:
        Supervision of the rebuild path: the per-rebuild deadline, and
        the circuit breaker that converts a failure streak into a
        cooling-off period (defaults from :mod:`repro.params`).
    """

    def __init__(
        self,
        ref: ModelRef,
        *,
        model_factory: Callable[[PopularityTable], PPMModel] | None = None,
        window_days: int = 7,
        manager: RollingModelManager | None = None,
        rebuild_timeout_s: float = params.SERVE_REBUILD_TIMEOUT_S,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.ref = ref
        self._manager = manager or RollingModelManager(
            model_factory or default_model_factory,
            window_days=window_days,
            refit_every=1,
        )
        self._pending: list[Session] = []
        self._day: list[Session] = []
        self._refresh_lock = asyncio.Lock()
        # Serialises manager access between a rebuild thread and any
        # rebuild abandoned after a stall that is still running.
        self._manager_lock = threading.Lock()
        self.rebuild_timeout_s = rebuild_timeout_s
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=params.SERVE_BREAKER_FAILURES,
            cooldown_s=params.SERVE_BREAKER_COOLDOWN_S,
        )
        self.folded_sessions_total = 0
        self.fold_batches_total = 0
        self.fold_failures_total = 0
        self.refresh_total = 0
        self.refresh_failures_total = 0
        self.refresh_timeouts_total = 0
        self.refresh_skipped_total = 0
        self.last_refresh_duration_s = 0.0
        self.last_refresh_error: str | None = None

    # -- state ----------------------------------------------------------------

    @property
    def pending_sessions(self) -> int:
        """Sessions waiting for the next fold."""
        return len(self._pending)

    def pending_snapshot(self) -> list[Session]:
        """The sessions queued for the next fold (not yet in the model).

        The write-ahead journal's snapshot-boundary carry captures these:
        a snapshot taken between ``add_sessions`` and ``fold_pending``
        does not contain them, so they must replay from the journal.
        Sessions already folded (``_day``) *are* in the dumped model and
        are deliberately excluded.
        """
        return list(self._pending)

    @property
    def window_days_retained(self) -> int:
        return self._manager.days_retained

    # -- cheap fold path -------------------------------------------------------

    def add_sessions(self, sessions: list[Session]) -> None:
        """Queue completed sessions for the next fold."""
        self._pending.extend(sessions)

    def fold_pending(self) -> int:
        """Fold queued sessions into the live model, in place.

        Runs on the event loop — folds are cheap suffix inserts.  Models
        without an incremental path (LRS-PPM) keep the sessions queued for
        the next refresh only.  Returns the number of sessions folded.
        """
        if not self._pending:
            return 0
        batch = self._pending
        self._pending = []
        self._day.extend(batch)
        try:
            update_model(self.ref.model, batch)
        except ModelError:
            self.fold_failures_total += 1
            return 0
        self.folded_sessions_total += len(batch)
        self.fold_batches_total += 1
        return len(batch)

    # -- read-copy-update refresh ---------------------------------------------

    def _build_day(self, day: list[Session]) -> PPMModel:
        """The worker-thread body of one rebuild (faults fire in here).

        Both injected faults fire *before* the manager is touched, so the
        refresh path can requeue the day on failure without double-folding
        anything.  The manager lock keeps a rebuild abandoned after a
        stall from racing the next one.
        """
        with self._manager_lock:
            spec = fire("rebuild.stall")
            if spec is not None:
                time.sleep(spec.delay_s)
            if fire("rebuild.exception"):
                raise ModelError("injected rebuild failure")
            return self._manager.advance_day(day)

    async def refresh(self) -> int | None:
        """Rebuild from the session window off-loop and publish the result.

        The sessions completed since the previous refresh advance the
        rolling window as one day; the rebuild (popularity re-rank
        included) runs in a worker thread against data the event loop no
        longer touches, then the finished model is swapped in atomically.
        Returns the published version, or None when there was nothing to
        rebuild from (never clobbers the live model with an empty one).

        Failure behaviour: while the breaker is open the rebuild is not
        even attempted and the current version is returned (the last-good
        model keeps serving).  A rebuild that raises requeues its day and
        records a breaker failure; one that exceeds
        :attr:`rebuild_timeout_s` is abandoned to finish in the
        background — its day is already owned by that thread, so it is
        *not* requeued — and records a failure likewise.
        """
        async with self._refresh_lock:
            if not self.breaker.allow():
                self.refresh_skipped_total += 1
                logger.warning(
                    "model rebuild skipped: circuit breaker %s "
                    "(%d consecutive failures); serving last-good model v%d",
                    self.breaker.state,
                    self.breaker.consecutive_failures,
                    self.ref.version,
                )
                return self.ref.version
            day = self._day + self._pending
            self._day = []
            self._pending = []
            if not day and self._manager.days_retained == 0:
                self.breaker.record_success()
                return None
            if not day and self._manager.model is self.ref.model:
                # Nothing new and the live model already is the manager's
                # latest rebuild: a re-publish would only force every
                # client cursor to resync for no change.
                self.breaker.record_success()
                return self.ref.version
            started = time.perf_counter()
            try:
                model = await asyncio.wait_for(
                    asyncio.to_thread(self._build_day, day),
                    timeout=self.rebuild_timeout_s,
                )
            except asyncio.TimeoutError:
                # The thread is still running; _manager_lock guards it.
                # Its day advances the window when it finishes, so the
                # sessions surface in the *next* successful rebuild.
                self.refresh_timeouts_total += 1
                self.refresh_failures_total += 1
                self.last_refresh_error = (
                    f"rebuild exceeded {self.rebuild_timeout_s:.1f}s deadline"
                )
                self.breaker.record_failure()
                logger.error(
                    "model rebuild stalled past %.1fs; abandoned "
                    "(breaker %s), serving last-good model v%d",
                    self.rebuild_timeout_s,
                    self.breaker.state,
                    self.ref.version,
                )
                return self.ref.version
            except Exception as exc:  # noqa: BLE001 - rebuilds may raise anything
                self._day = day + self._day
                self.refresh_failures_total += 1
                self.last_refresh_error = f"{type(exc).__name__}: {exc}"
                self.breaker.record_failure()
                logger.error(
                    "model rebuild failed (%s); day requeued (breaker %s), "
                    "serving last-good model v%d",
                    self.last_refresh_error,
                    self.breaker.state,
                    self.ref.version,
                )
                return self.ref.version
            self.last_refresh_duration_s = time.perf_counter() - started
            self.refresh_total += 1
            self.last_refresh_error = None
            self.breaker.record_success()
            return self.ref.publish(model)
