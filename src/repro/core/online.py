"""Online model maintenance (paper Section 2.2).

*"The models are dynamically maintained and updated based on historical
data during a period of time."*  This module adds the two maintenance
regimes a production prefetching server needs:

* **Incremental updates** — :func:`update_model` folds freshly completed
  sessions into an already-fitted standard or popularity-based tree
  without a rebuild.  (LRS-PPM cannot be updated incrementally: the
  repeat threshold is a global property, so it is refitted from the
  retained window.)
* **Rolling windows** — :class:`RollingModelManager` keeps the last *N*
  days of sessions, folds in each new day, refits models whose structure
  demands it, and periodically re-ranks popularity — the paper's
  observation that "the popularity of Web files is normally stable over a
  long period" is what makes the cheap PB-PPM update sound.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Sequence

from repro.core.base import PPMModel
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import ModelError
from repro.trace.columnar import SessionPaths, SessionView
from repro.trace.sessions import Session


def session_day(sessions: Iterable[Session]) -> Sequence[Session]:
    """One day of sessions as :class:`RollingModelManager` keeps it.

    A session view (:class:`~repro.trace.columnar.SessionView`) stays
    columns and a tuple is kept as given; any other iterable — a list, a
    one-shot iterator — is read once into a tuple.
    """
    if isinstance(sessions, (tuple, SessionView)):
        return sessions
    return tuple(sessions)


def update_model(model: PPMModel, sessions: Iterable[Session]) -> PPMModel:
    """Fold new sessions into a fitted model in place.

    Standard PPM and first-order Markov trees are strictly additive, so
    the update equals a refit on the union of the data.  PB-PPM inserts
    the new branches under the *existing* popularity grading (re-grading
    happens on the maintenance schedule, not per session) and does not
    re-run the space-optimisation passes — both choices mirror a server
    applying cheap per-request updates between nightly rebuilds.

    Raises
    ------
    ModelError
        For models without an incremental update (LRS-PPM).
    """
    if not model.is_fitted:
        raise ModelError("update_model requires a fitted model")
    if isinstance(model, LRSPPM):
        raise ModelError(
            "LRS-PPM cannot be updated incrementally; refit it on the "
            "retained session window"
        )
    if isinstance(model, (PopularityBasedPPM, StandardPPM)):
        # Both models fold sessions straight into their store, bumping the
        # mutation counter so live prediction cursors resync.
        model.fold_sessions(sessions)
        return model
    # Generic fallback: models built from height-bounded suffix inserts.
    raise ModelError(
        f"{type(model).__name__} does not support incremental updates"
    )


class RollingModelManager:
    """Maintains a model over a sliding window of training days.

    Parameters
    ----------
    model_factory:
        Builds a fresh model given the current popularity table (the
        table argument is ignored by models that do not need one) —
        e.g. ``lambda pop: PopularityBasedPPM(pop)`` or
        ``lambda pop: StandardPPM()``.
    window_days:
        Number of most-recent days retained for (re)fitting.
    refit_every:
        Re-rank popularity and rebuild the model from the whole window
        every this-many day advances; days in between are folded in with
        the cheap incremental update where the model supports it, and
        trigger a refit otherwise.
    """

    def __init__(
        self,
        model_factory: Callable[[PopularityTable], PPMModel],
        *,
        window_days: int = 7,
        refit_every: int = 1,
    ) -> None:
        if window_days < 1:
            raise ValueError(f"window_days must be >= 1, got {window_days}")
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        self.model_factory = model_factory
        self.window_days = window_days
        self.refit_every = refit_every
        self._window: Deque[Sequence[Session]] = deque(maxlen=window_days)
        self._model: PPMModel | None = None
        self._popularity: PopularityTable | None = None
        self._advances_since_refit = 0
        self.refit_count = 0
        self.incremental_count = 0

    # -- state ---------------------------------------------------------------

    @property
    def model(self) -> PPMModel:
        """The current model (raises before the first day arrives)."""
        if self._model is None:
            raise ModelError("no day has been fed to the manager yet")
        return self._model

    @property
    def popularity(self) -> PopularityTable:
        """The popularity table backing the current model."""
        if self._popularity is None:
            raise ModelError("no day has been fed to the manager yet")
        return self._popularity

    @property
    def window_sessions(self) -> list[Session]:
        """Every session currently retained, oldest day first (a view
        day's sessions are built when this is read)."""
        return [session for day in self._window for session in day]

    @property
    def days_retained(self) -> int:
        return len(self._window)

    # -- maintenance -----------------------------------------------------------

    def _refit(self) -> None:
        # The popularity count and the fit read one column corpus of the
        # whole window, so a view day never becomes Session objects.
        window = SessionPaths.concat(self._window)
        self._popularity = PopularityTable.from_sessions(window)
        self._model = self.model_factory(self._popularity).fit(window)
        self._advances_since_refit = 0
        self.refit_count += 1

    def advance_day(self, sessions: Iterable[Session]) -> PPMModel:
        """Fold one finished day in and return the maintained model.

        The first day, a full window rollover, or hitting the refit
        schedule rebuilds from scratch; other days use the incremental
        update when the model class supports it.

        The day is kept as :func:`session_day` gives it: a session view
        stays columns through the window, the refit and the fold.

        An *empty* day (a quiet server interval with no completed
        sessions) still occupies a window slot, but never triggers a refit
        on its own and leaves the model and its popularity grading
        untouched — unless appending it rolled a non-empty day out of the
        window, in which case the grades genuinely changed and a refit
        runs as usual.
        """
        window_was_full = len(self._window) == self.window_days
        dropped = self._window[0] if window_was_full else ()
        # One sequence serves the window and the fold, so a one-shot
        # iterator is read once.
        sessions = session_day(sessions)
        self._window.append(sessions)
        if not sessions:
            if self._model is not None and not dropped:
                return self._model
        else:
            self._advances_since_refit += 1

        needs_refit = (
            self._model is None
            or window_was_full  # an old day dropped out of the window
            or self._advances_since_refit >= self.refit_every
        )
        if not needs_refit:
            try:
                update_model(self._model, sessions)
                self.incremental_count += 1
                return self._model
            except ModelError:
                pass
        self._refit()
        return self._model
