"""Longest-match prediction over a Markov prediction tree (Section 4.1).

*"A longest matching method is used in both the standard and the LRS-PPM
models, which matches as many previous URLs as possible to make a
prediction."*  Given the URLs a client has clicked so far in its session,
the engine finds the longest context suffix that exists as a root path in
the tree and predicts the children of the matched node whose conditional
probability clears the threshold (0.25 in all the paper's experiments).

PB-PPM adds *special-link* predictions on top: when the current click is a
root, the duplicated popular nodes linked from that root are predicted as
well (:meth:`repro.core.pb.PopularityBasedPPM.predict` wires this in).

Every model stores its tree in one array-backed
:class:`~repro.kernel.compact.CompactTrie` and predicts through one step
over it: :func:`predict_from_table_matches` cuts the matched node's row
of the store's compiled :class:`~repro.kernel.predict_table.PredictTable`
at the requested threshold, whatever the threshold.
:class:`PredictionCursor` supplies the matches incrementally: instead of
rematching the full context on every click, it carries the previous
click's suffix-match states forward and extends each by one URL, which is
what the replay engine and the serving tracker use per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import params
from repro.kernel.compact import KEY_SHIFT as _KEY_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.compact import CompactTrie
    from repro.kernel.predict_table import PredictTable
    from repro.kernel.symbols import SymbolTable


def clears_threshold(
    probability: float,
    threshold: float,
    *,
    epsilon: float = params.PROBABILITY_EPSILON,
) -> bool:
    """Whether a conditional probability qualifies against a threshold.

    The compiled table's row cut and the node-forest oracle of
    ``tests/oracle.py`` both funnel their threshold comparison through
    here, so a borderline value (e.g. an exact 0.25) can never qualify on
    one and fail on the other.  The epsilon admits probabilities within
    ``epsilon`` *below* the threshold; it is far too small to flip any
    exact ratio of integer counts, so the guarded comparison is identical
    to ``>=`` on the exact count arithmetic every path performs.
    """
    return probability + epsilon >= threshold


@dataclass(frozen=True, slots=True)
class Prediction:
    """One predicted URL.

    Attributes
    ----------
    url:
        The URL the model expects the client to access.
    probability:
        Conditional probability the model assigns to the access.
    order:
        Length of the context suffix the prediction was conditioned on
        (0 for special-link predictions, which condition on the root only).
    source:
        ``"context"`` for ordinary longest-match predictions,
        ``"special_link"`` for PB-PPM's popular-node predictions.
    """

    url: str
    probability: float
    order: int
    source: str = "context"


# --------------------------------------------------------------------------
# Compact-store matching
# --------------------------------------------------------------------------


def compact_suffix_matches(
    store: "CompactTrie", symbols: "SymbolTable", context: Sequence[str]
) -> "list[tuple[int, int, list[int]]]":
    """All full-suffix matches of ``context`` in a compact store.

    Each element is ``(matched_index, suffix_length,
    indices_on_match_path)``, longest suffix first; PPM's escape mechanism
    consumes them in that order.  URLs the symbol table has never seen
    cannot match by construction, so each is resolved once up front.
    """
    get_sym = symbols.get
    ids = [get_sym(url) for url in context]
    matches: list[tuple[int, int, list[int]]] = []
    roots = store.roots
    children = store.children
    n = len(ids)
    for start in range(n):
        sym = ids[start]
        if sym is None:
            continue
        idx = roots.get(sym)
        if idx is None:
            continue
        path = [idx]
        matched = True
        for position in range(start + 1, n):
            nxt_sym = ids[position]
            if nxt_sym is None:
                matched = False
                break
            nxt = children.get((idx << _KEY_SHIFT) | nxt_sym)
            if nxt is None:
                matched = False
                break
            idx = nxt
            path.append(idx)
        if matched:
            matches.append((idx, n - start, path))
    return matches


# --------------------------------------------------------------------------
# Compiled-table prediction
# --------------------------------------------------------------------------


def predict_from_table_matches(
    store: "CompactTrie",
    table: "PredictTable",
    symbols: "SymbolTable",
    matches: "Sequence[tuple[int, int, list[int]]]",
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    mark_used: bool = True,
    escape: bool = False,
) -> list[Prediction]:
    """Longest-match prediction step over suffix matches (longest first).

    The longest matched context predicts its children whose conditional
    probability clears ``threshold``: its table row cut at ``threshold``,
    already sorted by descending probability, ties by URL.  The matched
    path and the predicted children are marked used (Figure 2's
    utilisation input).  An empty cut covers both a zero-count context and
    one with no qualifying child; with ``escape`` it falls back to the
    next-shorter match — compression-style PPM escape, offered as an
    ablation; the paper's models leave it off.
    """
    used = store.used
    url_of = symbols.url
    for idx, order, path in matches:
        predictions, children = table.context_row(idx, order, threshold, url_of)
        if not predictions:
            if escape:
                continue
            return []
        if mark_used:
            for visited in path:
                used[visited] = 1
            for child in children:
                used[child] = 1
        return list(predictions)
    return []


# --------------------------------------------------------------------------
# Incremental suffix matching
# --------------------------------------------------------------------------


class PredictionCursor:
    """Per-client incremental suffix-match state.

    A cursor follows one client's click stream and maintains, after every
    :meth:`advance`, exactly the suffix-match states a batch
    :func:`compact_suffix_matches` would compute on the trimmed context —
    longest first — but derives them from the previous click's states in
    O(active matches) instead of rematching the whole context in O(L²)
    child lookups.  The correspondence is exact because a full suffix
    match of ``context + [url]`` is either a match of ``context`` extended
    by ``url`` or the single-click suffix ``[url]`` itself.

    Staleness: the owning model bumps an internal mutation counter on
    every structural change (refit, online update, pruning).  The cursor
    snapshots the counter and transparently falls back to one batch
    rematch when it no longer agrees, so online updates mid-replay can
    never leave it pointing at stale or deleted state.  Session boundaries are handled by :meth:`reset`.

    Obtain cursors via :meth:`repro.core.base.PPMModel.prediction_cursor`
    and predict through :meth:`repro.core.base.PPMModel.predict_cursor`.
    """

    __slots__ = ("_model", "_max_length", "_urls", "_states", "_seen")

    def __init__(self, model, max_length: int) -> None:
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        self._model = model
        self._max_length = max_length
        self._urls: list[str] = []
        # Each state is (index, index path) into the model's store, kept
        # in decreasing suffix-length order like compact_suffix_matches.
        self._states: list[tuple[object, list]] = []
        self._seen = model._mutations

    @property
    def model(self):
        return self._model

    @property
    def max_length(self) -> int:
        return self._max_length

    @property
    def context(self) -> tuple[str, ...]:
        """The trimmed click context the current states correspond to."""
        return tuple(self._urls)

    @property
    def last_url(self) -> str | None:
        """The most recent click, or None right after a reset."""
        return self._urls[-1] if self._urls else None

    def reset(self) -> None:
        """Forget the context — call at session boundaries."""
        self._urls.clear()
        self._states.clear()

    def _resync(self) -> None:
        self._states = self._model._match_states(self._urls)
        self._seen = self._model._mutations

    def advance(self, url: str) -> None:
        """Extend the context by one click, updating the match states."""
        urls = self._urls
        urls.append(url)
        overflow = len(urls) - self._max_length
        if overflow > 0:
            del urls[:overflow]
        if self._seen != self._model._mutations:
            self._resync()
            return
        self._states = self._model._advance_states(self._states, url)
        if overflow > 0 and self._states:
            # Trimming dropped the oldest click; a state that matched the
            # full pre-trim context is now longer than the context itself
            # and must go.  Suffix lengths are unique, so at most the
            # first (longest) state is affected.
            limit = len(urls)
            if len(self._states[0][1]) > limit:
                del self._states[0]

    def matches(self) -> list:
        """Current suffix matches as ``(handle, order, path)``, longest first.

        Same shape as :func:`compact_suffix_matches` on :attr:`context`.
        """
        if self._seen != self._model._mutations:
            self._resync()
        return [(handle, len(path), path) for handle, path in self._states]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PredictionCursor(context={len(self._urls)}, "
            f"states={len(self._states)})"
        )
