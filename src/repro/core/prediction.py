"""Longest-match prediction over a Markov prediction tree (Section 4.1).

*"A longest matching method is used in both the standard and the LRS-PPM
models, which matches as many previous URLs as possible to make a
prediction."*  Given the URLs a client has clicked so far in its session,
the engine finds the longest context suffix that exists as a root path in
the tree and predicts the children of the matched node whose conditional
probability clears the threshold (0.25 in all the paper's experiments).

PB-PPM adds *special-link* predictions on top: when the current click is a
root, the duplicated popular nodes linked from that root are predicted as
well (:meth:`repro.core.pb.PopularityBasedPPM.node_predictor` wires this
in).

Every model stores its tree in one array-backed
:class:`~repro.kernel.compact.CompactTrie` and predicts through one
per-node step over its compiled
:class:`~repro.kernel.predict_table.PredictTable`: every suffix match of
a context is a suffix of the longest one, so the longest match's node
determines every model's prediction, at any threshold.
:class:`PredictionCursor` supplies that node incrementally: instead of
rematching the full context on every click, it follows one memoised
``(node, symbol) -> node`` transition per click, which is what the
serving tracker uses per request (the replay engine steps the same
transitions on integer keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import params
from repro.kernel.compact import KEY_SHIFT as _KEY_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.compact import CompactTrie
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
# Incremental suffix matching
# --------------------------------------------------------------------------


class PredictionCursor:
    """Per-client incremental suffix-match state: one node.

    A cursor follows one client's click stream and holds, after every
    :meth:`advance`, the longest suffix match of the trimmed context (the
    last ``max_length`` clicks) as one node index of the model's store,
    or -1 when no suffix matches.  Every shorter match is a suffix of
    that node's path (its suffix-link chain), so :meth:`matches` equals
    what a batch :func:`compact_suffix_matches` computes on
    :attr:`context`.  An advance is one memoised
    ``(node, symbol) -> node`` transition of the model's compiled table.

    Staleness: the owning model bumps an internal mutation counter on
    every structural change (refit, online update, pruning), which also
    hands predictions a freshly compiled table.  The cursor snapshots the
    counter and transparently resyncs — one batch longest match of its
    trimmed URL list — when it no longer agrees, so online updates
    mid-replay can never leave it pointing at stale or deleted state.
    Session boundaries are handled by :meth:`reset`.

    Obtain cursors via :meth:`repro.core.base.PPMModel.prediction_cursor`
    and predict through :meth:`repro.core.base.PPMModel.predict_cursor`.
    """

    __slots__ = ("_model", "_max_length", "_urls", "_node", "_seen")

    def __init__(self, model, max_length: int) -> None:
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        self._model = model
        self._max_length = max_length
        self._urls: list[str] = []
        self._node = -1
        # No store generation seen yet: the first use resyncs.
        self._seen: int | None = None

    @property
    def model(self):
        return self._model

    @property
    def max_length(self) -> int:
        return self._max_length

    @property
    def context(self) -> tuple[str, ...]:
        """The trimmed click context the current node corresponds to."""
        return tuple(self._urls)

    @property
    def last_url(self) -> str | None:
        """The most recent click, or None right after a reset."""
        return self._urls[-1] if self._urls else None

    @property
    def node(self) -> int:
        """The longest suffix match of :attr:`context` (-1 for none)."""
        if self._seen != self._model._mutations:
            self._resync()
        return self._node

    def reset(self) -> None:
        """Forget the context — call at session boundaries."""
        self._urls.clear()
        self._node = -1

    def _resync(self) -> None:
        model = self._model
        matches = compact_suffix_matches(model._store, model._symbols, self._urls)
        self._node = matches[0][0] if matches else -1
        self._seen = model._mutations

    def advance(self, url: str) -> None:
        """Extend the context by one click, moving to its longest match.

        The cursor keeps no table of its own: each advance steps the
        model's current one, so a cursor never holds an old store
        generation's table (and its memos) alive.
        """
        urls = self._urls
        urls.append(url)
        overflow = len(urls) - self._max_length
        if overflow > 0:
            del urls[:overflow]
        model = self._model
        if self._seen != model._mutations:
            self._resync()
            return
        sym = model._symbols.get(url)
        if sym is None:
            self._node = -1
            return
        table = model._compiled_table()
        node = self._node
        nxt = table.transitions(self._max_length).get(((node + 1) << _KEY_SHIFT) | sym)
        if nxt is None:
            nxt = table.transition(node, sym, self._max_length)
        self._node = nxt

    def matches(self) -> list:
        """Current suffix matches as ``(node, order, path)``, longest first.

        Same shape and value as :func:`compact_suffix_matches` on
        :attr:`context`: the node's suffix-link chain, each with its
        depth and root path.
        """
        node = self.node
        table = self._model._compiled_table()
        return [
            (idx, table.depth(idx), table.path(idx)) for idx in table.chain(node)
        ]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PredictionCursor(context={len(self._urls)}, node={self._node})"
        )
