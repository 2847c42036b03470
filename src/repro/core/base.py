"""Shared interface and trie machinery for the three prediction models.

Every model owns a forest of prediction-tree roots, is fitted once on
training sessions, and answers longest-match predictions.  The class also
exposes the bookkeeping the evaluation needs: node counts (the paper's
"space" metric), root-to-leaf paths, and usage marking for the
path-utilisation study of Figure 2.

The forest lives in the compact kernel (:mod:`repro.kernel`): URLs are
interned to dense ids in a :class:`~repro.kernel.symbols.SymbolTable` and
the whole forest is held in one array-backed
:class:`~repro.kernel.compact.CompactTrie`.  :meth:`PPMModel.to_node_forest`
exports it as :class:`~repro.core.node.TrieNode` objects for rendering,
statistics and the JSON document; the export is a copy, so nothing written
to it reaches the model.  ``tests/oracle.py`` keeps the literal Fig. 1
node-forest builders that the differential suites compare against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from repro import params
from repro.core.node import TrieNode
from repro.core.prediction import (
    Prediction,
    PredictionCursor,
    compact_suffix_matches,
)
from repro.errors import NotFittedError
from repro.kernel.bulk import SessionCorpus
from repro.kernel.compact import CompactTrie
from repro.kernel.prune import prune_dense
from repro.kernel.symbols import SymbolTable
from repro.trace.columnar import session_url_ids
from repro.trace.sessions import Session


class PPMModel(ABC):
    """Abstract Markov-prediction-tree model.

    Subclasses implement :meth:`_build`, which fills the fresh compact
    store and symbol table :meth:`fit` hands them.  Everything else —
    prediction, statistics, usage marking — is shared.
    """

    #: Human-readable model name used in reports ("standard", "lrs", "pb").
    name: str = "ppm"

    def __init__(self) -> None:
        self._store = CompactTrie()
        self._symbols = SymbolTable()
        self._fitted = False
        #: Structural-change counter; prediction cursors snapshot it and
        #: resync when it moves.  Bumped by fits, online inserts and
        #: pruning — never by usage marking.
        self._mutations = 0
        #: Compiled prediction table for the store, cached per mutation
        #: generation (``_table_mutations`` records which); any structural
        #: change invalidates it exactly like cursors.
        self._table = None
        self._table_mutations: int | None = None
        #: ``(table, escape, step)``: the :meth:`node_predictor` step
        #: :meth:`_predict_node` last used, kept until the table changes.
        self._step: tuple | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, sessions: Iterable[Session]) -> "PPMModel":
        """Build the prediction tree from training sessions.

        Accepts a session view (:class:`~repro.trace.columnar.SessionView`)
        or a :class:`~repro.trace.columnar.SessionPaths` corpus, read
        through their columns, or any iterable of :class:`Session`
        objects; each becomes one :class:`SessionCorpus`, whose symbol
        table the model keeps.  Refitting replaces the tree.  Returns
        ``self`` so calls chain.
        """
        corpus = SessionCorpus.from_url_ids(*session_url_ids(sessions))
        self._symbols = corpus.symbols
        self._store = CompactTrie()
        self._mutations += 1
        self._build(corpus)
        self._fitted = True
        return self

    @abstractmethod
    def _build(self, corpus: SessionCorpus) -> None:
        """Populate ``self._store`` (and ``self._symbols``, which holds
        the corpus symbols on entry) from the training corpus."""

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

    def prune(
        self, *, cutoff: float | None = None, max_count: int | None = None
    ) -> int:
        """Apply Section 3.4's space optimisations to the fitted tree.

        ``cutoff`` removes non-root nodes whose relative access probability
        falls below it; ``max_count`` removes nodes accessed at most that
        many times (see :func:`repro.kernel.prune.prune_dense`).  Returns
        the number of nodes removed.
        """
        self._require_fitted()
        self._store, removed = prune_dense(
            self._store, cutoff=cutoff, max_count=max_count
        )
        self._mutations += 1
        return removed

    # -- prediction -----------------------------------------------------------

    def _compiled_table(self):
        """The compiled prediction table for the current store generation.

        Threshold-free, so one table answers every prediction; cached
        against the mutation counter, so a model compiles at most once
        per structural generation.
        """
        if self._table_mutations != self._mutations:
            from repro.kernel.predict_table import compile_predict_table

            self._table = compile_predict_table(self._store, self._symbols)
            self._table_mutations = self._mutations
        return self._table

    def node_predictor(self, *, escape: bool = False):
        """This model's per-node prediction step over the current table.

        ``step(node, threshold)`` returns the
        :class:`~repro.kernel.predict_table.NodeCut` a context whose
        longest match is ``node`` (-1 for none) predicts at
        ``threshold``, memoised per node for the last threshold asked.
        The paper's baselines predict the longest match's row;
        ``escape`` enables compression-style PPM fallback to shorter
        matches (an ablation; the paper's models leave it off).  A step
        belongs to one store generation: ask again after a mutation.
        """
        table = self._compiled_table()
        return table.predictor(
            ("longest", escape),
            lambda node, threshold: table.longest_cut(node, threshold, escape),
        )

    def _predict_node(
        self, node: int, threshold: float, mark_used: bool, escape: bool
    ) -> list[Prediction]:
        """The API edge of the per-node step: mark usage, build objects."""
        table = self._compiled_table()
        kept = self._step
        if kept is None or kept[0] is not table or kept[1] != escape:
            kept = self._step = (table, escape, self.node_predictor(escape=escape))
        cut = kept[2](node, threshold)
        if mark_used:
            table.mark(cut, self._store.used)
        return list(cut.predictions(self._symbols.url))

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """Predict the next accesses given the session's URLs so far.

        Finds the longest suffix of ``context`` that is a root path of
        the store, then runs the model's one per-node step
        (:meth:`node_predictor`) there at any ``threshold``.
        ``escape`` enables compression-style PPM fallback to shorter
        contexts (an ablation; the paper's models leave it off).
        """
        self._require_fitted()
        matches = compact_suffix_matches(self._store, self._symbols, context)
        node = matches[0][0] if matches else -1
        return self._predict_node(node, threshold, mark_used, escape)

    # -- incremental prediction ------------------------------------------------

    def prediction_cursor(
        self, max_length: int = params.DEFAULT_MAX_CONTEXT_LENGTH
    ) -> PredictionCursor:
        """A per-client incremental suffix-match cursor over this model."""
        self._require_fitted()
        return PredictionCursor(self, max_length)

    def predict_cursor(
        self,
        cursor: PredictionCursor,
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """Predict from a cursor's longest match.

        Equivalent to ``predict(cursor.context)`` — the same per-node
        step, same predictions, same usage marking — without rematching
        the context.
        """
        self._require_fitted()
        if cursor.model is not self:
            raise ValueError("cursor belongs to a different model")
        return self._predict_node(cursor.node, threshold, mark_used, escape)

    # -- tree access and statistics ------------------------------------------

    def to_node_forest(self) -> dict[str, TrieNode]:
        """The forest exported as :class:`TrieNode` roots, keyed by URL.

        A fresh copy on every call (serialisation and rendering use it):
        counts, usage flags and special links as they are now, with no
        path back into the model.
        """
        return self._store.to_node_forest(self._symbols)

    @property
    def roots(self) -> dict[str, TrieNode]:
        """The root nodes of the prediction tree, keyed by URL.

        A read-only :meth:`to_node_forest` view: writing through it no
        longer changes the model.
        """
        return self.to_node_forest()

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def iter_nodes(self) -> Iterator[TrieNode]:
        """Every node of the forest, pre-order, deterministic.

        Walks a read-only :meth:`to_node_forest` view: writing to the
        nodes no longer changes the model.
        """
        roots = self.to_node_forest()
        for url in sorted(roots):
            yield from roots[url].walk()

    @property
    def node_count(self) -> int:
        """Number of stored URL nodes — the paper's space metric."""
        return self._store.node_count

    def reset_usage(self) -> None:
        """Clear every node's used flag (before a fresh replay)."""
        self._store.reset_used()

    def path_utilization(self) -> float:
        """Fraction of root-to-leaf paths used for predictions (Figure 2)."""
        total, used = self._store.path_stats()
        return used / total if total else 0.0

    def collect_used_paths(self) -> list[tuple[str, ...]]:
        """Root URL paths of every node marked used, sorted."""
        return self._store.collect_used_paths(self._symbols)

    def mark_used_paths(self, paths: Sequence[tuple[str, ...]]) -> None:
        """Set the used flag on the nodes named by root URL paths."""
        self._store.mark_used_paths(self._symbols, paths)

    def insert_path(self, urls: Sequence[str], *, weight: int = 1) -> None:
        """Insert a URL path from the root level, bumping counts by weight."""
        if not urls:
            return
        self._mutations += 1
        self._store.insert_path(self._symbols.intern_sequence(urls), weight)

    def lookup(self, urls: Sequence[str]) -> TrieNode | None:
        """Return the node at the end of a root path, or None.

        The node belongs to a read-only :meth:`to_node_forest` view:
        writing to it no longer changes the model.
        """
        if not urls:
            return None
        node = self.to_node_forest().get(urls[0])
        for url in urls[1:]:
            if node is None:
                return None
            node = node.child(url)
        return node

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        if not self._fitted:
            return f"{type(self).__name__}(unfitted)"
        return f"{type(self).__name__}(nodes={self.node_count})"
