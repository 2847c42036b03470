"""Compiled prediction tables: predict as an array slice, not a trie walk.

The prediction hot loop — enumerate a matched node's children, divide two
counts, compare against the 0.25 threshold, sort the survivors — repeats
identical work for every click routed through the same node.  This module
moves all of it to build/swap time: one compilation pass flattens a
:class:`~repro.kernel.compact.CompactTrie` into CSR-style numpy arrays so
that at request time a prediction is a row slice.  Suffix matching stays
on the store's packed child map.

Two array families make up a :class:`PredictTable`:

* **Context rows** — per node, the children that clear the prediction
  threshold, already sorted by ``(-probability, url)``: ``ctx_offsets``
  (CSR offsets, one slot per node), ``ctx_sym`` / ``ctx_prob`` /
  ``ctx_child`` (predicted symbol, conditional probability, child node
  index for usage marking).  A row slice *is* the prediction — no
  per-call threshold check, division or sort.
* **Special rows** — PB-PPM's rule-3 predictions per root: per-URL
  aggregated link counts gated by the special-link threshold, with the
  linked node indices kept per row (``spl_offsets`` / ``spl_nodes``) so
  usage marking stays exact.

The table is immutable once compiled and carries the thresholds it was
compiled at; dispatch (:meth:`covers`) falls back to the uncompiled store
walk for any other threshold, so experiment sweeps stay exact.  Row
slices are materialised lazily into tuples of shared frozen
:class:`~repro.core.prediction.Prediction` objects, cached per
``(node, order)`` — repeat visits to hot nodes allocate nothing.
"""

from __future__ import annotations

import numpy as np

from repro import params
from repro.core.prediction import Prediction, clears_threshold
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import SymbolTable, string_ranks

#: Table compilations performed by this process; tests use it to assert
#: that a fit or a swap compiles exactly once.
COMPILE_COUNT = 0


def _as_int64(values) -> np.ndarray:
    """A zero-copy int64 view of an ``array('q')``."""
    return np.frombuffer(values, dtype=np.int64)


class PredictTable:
    """Precompiled candidate rows for one compact store.

    Instances are immutable value objects over nine numpy arrays (see the
    module docstring for the layout) plus two lazy Python-side caches
    that memoise row slices as tuples of shared frozen ``Prediction``
    objects.  Build with :func:`compile_predict_table`.
    """

    __slots__ = (
        "threshold",
        "special_threshold",
        "node_count",
        "ctx_offsets",
        "ctx_sym",
        "ctx_prob",
        "ctx_child",
        "spc_offsets",
        "spc_sym",
        "spc_prob",
        "spl_offsets",
        "spl_nodes",
        "_row_cache",
        "_special_cache",
    )

    def __init__(
        self,
        *,
        threshold: float,
        special_threshold: float,
        ctx_offsets: np.ndarray,
        ctx_sym: np.ndarray,
        ctx_prob: np.ndarray,
        ctx_child: np.ndarray,
        spc_offsets: np.ndarray,
        spc_sym: np.ndarray,
        spc_prob: np.ndarray,
        spl_offsets: np.ndarray,
        spl_nodes: np.ndarray,
    ) -> None:
        self.threshold = float(threshold)
        self.special_threshold = float(special_threshold)
        self.node_count = len(ctx_offsets) - 1
        self.ctx_offsets = ctx_offsets
        self.ctx_sym = ctx_sym
        self.ctx_prob = ctx_prob
        self.ctx_child = ctx_child
        self.spc_offsets = spc_offsets
        self.spc_sym = spc_sym
        self.spc_prob = spc_prob
        self.spl_offsets = spl_offsets
        self.spl_nodes = spl_nodes
        self._row_cache: dict[tuple[int, int], tuple] = {}
        self._special_cache: dict[int, tuple] = {}

    # -- dispatch --------------------------------------------------------------

    def covers(self, threshold: float) -> bool:
        """Whether the table answers predictions at ``threshold``.

        Rows were filtered at compile time, so only the exact compiled
        threshold is answerable; any other value (an ablation sweep, a
        per-request override) must use the uncompiled store walk.
        """
        return threshold == self.threshold

    # -- row access ------------------------------------------------------------

    def context_row(
        self, idx: int, order: int, url_of
    ) -> tuple[tuple[Prediction, ...], tuple[int, ...]]:
        """``(predictions, child indices)`` for a matched node.

        Predictions arrive sorted by ``(-probability, url)`` with
        ``order`` already set; the parallel child-index tuple feeds usage
        marking.  The tuple of frozen ``Prediction`` objects is cached
        and shared across calls.
        """
        key = (idx, order)
        row = self._row_cache.get(key)
        if row is None:
            lo = int(self.ctx_offsets[idx])
            hi = int(self.ctx_offsets[idx + 1])
            if lo == hi:
                row = ((), ())
            else:
                probs = self.ctx_prob[lo:hi].tolist()
                syms = self.ctx_sym[lo:hi].tolist()
                row = (
                    tuple(
                        Prediction(
                            url=url_of(sym), probability=prob, order=order
                        )
                        for sym, prob in zip(syms, probs)
                    ),
                    tuple(self.ctx_child[lo:hi].tolist()),
                )
            self._row_cache[key] = row
        return row

    def special_row(
        self, root: int, url_of
    ) -> tuple[tuple[Prediction, ...], tuple[tuple[int, ...], ...]]:
        """``(predictions, linked index groups)`` for a root's special links.

        One prediction per linked URL that cleared the special-link
        threshold (order 0, source ``"special_link"``); the parallel
        groups carry the duplicated nodes aggregated into each row, for
        usage marking.
        """
        row = self._special_cache.get(root)
        if row is None:
            lo = int(self.spc_offsets[root])
            hi = int(self.spc_offsets[root + 1])
            if lo == hi:
                row = ((), ())
            else:
                probs = self.spc_prob[lo:hi].tolist()
                syms = self.spc_sym[lo:hi].tolist()
                bounds = self.spl_offsets[lo : hi + 1].tolist()
                row = (
                    tuple(
                        Prediction(
                            url=url_of(sym),
                            probability=prob,
                            order=0,
                            source="special_link",
                        )
                        for sym, prob in zip(syms, probs)
                    ),
                    tuple(
                        tuple(self.spl_nodes[start:stop].tolist())
                        for start, stop in zip(bounds, bounds[1:])
                    ),
                )
            self._special_cache[root] = row
        return row

    def storage_bytes(self) -> int:
        """Bytes held by the table's arrays (diagnostics)."""
        return sum(
            arr.nbytes
            for arr in (
                self.ctx_offsets,
                self.ctx_sym,
                self.ctx_prob,
                self.ctx_child,
                self.spc_offsets,
                self.spc_sym,
                self.spc_prob,
                self.spl_offsets,
                self.spl_nodes,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PredictTable(nodes={self.node_count}, "
            f"rows={len(self.ctx_sym)}, special={len(self.spc_sym)}, "
            f"threshold={self.threshold})"
        )


def compile_predict_table(
    store: CompactTrie,
    symbols: "SymbolTable",
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    special_threshold: float = params.SPECIAL_LINK_THRESHOLD,
) -> PredictTable | None:
    """Flatten a compact store into a :class:`PredictTable`.

    Context rows are one whole-array pass: a stable lexsort that groups
    the qualifying children by parent and orders each row by
    ``(-probability, url)``.  The URL tie-break ranks symbols in Python
    string order (:func:`~repro.kernel.symbols.string_ranks`), exactly
    as the uncompiled walk compares them.  Only PB-PPM's special rows
    keep a loop, over the roots that carry special links.

    Returns None for a store with garbage slots (left by
    ``delete_child`` / ``delete_root`` and the per-pass prune functions,
    until :meth:`~repro.kernel.compact.CompactTrie.compacted`): its node
    indices would not survive densification, and every path that serves
    predictions — fresh fits, ``prune_dense`` output, snapshot loads —
    is dense already.
    """
    n = len(store.syms)
    if n != store.node_count:
        return None
    global COMPILE_COUNT
    COMPILE_COUNT += 1
    url_of = symbols.url
    syms = _as_int64(store.syms)
    counts = _as_int64(store.counts)
    parents = _as_int64(store.parents)

    # Context rows: the qualifying children, grouped per parent and
    # ordered by (-probability, url) in one stable lexsort.  The division
    # below is the same int64 / int64 -> float64 the uncompiled path
    # performs per request, so probabilities are bit-identical.
    non_root = parents >= 0
    parent_idx = np.where(non_root, parents, 0)
    parent_counts = counts[parent_idx]
    probs = np.zeros(n, dtype=np.float64)
    np.divide(counts, parent_counts, out=probs, where=parent_counts > 0)
    qualify = (
        non_root
        & (parent_counts > 0)
        & (probs + params.PROBABILITY_EPSILON >= threshold)
    )
    cand = np.nonzero(qualify)[0]
    url_rank = string_ranks(symbols.urls())
    ctx_child = cand[
        np.lexsort((url_rank[syms[cand]], -probs[cand], parents[cand]))
    ]
    ctx_sym = syms[ctx_child]
    ctx_prob = probs[ctx_child]
    ctx_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parents[cand], minlength=n), out=ctx_offsets[1:])

    # Special rows: PB-PPM's per-root linked predictions, aggregated by
    # URL, gated by the special-link threshold, with the contributing
    # node indices kept per row for usage marking.
    counts_list = counts.tolist()
    syms_list = syms.tolist()
    spc_row_counts = np.zeros(n, dtype=np.int64)
    spc_sym_list: list[int] = []
    spc_prob_list: list[float] = []
    spl_offsets_list: list[int] = [0]
    spl_nodes_list: list[int] = []
    for root in sorted(store.special_links):
        total = counts_list[root]
        if total <= 0:
            continue
        aggregated: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        for linked in store.special_links[root]:
            sym = syms_list[linked]
            aggregated[sym] = aggregated.get(sym, 0) + counts_list[linked]
            groups.setdefault(sym, []).append(linked)
        entries = []
        for sym, aggregate in aggregated.items():
            probability = min(1.0, aggregate / total)
            if clears_threshold(probability, special_threshold):
                entries.append((probability, sym))
        if not entries:
            continue
        entries.sort(key=lambda e: (-e[0], url_of(e[1])))
        spc_row_counts[root] = len(entries)
        for probability, sym in entries:
            spc_sym_list.append(sym)
            spc_prob_list.append(probability)
            spl_nodes_list.extend(groups[sym])
            spl_offsets_list.append(len(spl_nodes_list))
    spc_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(spc_row_counts, out=spc_offsets[1:])

    return PredictTable(
        threshold=threshold,
        special_threshold=special_threshold,
        ctx_offsets=ctx_offsets,
        ctx_sym=ctx_sym,
        ctx_prob=ctx_prob,
        ctx_child=ctx_child,
        spc_offsets=spc_offsets,
        spc_sym=np.asarray(spc_sym_list, dtype=np.int64),
        spc_prob=np.asarray(spc_prob_list, dtype=np.float64),
        spl_offsets=np.asarray(spl_offsets_list, dtype=np.int64),
        spl_nodes=np.asarray(spl_nodes_list, dtype=np.int64),
    )
