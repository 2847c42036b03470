"""Compiled prediction tables: predict as a row prefix, not a trie walk.

The prediction hot loop — enumerate a matched node's children, divide two
counts, sort them, keep those that clear the threshold — repeats
identical work for every click routed through the same node.  This module
moves the division and the sort to build/swap time: one compilation pass
flattens a :class:`~repro.kernel.compact.CompactTrie` into CSR-style
numpy arrays so that at request time a prediction is a row prefix.
Suffix matching stays on the store's packed child map.

Two array families make up a :class:`PredictTable`:

* **Context rows** — per node, every child (when the node's count is
  above 0), sorted by ``(-probability, url)``: ``ctx_offsets`` (CSR
  offsets, one slot per node), ``ctx_sym`` / ``ctx_prob`` /
  ``ctx_child`` (predicted symbol, conditional probability, child node
  index for usage marking).
* **Special rows** — PB-PPM's rule-3 predictions per root (when the
  root's count is above 0): per-URL aggregated link counts in the same
  order, with the linked node indices kept per row (``spl_offsets`` /
  ``spl_nodes``) so usage marking stays exact.

The table holds no threshold.  Rows are sorted by descending probability
and :func:`~repro.core.prediction.clears_threshold` is monotone in it, so
the entries that clear any threshold ``t`` are a row's leading entries:
one compile per store generation answers every threshold.  Cut rows are
materialised lazily into tuples of shared frozen
:class:`~repro.core.prediction.Prediction` objects, memoised per node for
the last threshold asked — repeat visits to hot nodes allocate nothing,
and the memo never holds more than one cut per node.
"""

from __future__ import annotations

import numpy as np

from repro.core.prediction import Prediction, clears_threshold
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import SymbolTable, string_ranks

#: Table compilations performed by this process; tests use it to assert
#: that a fit or a swap compiles exactly once.
COMPILE_COUNT = 0


def _as_int64(values) -> np.ndarray:
    """A zero-copy int64 view of an ``array('q')``."""
    return np.frombuffer(values, dtype=np.int64)


def _cut(probs: list[float], threshold: float) -> int:
    """Length of the leading run of a row's ``probs`` that clears ``threshold``.

    Rows are sorted by descending probability and
    :func:`~repro.core.prediction.clears_threshold` is monotone in it, so
    the entries that qualify are exactly this prefix.
    """
    cut = 0
    for probability in probs:
        if not clears_threshold(probability, threshold):
            break
        cut += 1
    return cut


class PredictTable:
    """Precompiled candidate rows for one compact store.

    Instances are immutable value objects over nine numpy arrays (see the
    module docstring for the layout) plus two lazy Python-side memos
    that hold each node's last cut row as a tuple of shared frozen
    ``Prediction`` objects.  Build with :func:`compile_predict_table`.
    """

    __slots__ = (
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
        #: node -> (threshold, order, row) and root -> (threshold, row):
        #: one memoised cut per node, replaced when another is asked.
        self._row_cache: dict[int, tuple] = {}
        self._special_cache: dict[int, tuple] = {}

    # -- row access ------------------------------------------------------------

    def context_row(
        self, idx: int, order: int, threshold: float, url_of
    ) -> tuple[tuple[Prediction, ...], tuple[int, ...]]:
        """``(predictions, child indices)`` of a matched node at ``threshold``.

        The row's leading children that clear ``threshold``, sorted by
        ``(-probability, url)`` with ``order`` already set; the parallel
        child-index tuple feeds usage marking.  The cut is memoised per
        node for the last ``(threshold, order)`` asked.
        """
        memo = self._row_cache.get(idx)
        if memo is not None and memo[0] == threshold and memo[1] == order:
            return memo[2]
        lo, hi = self.ctx_offsets[idx : idx + 2].tolist()
        probs = self.ctx_prob[lo:hi].tolist()
        stop = lo + _cut(probs, threshold)
        if stop == lo:
            row = ((), ())
        else:
            syms = self.ctx_sym[lo:stop].tolist()
            row = (
                tuple(
                    Prediction(url=url_of(sym), probability=prob, order=order)
                    for sym, prob in zip(syms, probs)
                ),
                tuple(self.ctx_child[lo:stop].tolist()),
            )
        self._row_cache[idx] = (threshold, order, row)
        return row

    def special_row(
        self, root: int, threshold: float, url_of
    ) -> tuple[tuple[Prediction, ...], tuple[tuple[int, ...], ...]]:
        """``(predictions, linked index groups)`` of a root at ``threshold``.

        One prediction per linked URL among the row's leading entries
        that clear the special-link ``threshold`` (order 0, source
        ``"special_link"``); the parallel groups carry the duplicated
        nodes aggregated into each entry, for usage marking.  Memoised
        per root for the last threshold asked.
        """
        memo = self._special_cache.get(root)
        if memo is not None and memo[0] == threshold:
            return memo[1]
        lo, hi = self.spc_offsets[root : root + 2].tolist()
        probs = self.spc_prob[lo:hi].tolist()
        stop = lo + _cut(probs, threshold)
        if stop == lo:
            row = ((), ())
        else:
            syms = self.spc_sym[lo:stop].tolist()
            bounds = self.spl_offsets[lo : stop + 1].tolist()
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
                    tuple(self.spl_nodes[start:end].tolist())
                    for start, end in zip(bounds, bounds[1:])
                ),
            )
        self._special_cache[root] = (threshold, row)
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
            f"rows={len(self.ctx_sym)}, special={len(self.spc_sym)})"
        )


def compile_predict_table(store: CompactTrie, symbols: "SymbolTable") -> PredictTable:
    """Flatten a compact store into a :class:`PredictTable`.

    Context rows are one whole-array pass: a stable lexsort that groups
    every child of a parent whose count is above 0 by parent and orders
    each row by ``(-probability, url)``.  The URL tie-break ranks symbols
    in Python string order (:func:`~repro.kernel.symbols.string_ranks`).
    Only PB-PPM's special rows keep a loop, over the roots that carry
    special links.  No threshold filters a row: predictions cut it
    (:meth:`PredictTable.context_row`), so one table serves them all.
    """
    global COMPILE_COUNT
    COMPILE_COUNT += 1
    n = len(store.syms)
    url_of = symbols.url
    syms = _as_int64(store.syms)
    counts = _as_int64(store.counts)
    parents = _as_int64(store.parents)

    # Context rows: every child of a counted parent, grouped per parent
    # and ordered by (-probability, url) in one stable lexsort.  The
    # division is int64 / int64 -> float64, bit-identical to the
    # per-request division of the node-forest oracle.
    non_root = parents >= 0
    parent_idx = np.where(non_root, parents, 0)
    parent_counts = counts[parent_idx]
    probs = np.zeros(n, dtype=np.float64)
    np.divide(counts, parent_counts, out=probs, where=parent_counts > 0)
    cand = np.nonzero(non_root & (parent_counts > 0))[0]
    url_rank = string_ranks(symbols.urls())
    ctx_child = cand[
        np.lexsort((url_rank[syms[cand]], -probs[cand], parents[cand]))
    ]
    ctx_sym = syms[ctx_child]
    ctx_prob = probs[ctx_child]
    ctx_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parents[cand], minlength=n), out=ctx_offsets[1:])

    # Special rows: PB-PPM's per-root linked predictions, aggregated by
    # URL, with the contributing node indices kept per row for usage
    # marking.
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
        entries = [
            (min(1.0, aggregate / total), sym)
            for sym, aggregate in aggregated.items()
        ]
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
