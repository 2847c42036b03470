"""Compiled prediction tables: predict as a row prefix, not a trie walk.

The prediction hot loop — enumerate a matched node's children, divide two
counts, sort them, keep those that clear the threshold — repeats
identical work for every click routed through the same node.  This module
moves the division and the sort to build/swap time: one compilation pass
flattens a :class:`~repro.kernel.compact.CompactTrie` into CSR-style
numpy arrays so that at request time a prediction is a row prefix.

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
one compile per store generation answers every threshold.

**One node per click.**  Every suffix match of a click context is a
suffix of its longest match's root path, so every model's prediction —
PB-PPM's merged levels and special row, the longest row of the
baselines, escape — is a function of that one node.  The table
memoises, lazily, what the per-click step reads:

* each visited node's depth and suffix link (the longest proper suffix
  of its root path that is itself a root path);
* each ``(node, symbol) -> node`` transition clicked, per context bound:
  at most one entry per distinct ``(node, symbol)`` pair clicked; a URL
  the model never saw has no symbol and is never memoised;
* per prediction mode, each node's :class:`NodeCut` — the ``(symbol,
  probability)`` rows the model predicts there and what marking them
  flags used (:meth:`PredictTable.mark`) — for the last threshold
  asked, one cut per node.

A structural change of the store compiles a fresh table, so no memo
outlives its store generation.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.core.prediction import Prediction, clears_threshold
from repro.kernel.compact import KEY_SHIFT, CompactTrie
from repro.kernel.symbols import SymbolTable, string_ranks

#: Table compilations performed by this process; tests use it to assert
#: that a fit or a swap compiles exactly once.
COMPILE_COUNT = 0

#: The node of an empty match (no suffix of the context is a root path).
NO_NODE = -1


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


class NodeCut:
    """One model's prediction at one node, cut at one threshold.

    ``keys`` and ``probs`` are the predicted symbols and their
    probabilities in prediction order (descending probability, ties by
    URL); ``orders`` and ``sources`` complete each entry into a
    :class:`~repro.core.prediction.Prediction` at the API edge
    (:meth:`predictions`).  What a usage-marking prediction flags is kept
    compact and set by :meth:`PredictTable.mark`: the whole root path of
    each node in ``paths``, each node in ``nodes``, and the linked nodes
    of each special-row entry in ``linked``; ``marked`` is the flag
    buffer they were last set in.
    """

    __slots__ = (
        "threshold", "keys", "probs", "orders", "sources", "paths", "nodes",
        "linked", "marked", "_predictions",
    )

    def __init__(
        self,
        threshold: float,
        keys: tuple[int, ...] = (),
        probs: tuple[float, ...] = (),
        orders: tuple[int, ...] = (),
        sources: tuple[str, ...] = (),
        paths: tuple[int, ...] = (),
        nodes: tuple[int, ...] = (),
        linked: tuple[int, ...] = (),
    ) -> None:
        self.threshold = threshold
        self.keys = keys
        self.probs = probs
        self.orders = orders
        self.sources = sources
        self.paths = paths
        self.nodes = nodes
        self.linked = linked
        self.marked: bytearray | None = None
        self._predictions: tuple[Prediction, ...] | None = None

    def predictions(self, url_of: Callable[[int], str]) -> tuple[Prediction, ...]:
        """The cut as frozen ``Prediction`` objects, built once per cut."""
        if self._predictions is None:
            self._predictions = tuple(
                Prediction(
                    url=url_of(key), probability=prob, order=order, source=source
                )
                for key, prob, order, source in zip(
                    self.keys, self.probs, self.orders, self.sources
                )
            )
        return self._predictions

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"NodeCut(threshold={self.threshold}, keys={self.keys})"


class PredictTable:
    """Precompiled candidate rows for one compact store.

    Nine immutable numpy arrays (see the module docstring for the layout)
    plus the lazy per-node memos of the one-node prediction step.  Build
    with :func:`compile_predict_table`.
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
        "_store",
        "_symbols",
        "_depths",
        "_links",
        "_transitions",
        "_cuts",
    )

    def __init__(
        self,
        *,
        store: CompactTrie,
        symbols: SymbolTable,
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
        self._store = store
        self._symbols = symbols
        self._depths: dict[int, int] = {}
        self._links: dict[int, int] = {}
        #: context bound -> {(node + 1) << KEY_SHIFT | symbol: node}
        self._transitions: dict[int, dict[int, int]] = {}
        #: mode -> {node: the node's last cut} (:meth:`predictor`)
        self._cuts: dict[Hashable, dict[int, NodeCut]] = {}

    # -- node geometry -----------------------------------------------------------

    def path(self, node: int) -> list[int]:
        """Node indices from ``node``'s root down to ``node``."""
        parents = self._store.parents
        path = []
        while node != NO_NODE:
            path.append(node)
            node = parents[node]
        path.reverse()
        return path

    def depth(self, node: int) -> int:
        """Length of ``node``'s root path (memoised per node)."""
        depth = self._depths.get(node)
        if depth is None:
            depth = self._depths[node] = len(self.path(node))
        return depth

    def link(self, node: int) -> int:
        """``node``'s suffix link (memoised per node).

        The longest proper suffix of ``node``'s root path that is itself
        a root path, or :data:`NO_NODE`.  Stores that are not
        suffix-closed (PB-PPM's rise-only roots) can skip lengths, so the
        suffixes are matched from the longest down.
        """
        link = self._links.get(node)
        if link is None:
            store = self._store
            roots, children = store.roots, store.children
            syms = [store.syms[idx] for idx in self.path(node)]
            link = NO_NODE
            for start in range(1, len(syms)):
                idx = roots.get(syms[start])
                for sym in syms[start + 1 :]:
                    if idx is None:
                        break
                    idx = children.get((idx << KEY_SHIFT) | sym)
                if idx is not None:
                    link = idx
                    break
            self._links[node] = link
        return link

    def chain(self, node: int) -> list[int]:
        """``node`` and its suffix links, longest first: every suffix match
        of a context whose longest match is ``node``."""
        chain = []
        while node != NO_NODE:
            chain.append(node)
            node = self.link(node)
        return chain

    # -- transitions ------------------------------------------------------------

    def transitions(self, max_length: int) -> dict[int, int]:
        """The memo :meth:`transition` fills for one context bound, keyed
        ``(node + 1) << KEY_SHIFT | symbol``."""
        memo = self._transitions.get(max_length)
        if memo is None:
            memo = self._transitions[max_length] = {}
        return memo

    def transition(self, node: int, sym: int, max_length: int) -> int:
        """The longest match, at most ``max_length`` deep, after ``sym``
        is clicked where ``node`` was the longest match.

        A match of the longer context is a match of the old one extended
        by ``sym``, or ``sym``'s root alone; the old matches are
        ``node``'s chain, so the first chain member (shallower than the
        bound) with a ``sym`` child wins.  Memoised in
        :meth:`transitions`.
        """
        cur = node
        while cur != NO_NODE and self.depth(cur) >= max_length:
            cur = self.link(cur)
        children = self._store.children
        nxt = NO_NODE
        while cur != NO_NODE:
            child = children.get((cur << KEY_SHIFT) | sym)
            if child is not None:
                nxt = child
                break
            cur = self.link(cur)
        else:
            nxt = self._store.roots.get(sym, NO_NODE)
        self.transitions(max_length)[((node + 1) << KEY_SHIFT) | sym] = nxt
        return nxt

    # -- row cuts ---------------------------------------------------------------

    def context_row(
        self, node: int, threshold: float
    ) -> tuple[list[int], list[float], list[int]]:
        """``(symbols, probabilities, child indices)``: the leading
        children of ``node``'s row that clear ``threshold``."""
        lo, hi = self.ctx_offsets[node : node + 2].tolist()
        if lo == hi:
            return [], [], []
        probs = self.ctx_prob[lo:hi].tolist()
        stop = lo + _cut(probs, threshold)
        return (
            self.ctx_sym[lo:stop].tolist(),
            probs[: stop - lo],
            self.ctx_child[lo:stop].tolist(),
        )

    def special_row(
        self, root: int, threshold: float
    ) -> tuple[list[int], list[float], range]:
        """``(symbols, probabilities, entries)``: the leading entries of
        ``root``'s special row that clear ``threshold``, with their entry
        indices (:meth:`linked_nodes` lists the duplicated nodes
        aggregated into one)."""
        lo, hi = self.spc_offsets[root : root + 2].tolist()
        if lo == hi:
            return [], [], range(0)
        probs = self.spc_prob[lo:hi].tolist()
        stop = lo + _cut(probs, threshold)
        return self.spc_sym[lo:stop].tolist(), probs[: stop - lo], range(lo, stop)

    def linked_nodes(self, entry: int) -> list[int]:
        """The linked node indices aggregated into special entry ``entry``."""
        start, stop = self.spl_offsets[entry : entry + 2].tolist()
        return self.spl_nodes[start:stop].tolist()

    def mark(self, cut: NodeCut, flags: bytearray) -> None:
        """Set what ``cut`` predicted from in a store's usage ``flags``.

        Once per buffer: a store only ever clears its flags by replacing
        the buffer (:meth:`~repro.kernel.compact.CompactTrie.reset_used`),
        so a cut already marked in ``flags`` has nothing left to set.
        """
        if cut.marked is flags:
            return
        parents = self._store.parents
        for node in cut.paths:
            while node != NO_NODE:
                flags[node] = 1
                node = parents[node]
        for node in cut.nodes:
            flags[node] = 1
        for entry in cut.linked:
            for node in self.linked_nodes(entry):
                flags[node] = 1
        cut.marked = flags

    # -- per-node prediction steps ----------------------------------------------

    def longest_cut(self, node: int, threshold: float, escape: bool = False) -> NodeCut:
        """The longest-match step (standard PPM, LRS-PPM, Markov-1).

        The longest match predicts its row cut at ``threshold``; its root
        path and the predicted children are marked used.  An empty cut
        predicts nothing — or, with ``escape``, falls back to the next
        shorter match (compression-style PPM escape, an ablation).
        """
        while node != NO_NODE:
            keys, probs, children = self.context_row(node, threshold)
            if keys:
                count = len(keys)
                return NodeCut(
                    threshold,
                    tuple(keys),
                    tuple(probs),
                    (self.depth(node),) * count,
                    ("context",) * count,
                    paths=(node,),
                    nodes=tuple(children),
                )
            if not escape:
                break
            node = self.link(node)
        return NodeCut(threshold)

    def merged_cut(
        self, node: int, threshold: float, special_threshold: float
    ) -> NodeCut:
        """PB-PPM's step: every match's row, plus the special links.

        Each match, longest first, contributes its row cut at
        ``threshold``; a URL keeps the entry of the longest match that
        produced it, and a match that contributed marks its root path and
        contributed children used.  Then the special row of the current
        click's root, cut at ``special_threshold``, adds the URLs not yet
        predicted (order 0), marking the root and the linked nodes
        aggregated into each.  Entries come out sorted by
        ``(-probability, url)``.
        """
        url_of = self._symbols.url
        seen: set[int] = set()
        entries: list[tuple] = []
        paths: list[int] = []
        nodes: list[int] = []
        linked: list[int] = []
        for level in self.chain(node):
            keys, probs, children = self.context_row(level, threshold)
            fresh = [i for i, key in enumerate(keys) if key not in seen]
            if not fresh:
                continue
            order = self.depth(level)
            paths.append(level)
            for i in fresh:
                key = keys[i]
                seen.add(key)
                entries.append(
                    (-probs[i], url_of(key), key, probs[i], order, "context")
                )
                nodes.append(children[i])
        if node != NO_NODE:
            store = self._store
            root = store.roots.get(store.syms[node])
            if root is not None:
                keys, probs, rows = self.special_row(root, special_threshold)
                for key, probability, entry in zip(keys, probs, rows):
                    if key in seen:
                        continue
                    seen.add(key)
                    entries.append(
                        (-probability, url_of(key), key, probability, 0, "special_link")
                    )
                    linked.append(entry)
                if linked:
                    nodes.append(root)
        if not entries:
            return NodeCut(threshold)
        entries.sort()
        _neg, _urls, keys, probs, orders, sources = zip(*entries)
        return NodeCut(
            threshold,
            keys,
            probs,
            orders,
            sources,
            paths=tuple(paths),
            nodes=tuple(nodes),
            linked=tuple(linked),
        )

    def predictor(
        self, mode: Hashable, cut: Callable[[int, float], NodeCut]
    ) -> Callable[[int, float], NodeCut]:
        """The memoised per-node step of one prediction mode.

        The returned ``step(node, threshold)`` answers from the mode's
        memo of the last cut asked per node and calls
        ``cut(node, threshold)`` only on a miss.  Memos are per ``mode``
        (a model's step with its settings, such as
        ``("merged", special_threshold)``), so every step of a mode
        shares one.  The table keeps only the memo, never ``cut``, which
        usually refers back to the table.
        """
        memo = self._cuts.get(mode)
        if memo is None:
            memo = self._cuts[mode] = {}

        def step(node: int, threshold: float) -> NodeCut:
            hit = memo.get(node)
            if hit is None or hit.threshold != threshold:
                hit = memo[node] = cut(node, threshold)
            return hit

        return step

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
    The table keeps ``store`` and ``symbols`` for its per-node memos.
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
        store=store,
        symbols=symbols,
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
