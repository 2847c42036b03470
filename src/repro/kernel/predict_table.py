"""Compiled prediction tables: predict as an array slice, not a trie walk.

The prediction hot loop — enumerate a matched node's children, divide two
counts, compare against the 0.25 threshold, sort the survivors — repeats
identical work for every click routed through the same node.  This module
moves all of it to build/swap time: one compilation pass flattens a
:class:`~repro.kernel.compact.CompactTrie` into CSR-style numpy arrays so
that at request time a prediction is a row slice and a cursor advance is a
``searchsorted`` probe.

Three array families make up a :class:`PredictTable`:

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
* **Transitions** — every ``(parent, symbol) -> child`` edge packed as
  ``((parent + 1) << KEY_SHIFT) | symbol`` in one sorted key array.
  Roots live in the same array (parent -1 packs to slot 0), so
  :meth:`PredictTable.advance_states` resolves a whole click — every
  active suffix state plus the new single-click root — with one
  vectorised ``searchsorted``, and a buffer-mapped worker never pays the
  O(n) child-dict rebuild the eager path needed per remap.

The table is immutable once compiled and carries the thresholds it was
compiled at; dispatch (:meth:`covers`) falls back to the uncompiled store
walk for any other threshold, so experiment sweeps stay exact.  Row
slices are materialised lazily into tuples of shared frozen
:class:`~repro.core.prediction.Prediction` objects, cached per
``(node, order)`` — repeat visits to hot nodes allocate nothing.

``to_buffer`` / ``from_buffer`` frame the arrays with the same
magic/version/CRC discipline as :mod:`repro.kernel.buffer`, which is how
the table travels inside the shared-memory model segment: the supervisor
compiles once per publish, workers map the arrays zero-copy and never
compile (:data:`COMPILE_COUNT` lets tests assert exactly that).
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from repro import params
from repro.core.prediction import Prediction, clears_threshold
from repro.kernel.compact import KEY_SHIFT, CompactTrie
from repro.kernel.symbols import SymbolTable, string_ranks
from repro.validation import (
    checksum,
    require_checksum,
    require_length,
    require_magic,
    require_version,
)

#: Magic prefix of every serialised prediction table.
TABLE_BUFFER_MAGIC = b"RPPT"

#: Format version written into (and required from) every table buffer.
TABLE_BUFFER_VERSION = 1

# magic, version, crc, reserved, threshold, special threshold,
# node count n, context rows, special rows, flattened linked indices.
_HEADER = struct.Struct("<4sIIIddQQQQ")

#: Table compilations performed by this process.  Serving workers map
#: precompiled tables out of the shared segment, so the counter must not
#: move inside a worker — ``tests/serve`` asserts the delta stays zero.
COMPILE_COUNT = 0


def _as_int64(values) -> np.ndarray:
    """A zero-copy int64 view of an ``array('q')`` or 'q'-cast memoryview."""
    if isinstance(values, memoryview):
        return np.asarray(values)
    return np.frombuffer(values, dtype=np.int64)


class PredictTable:
    """Precompiled candidate rows and transitions for one compact store.

    Instances are immutable value objects over ten numpy arrays (see the
    module docstring for the layout) plus two lazy Python-side caches
    that memoise row slices as tuples of shared frozen ``Prediction``
    objects.  Build with :func:`compile_predict_table`, ship with
    :meth:`to_buffer` / :meth:`from_buffer`.
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
        "trans_keys",
        "trans_child",
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
        trans_keys: np.ndarray,
        trans_child: np.ndarray,
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
        self.trans_keys = trans_keys
        self.trans_child = trans_child
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

    # -- transitions -----------------------------------------------------------

    def _lookup(self, key: int) -> int | None:
        keys = self.trans_keys
        pos = int(np.searchsorted(keys, key))
        if pos < keys.shape[0] and int(keys[pos]) == key:
            return int(self.trans_child[pos])
        return None

    def root_index(self, sym: int) -> int | None:
        """The root node index for a symbol, or None."""
        return self._lookup(sym)

    def child_index(self, parent: int, sym: int) -> int | None:
        """``parent``'s child index for ``sym``, or None."""
        return self._lookup(((parent + 1) << KEY_SHIFT) | sym)

    def advance_states(self, states: list, sym: int) -> list:
        """Extend cursor suffix-match states by one interned click.

        The transition twin of the child-dict walk in
        :meth:`repro.core.base.PPMModel._advance_states`: one vectorised
        ``searchsorted`` resolves every active state, plus the root probe
        for the new single-click suffix.  Returns the advanced
        ``(handle, path)`` states, longest suffix first.
        """
        keys = self.trans_keys
        children = self.trans_child
        size = keys.shape[0]
        advanced = []
        if states:
            probes = [((handle + 1) << KEY_SHIFT) | sym for handle, _ in states]
            positions = np.searchsorted(
                keys, np.asarray(probes, dtype=np.int64)
            ).tolist()
            for (handle, path), probe, pos in zip(states, probes, positions):
                if pos < size and int(keys[pos]) == probe:
                    child = int(children[pos])
                    advanced.append((child, path + [child]))
        root = self._lookup(sym)
        if root is not None:
            advanced.append((root, [root]))
        return advanced

    def match_states(
        self, ids: "Sequence[int | None]"
    ) -> list[tuple[int, list[int]]]:
        """Full-suffix match states for a batch rematch (cursor resync).

        The transition-array twin of
        :func:`repro.core.prediction.compact_suffix_matches`, taking
        already-resolved symbol ids (None for unknown URLs, which cannot
        match).  Longest suffix first.
        """
        states: list[tuple[int, list[int]]] = []
        n = len(ids)
        for start in range(n):
            sym = ids[start]
            if sym is None:
                continue
            idx = self._lookup(sym)
            if idx is None:
                continue
            path = [idx]
            matched = True
            for position in range(start + 1, n):
                nxt_sym = ids[position]
                if nxt_sym is None:
                    matched = False
                    break
                nxt = self._lookup(((idx + 1) << KEY_SHIFT) | nxt_sym)
                if nxt is None:
                    matched = False
                    break
                idx = nxt
                path.append(idx)
            if matched:
                states.append((idx, path))
        return states

    # -- buffer plane ----------------------------------------------------------

    def to_buffer(self) -> bytes:
        """One contiguous CRC-framed buffer holding every array."""
        payload = b"".join(
            np.ascontiguousarray(arr).tobytes()
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
                self.trans_keys,
                self.trans_child,
            )
        )
        header = _HEADER.pack(
            TABLE_BUFFER_MAGIC,
            TABLE_BUFFER_VERSION,
            checksum(payload),
            0,
            self.threshold,
            self.special_threshold,
            self.node_count,
            len(self.ctx_sym),
            len(self.spc_sym),
            len(self.spl_nodes),
        )
        return header + payload

    @classmethod
    def from_buffer(cls, data: "bytes | bytearray | memoryview") -> "PredictTable":
        """Reconstruct a table from :meth:`to_buffer` bytes, zero-copy.

        The arrays are read-only views into ``data`` — when that is a
        shared-memory segment, the worker's table *is* the segment.
        Raises :class:`~repro.errors.ModelError` on a bad magic, version,
        truncation or checksum mismatch.
        """
        view = memoryview(data).toreadonly().cast("B")
        require_length(len(view), _HEADER.size, "predict-table buffer")
        (
            magic,
            version,
            stored_crc,
            _reserved,
            threshold,
            special_threshold,
            n,
            ctx_len,
            spc_len,
            spl_len,
        ) = _HEADER.unpack_from(view)
        require_magic(magic, TABLE_BUFFER_MAGIC, "predict-table buffer")
        require_version(
            version, TABLE_BUFFER_VERSION, "predict-table buffer version"
        )
        sizes = (
            ("ctx_offsets", n + 1, np.int64),
            ("ctx_sym", ctx_len, np.int64),
            ("ctx_prob", ctx_len, np.float64),
            ("ctx_child", ctx_len, np.int64),
            ("spc_offsets", n + 1, np.int64),
            ("spc_sym", spc_len, np.int64),
            ("spc_prob", spc_len, np.float64),
            ("spl_offsets", spc_len + 1, np.int64),
            ("spl_nodes", spl_len, np.int64),
            ("trans_keys", n, np.int64),
            ("trans_child", n, np.int64),
        )
        payload_len = sum(count * 8 for _name, count, _dtype in sizes)
        require_length(
            len(view) - _HEADER.size, payload_len, "predict-table buffer"
        )
        payload = view[_HEADER.size : _HEADER.size + payload_len]
        require_checksum(stored_crc, checksum(payload), "predict-table buffer")
        arrays: dict[str, np.ndarray] = {}
        offset = 0
        for name, count, dtype in sizes:
            arrays[name] = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            )
            offset += count * 8
        return cls(
            threshold=threshold, special_threshold=special_threshold, **arrays
        )

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
                self.trans_keys,
                self.trans_child,
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

    Transitions and context rows are whole-array passes: one argsort of
    the packed edge keys, and one stable lexsort that groups the
    qualifying children by parent and orders each row by
    ``(-probability, url)``.  The URL tie-break ranks symbols in Python
    string order (:func:`~repro.kernel.symbols.string_ranks`), exactly
    as the uncompiled walk compares them.  Only PB-PPM's special rows
    keep a loop, over the roots that carry special links.

    Returns None for a store with garbage slots (left by
    ``delete_child`` / ``delete_root`` and the per-pass prune functions,
    until :meth:`~repro.kernel.compact.CompactTrie.compacted`): its node
    indices would not survive densification, and every path that serves
    predictions — fresh fits, ``prune_dense`` output, buffer mappings —
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

    # Transitions: every edge (roots included, parent -1 packs to slot 0)
    # as one sorted key array for searchsorted probes.
    keys = ((parents + 1) << KEY_SHIFT) | syms
    order = np.argsort(keys, kind="stable")
    trans_keys = keys[order]
    trans_child = order.astype(np.int64)

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
        trans_keys=trans_keys,
        trans_child=trans_child,
    )
