"""Section 3.4's space optimisations over the array-backed store.

1. **Relative-probability cut** — examine each non-root node; if its
   relative access probability (its count over its parent's count) is lower
   than a cut-off (5-10 % in the paper's experiments), remove the node and
   the branches linked under it.
2. **Absolute-count cut** — remove each node whose absolute number of
   accesses is at most one (applied for some traces, e.g. UCB-CS).

:func:`prune_dense` runs both passes as one vectorised rebuild into a new
dense store, dropping PB-PPM special links into removed subtrees so the
tree never dangles; model fits and :meth:`repro.core.base.PPMModel.prune`
use it.  ``tests/oracle.py`` keeps the literal node-forest passes it is
checked against.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.bulk import _byte_view
from repro.kernel.compact import KEY_SHIFT, CompactTrie


def prune_dense(
    store: CompactTrie,
    *,
    cutoff: float | None = None,
    max_count: int | None = None,
) -> tuple[CompactTrie, int]:
    """Both space-optimisation passes fused into one vectorised rebuild.

    ``cutoff`` removes each non-root node whose relative access
    probability (count over parent count; 0.0 under a zero-count parent)
    is strictly below it; ``max_count`` removes each node accessed at most
    that many times.  Either may be None to skip its pass.  A node goes
    when it fails either test or any ancestor does, so the fused mask
    removes the node set the two sequential passes would.  Returns
    ``(new dense store, removed node count)``; the input is unmodified.
    """
    if cutoff is not None and not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be within [0, 1]: {cutoff}")
    if max_count is not None and max_count < 0:
        raise ValueError(f"max_count must be >= 0: {max_count}")
    total = len(store.syms)
    if not total or (cutoff is None and max_count is None):
        return store, 0
    syms = np.frombuffer(store.syms, dtype=np.int64)
    counts = np.frombuffer(store.counts, dtype=np.int64)
    parents = np.frombuffer(store.parents, dtype=np.int64)
    is_child = parents >= 0
    parent_or_zero = np.where(is_child, parents, 0)
    fail = np.zeros(total, dtype=bool)
    if cutoff is not None:
        parent_counts = counts[parent_or_zero]
        probability = np.where(
            parent_counts > 0, counts / np.maximum(parent_counts, 1), 0.0
        )
        fail |= is_child & (probability < cutoff)
    if max_count is not None:
        fail |= counts <= max_count
    # A removed node takes its subtree: spread the mask one level per
    # round (parents always precede children, rounds = removal depth).
    removed = fail
    while True:
        spread = removed | (is_child & removed[parent_or_zero])
        if int(spread.sum()) == int(removed.sum()):
            break
        removed = spread
    removed_total = int(removed.sum())
    if not removed_total:
        return store, 0
    keep = ~removed
    remap = np.cumsum(keep) - 1
    kept = np.nonzero(keep)[0]
    new_syms = syms[kept]
    new_counts = counts[kept]
    new_parents = np.where(
        parents[kept] >= 0, remap[np.maximum(parents[kept], 0)], -1
    )
    kept_count = len(kept)
    first = np.full(kept_count, -1, dtype=np.int64)
    nxt = np.full(kept_count, -1, dtype=np.int64)
    dense = CompactTrie()
    order = np.lexsort((np.arange(kept_count), new_parents))
    child_rows = order[new_parents[order] >= 0]
    if child_rows.size:
        grouped_parents = new_parents[child_rows]
        same = grouped_parents[:-1] == grouped_parents[1:]
        nxt[child_rows[:-1][same]] = child_rows[1:][same]
        head = np.empty(len(child_rows), dtype=bool)
        head[0] = True
        head[1:] = ~same
        first[grouped_parents[head]] = child_rows[head]
        keys = (grouped_parents << KEY_SHIFT) | new_syms[child_rows]
        dense.children = dict(zip(keys.tolist(), child_rows.tolist()))
    dense.syms.frombytes(_byte_view(new_syms))
    dense.counts.frombytes(_byte_view(new_counts))
    dense.parents.frombytes(_byte_view(new_parents))
    dense.first_child.frombytes(_byte_view(first))
    dense.next_sibling.frombytes(_byte_view(nxt))
    dense.used = bytearray(
        memoryview(np.frombuffer(bytes(store.used), dtype=np.uint8)[kept])
    )
    for sym, idx in store.roots.items():
        if keep[idx]:
            dense.roots[sym] = int(remap[idx])
    for root_idx, links in store.special_links.items():
        if keep[root_idx]:
            mapped = [int(remap[i]) for i in links if keep[i]]
            if mapped:
                dense.special_links[int(remap[root_idx])] = mapped
    return dense, removed_total
