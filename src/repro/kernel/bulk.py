"""Vectorised bulk construction of compact prediction tries.

The build loops of the PPM family reduce to *n-gram counting*:

* Standard PPM inserts, for every start position of every session, the
  window capped at ``max_height`` — its trie holds every n-gram of
  length <= ``max_height`` together with its occurrence count.
* LRS-PPM's Apriori level build keeps exactly the n-grams occurring at
  least ``min_repeats`` times: an n-gram's count is monotone
  non-increasing under extension (every occurrence of an extension
  contains an occurrence of the prefix), so the level-wise pruning
  equals a plain per-level count filter.
* The first-order Markov baseline is the ``max_height=2`` special case.
* PB-PPM opens windows only at rule-4 root positions with grade-scaled
  stops, and wires rule-3 special links along the way.

This module builds those tries level-by-level with numpy.  All windows
advance one symbol per level; ``np.unique`` over packed
``(parent index << 32) | symbol`` keys discovers the distinct trie nodes
of the level (the packed values double as the store's child-map keys),
and the per-node arrays of :class:`CompactTrie` are filled in bulk via
``frombytes``.  Python-level work is proportional to the number of
*distinct* trie nodes, never to the number of clicks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.kernel.compact import KEY_SHIFT, CompactTrie
from repro.kernel.symbols import SymbolTable

_SYM_MASK = (1 << KEY_SHIFT) - 1
#: Packed keys leave 63 - KEY_SHIFT bits for the parent node index.
_MAX_NODES = 1 << (63 - KEY_SHIFT)


def dedup_sequences(
    sequences: "Sequence[Hashable]",
) -> "tuple[list, np.ndarray | None]":
    """Collapse duplicate sequences into ``(uniques, multiplicities)``.

    Training corpora repeat whole sessions; counting each distinct
    sequence once with a weight shrinks every downstream window array.
    First-seen order is preserved (PB-PPM's special-link creation order
    depends on it) and ``multiplicities`` is None when nothing repeats.
    """
    counter = Counter(sequences)
    if len(counter) == len(sequences):
        return list(counter), None
    weights = np.fromiter(counter.values(), dtype=np.int64, count=len(counter))
    return list(counter), weights


@dataclass(frozen=True)
class SessionCorpus:
    """Training sessions in the one form every model build reads.

    ``ids`` is the symbol id of every click, session after session, and
    ``lengths`` the clicks per session.  Symbols are numbered in
    first-seen order over those clicks, the order that interning each
    session's URLs in turn gives.  ``sequences`` are the distinct id
    sequences (int64 arrays) in first-seen order with their ``weights``,
    as :func:`dedup_sequences` returns them.
    """

    symbols: SymbolTable
    ids: np.ndarray
    lengths: np.ndarray
    sequences: list
    weights: "np.ndarray | None"

    @classmethod
    def from_url_ids(
        cls, url_ids: np.ndarray, lengths: np.ndarray, url_table: Sequence[str]
    ) -> "SessionCorpus":
        """Renumber URL ids (indices into ``url_table``, session after
        session) to first-seen symbols and deduplicate the sessions."""
        symbols = SymbolTable()
        ids = symbols.intern_ids(url_ids, url_table)
        # Sessions deduplicate on their id bytes: no Python int per click.
        raw = ids.tobytes()
        ends = (np.cumsum(lengths) * ids.itemsize).tolist()
        unique, weights = dedup_sequences(
            [raw[a:b] for a, b in zip([0] + ends[:-1], ends)]
        )
        sequences = [np.frombuffer(key, dtype=np.int64) for key in unique]
        return cls(
            symbols=symbols,
            ids=ids,
            lengths=lengths,
            sequences=sequences,
            weights=weights,
        )


def symbol_grades(symbols, grade_of) -> np.ndarray:
    """Popularity grade per symbol id, as a flat array (PB rule input)."""
    return np.fromiter(
        (grade_of(url) for url in symbols.urls()),
        dtype=np.int64,
        count=len(symbols),
    )


def _flatten(sequences) -> "tuple[np.ndarray, np.ndarray]":
    """Concatenate id sequences into one flat array plus their lengths."""
    lens = np.fromiter(
        (len(seq) for seq in sequences), dtype=np.int64, count=len(sequences)
    )
    flat = np.empty(int(lens.sum()), dtype=np.int64)
    pos = 0
    for seq in sequences:
        flat[pos : pos + len(seq)] = seq
        pos += len(seq)
    return flat, lens


def _byte_view(values: np.ndarray) -> memoryview:
    """A zero-copy byte view for ``array.frombytes`` bulk loads."""
    return memoryview(np.ascontiguousarray(values)).cast("B")


def _unique_counts(keys, weights):
    uniq, inv = np.unique(keys, return_inverse=True)
    if weights is None:
        cnt = np.bincount(inv, minlength=len(uniq))
    else:
        cnt = np.bincount(inv, weights=weights, minlength=len(uniq)).astype(
            np.int64
        )
    return uniq, inv, cnt


def _grow_trie(
    store: CompactTrie,
    flat: np.ndarray,
    win_pos: np.ndarray,
    win_stop: np.ndarray,
    win_weight: "np.ndarray | None",
    min_count: int,
    grades: "np.ndarray | None" = None,
    max_grade: int = 0,
) -> None:
    """Fill the empty ``store`` from windows ``flat[p:stop]``, one level at
    a time, optionally collecting PB special links along the way."""
    level_syms: list[np.ndarray] = []
    level_counts: list[np.ndarray] = []
    level_parents: list[np.ndarray] = []
    level_first: list[np.ndarray] = []
    level_next: list[np.ndarray] = []
    child_items: list[tuple[np.ndarray, np.ndarray]] = []
    bases: list[int] = []
    link_pos: list[np.ndarray] = []
    link_root: list[np.ndarray] = []
    link_tgt: list[np.ndarray] = []
    link_depth: list[np.ndarray] = []
    collect = grades is not None
    win_root = head_grade = gid = None
    base = 0
    depth = 1
    while win_pos.size:
        offset = depth - 1
        if depth > 1:
            alive = win_pos + offset < win_stop
            if not alive.all():
                win_pos = win_pos[alive]
                win_stop = win_stop[alive]
                gid = gid[alive]
                if win_weight is not None:
                    win_weight = win_weight[alive]
                if collect:
                    win_root = win_root[alive]
                    head_grade = head_grade[alive]
                if not win_pos.size:
                    break
        syms = flat[win_pos + offset]
        keys = syms if depth == 1 else (gid << KEY_SHIFT) | syms
        uniq, inv, cnt = _unique_counts(keys, win_weight)
        if min_count > 1:
            keep = cnt >= min_count
            if not keep.all():
                slot = (np.cumsum(keep) - 1)[inv]
                alive = keep[inv]
                uniq = uniq[keep]
                cnt = cnt[keep]
                win_pos = win_pos[alive]
                win_stop = win_stop[alive]
                inv = slot[alive]
                if win_weight is not None:
                    win_weight = win_weight[alive]
                if collect:
                    win_root = win_root[alive]
                    head_grade = head_grade[alive]
            if not uniq.size:
                break
        k = len(uniq)
        if base + k > _MAX_NODES:  # pragma: no cover - 2**31 nodes
            raise OverflowError("trie exceeds the packed child-key capacity")
        node_idx = base + np.arange(k, dtype=np.int64)
        gid = node_idx[inv]
        if depth == 1:
            level_syms.append(uniq)
            level_parents.append(np.full(k, -1, dtype=np.int64))
            level_next.append(np.full(k, -1, dtype=np.int64))
            store.roots = dict(zip(uniq.tolist(), node_idx.tolist()))
            if collect:
                win_root = gid.copy()
                head_grade = grades[flat[win_pos]]
        else:
            parents = uniq >> KEY_SHIFT
            level_syms.append(uniq & _SYM_MASK)
            level_parents.append(parents)
            # np.unique sorted by (parent, symbol): each parent's children
            # are one contiguous run — chain the run and point the parent
            # (previous level, still a plain numpy array) at its start.
            nxt = np.full(k, -1, dtype=np.int64)
            is_first = np.empty(k, dtype=bool)
            is_first[0] = True
            if k > 1:
                same = parents[:-1] == parents[1:]
                nxt[:-1][same] = node_idx[1:][same]
                is_first[1:] = ~same
            level_next.append(nxt)
            level_first[-1][parents[is_first] - bases[-1]] = node_idx[is_first]
            child_items.append((uniq, node_idx))
            if collect and offset >= 2:  # rule 3: not right after the head
                g = grades[syms] if min_count <= 1 else grades[flat[win_pos + offset]]
                hit = (g > head_grade) | (g == max_grade)
                if hit.any():
                    link_pos.append(win_pos[hit])
                    link_root.append(win_root[hit])
                    link_tgt.append(gid[hit])
                    link_depth.append(
                        np.full(int(hit.sum()), depth, dtype=np.int64)
                    )
        level_counts.append(cnt)
        level_first.append(np.full(k, -1, dtype=np.int64))
        bases.append(base)
        base += k
        depth += 1
    if not base:
        return
    for target, chunks in (
        (store.syms, level_syms),
        (store.counts, level_counts),
        (store.parents, level_parents),
        (store.first_child, level_first),
        (store.next_sibling, level_next),
    ):
        merged = np.concatenate(chunks)
        chunks.clear()  # free the per-level copies before the next column
        target.frombytes(_byte_view(merged))
    store.used = bytearray(base)
    children = store.children
    for keys_arr, vals in child_items:
        children.update(zip(keys_arr.tolist(), vals.tolist()))
    if link_pos:
        # Replay link creation in the per-click order: windows in corpus
        # order, positions (depths) ascending within each window.
        pos = np.concatenate(link_pos)
        dep = np.concatenate(link_depth)
        roots = np.concatenate(link_root)
        targets = np.concatenate(link_tgt)
        order = np.lexsort((dep, pos))
        links = store.special_links
        for root, target in zip(
            roots[order].tolist(), targets[order].tolist()
        ):
            known = links.get(root)
            if known is None:
                links[root] = [target]
            elif target not in known:
                known.append(target)


def build_ngram_trie(
    sequences: "Sequence[Sequence[int]]",
    *,
    max_height: "int | None" = None,
    min_count: int = 1,
    weights: "np.ndarray | None" = None,
) -> CompactTrie:
    """Count every n-gram of the id ``sequences`` into a fresh store.

    The result equals inserting, for every start position, the window of
    at most ``max_height`` symbols, then dropping every node whose count
    is below ``min_count`` (level-filtered, so an infrequent prefix
    removes its whole subtree — the Apriori property).  ``weights``
    carries per-sequence multiplicities from :func:`dedup_sequences`.
    """
    store = CompactTrie()
    flat, lens = _flatten(sequences)
    if not flat.size:
        return store
    ends = np.repeat(np.cumsum(lens), lens)
    win_pos = np.arange(flat.size, dtype=np.int64)
    win_stop = ends if max_height is None else np.minimum(ends, win_pos + max_height)
    win_weight = None if weights is None else np.repeat(weights, lens)
    _grow_trie(store, flat, win_pos, win_stop, win_weight, min_count)
    return store


def build_branch_trie(
    sequences: "Sequence[Sequence[int]]",
    *,
    grades: np.ndarray,
    grade_heights: Sequence[int],
    absolute_max_height: int,
    max_grade: int,
    weights: "np.ndarray | None" = None,
) -> CompactTrie:
    """Build PB-PPM's forest (construction rules 1-4) in bulk.

    Windows open at rule-4 root positions only (sequence start or grade
    rise), run to the head's grade-scaled height (rules 1-2), and wire
    rule-3 special links in per-click creation order.
    """
    store = CompactTrie()
    flat, lens = _flatten(sequences)
    if not flat.size:
        return store
    ends = np.repeat(np.cumsum(lens), lens)
    starts = np.zeros(flat.size, dtype=bool)
    starts[0] = True
    boundaries = np.cumsum(lens)[:-1]
    starts[boundaries[boundaries < flat.size]] = True
    g = grades[flat]
    prev = np.empty_like(g)
    prev[0] = 0
    prev[1:] = g[:-1]
    win_pos = np.nonzero(starts | (g > prev))[0].astype(np.int64)
    heights = np.minimum(
        np.asarray(grade_heights, dtype=np.int64), absolute_max_height
    )
    win_stop = np.minimum(ends[win_pos], win_pos + heights[g[win_pos]])
    win_weight = None if weights is None else np.repeat(weights, lens)[win_pos]
    _grow_trie(
        store,
        flat,
        win_pos,
        win_stop,
        win_weight,
        1,
        grades=grades,
        max_grade=max_grade,
    )
    return store
