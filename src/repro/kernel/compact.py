"""A struct-of-arrays trie store for Markov prediction forests.

One :class:`CompactTrie` holds an entire model forest.  Node *i* is
described by five parallel integer arrays (symbol, traversal count,
parent, first child, next sibling) plus one byte of usage flag; child
lookup goes through a single packed ``(parent << 32) | symbol -> child``
integer map instead of a per-node dict, so the build and match hot loops
run on machine-integer hashing and never allocate a Python object per
node.  The sibling chain exists so children can be enumerated without
consulting the packed map.

The store converts losslessly to and from the
:class:`~repro.core.node.TrieNode` forest that the JSON model document,
rendering and tree statistics read: counts, usage flags and PB-PPM special
links all survive the round trip, in order.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.node import TrieNode
    from repro.kernel.symbols import SymbolTable

#: Bits reserved for the symbol in a packed child-map key.  Symbols are
#: dense ids, so 2**32 distinct URLs bounds the key scheme, far beyond any
#: trace this library targets.
KEY_SHIFT = 32

_NO_NODE = -1


class CompactTrie:
    """An append-only, array-backed prediction forest.

    The store is always dense: nodes are only ever added, and pruning
    (:func:`~repro.kernel.prune.prune_dense`) builds a new store, so every
    array slot is a reachable node and a node's index is its slot.

    Attributes
    ----------
    syms / counts / parents / first_child / next_sibling:
        Parallel per-node integer arrays.  ``first_child`` and
        ``next_sibling`` encode each node's child list as an intrusive
        linked chain (newest child first); -1 means "none".
    used:
        One byte per node, the prediction engine's usage flag.
    children:
        The packed ``(parent << 32) | symbol -> child index`` map used for
        O(1) child lookup on the hot paths.
    roots:
        Root node index per root symbol, in creation order.
    special_links:
        PB-PPM's rule-3 links: ``root index -> [linked node index, ...]``
        in link-creation order (the order serialisation preserves).
    """

    def __init__(self) -> None:
        self.syms = array("q")
        self.counts = array("q")
        self.parents = array("q")
        self.first_child = array("q")
        self.next_sibling = array("q")
        self.used = bytearray()
        self.children: dict[int, int] = {}
        self.roots: dict[int, int] = {}
        self.special_links: dict[int, list[int]] = {}

    # -- node creation -------------------------------------------------------

    def _new_node(self, sym: int, parent: int) -> int:
        idx = len(self.syms)
        self.syms.append(sym)
        self.counts.append(0)
        self.parents.append(parent)
        self.first_child.append(_NO_NODE)
        self.next_sibling.append(_NO_NODE)
        self.used.append(0)
        return idx

    def ensure_root(self, sym: int) -> int:
        """Index of the root for ``sym``, creating it (count 0) if absent."""
        idx = self.roots.get(sym)
        if idx is None:
            idx = self._new_node(sym, _NO_NODE)
            self.roots[sym] = idx
        return idx

    def ensure_child(self, parent: int, sym: int) -> int:
        """Index of ``parent``'s child for ``sym``, creating it if absent."""
        key = (parent << KEY_SHIFT) | sym
        idx = self.children.get(key)
        if idx is None:
            idx = self._new_node(sym, parent)
            self.next_sibling[idx] = self.first_child[parent]
            self.first_child[parent] = idx
            self.children[key] = idx
        return idx

    # -- lookups -------------------------------------------------------------

    def child(self, parent: int, sym: int) -> int | None:
        """Index of ``parent``'s child for ``sym``, or None."""
        return self.children.get((parent << KEY_SHIFT) | sym)

    def iter_children(self, idx: int) -> Iterator[tuple[int, int]]:
        """Yield ``(symbol, child index)`` along the sibling chain."""
        child = self.first_child[idx]
        syms = self.syms
        sibling = self.next_sibling
        while child != _NO_NODE:
            yield syms[child], child
            child = sibling[child]

    def walk_indices(self, idx: int) -> Iterator[int]:
        """Yield ``idx`` and every descendant index (pre-order)."""
        stack = [idx]
        first = self.first_child
        sibling = self.next_sibling
        while stack:
            node = stack.pop()
            yield node
            child = first[node]
            while child != _NO_NODE:
                stack.append(child)
                child = sibling[child]

    @property
    def node_count(self) -> int:
        """Number of nodes — the paper's space metric (every slot is one)."""
        return len(self.syms)

    def __len__(self) -> int:
        return len(self.syms)

    # -- insertion hot paths -------------------------------------------------

    def insert_suffix(
        self, ids: Sequence[int], start: int, stop: int, weight: int = 1
    ) -> int:
        """Insert the id path ``ids[start:stop]`` from the root level.

        Bumps every traversed count by ``weight`` and returns the index of
        the path's last node.  This is the build hot loop: one packed-map
        probe per step, no slicing, no per-node object allocation.
        """
        sym = ids[start]
        idx = self.roots.get(sym)
        if idx is None:
            idx = self._new_node(sym, _NO_NODE)
            self.roots[sym] = idx
        counts = self.counts
        counts[idx] += weight
        children = self.children
        for position in range(start + 1, stop):
            sym = ids[position]
            key = (idx << KEY_SHIFT) | sym
            nxt = children.get(key)
            if nxt is None:
                nxt = self._new_node(sym, idx)
                self.next_sibling[nxt] = self.first_child[idx]
                self.first_child[idx] = nxt
                children[key] = nxt
            counts[nxt] += weight
            idx = nxt
        return idx

    def insert_path(self, ids: Sequence[int], weight: int = 1) -> int | None:
        """Insert a whole id path (:meth:`insert_suffix` over all of it)."""
        if not ids:
            return None
        return self.insert_suffix(ids, 0, len(ids), weight)

    # -- usage flags and path statistics --------------------------------------

    def reset_used(self) -> None:
        """Clear every usage flag."""
        self.used = bytearray(len(self.used))

    def path_stats(self) -> tuple[int, int]:
        """``(leaf paths, used leaf paths)`` — Figure 2's utilisation input.

        Every slot is a live node, so the leaf paths are the slots without
        a first child.
        """
        leaves = np.frombuffer(self.first_child, dtype=np.int64) == _NO_NODE
        used = np.frombuffer(self.used, dtype=np.uint8)[leaves]
        return int(np.count_nonzero(leaves)), int(np.count_nonzero(used))

    def leaf_paths(self, symbols: "SymbolTable") -> list[tuple[str, ...]]:
        """Every root-to-leaf URL path, roots and children in URL order."""
        url_of = symbols.url
        paths: list[tuple[str, ...]] = []
        stack = [
            (self.roots[sym], (url_of(sym),))
            for sym in sorted(self.roots, key=url_of, reverse=True)
        ]
        while stack:
            idx, path = stack.pop()
            if self.first_child[idx] == _NO_NODE:
                paths.append(path)
                continue
            pairs = sorted(
                ((url_of(sym), child) for sym, child in self.iter_children(idx)),
                reverse=True,
            )
            stack.extend((child, path + (url,)) for url, child in pairs)
        return paths

    def collect_used_paths(
        self, symbols: "SymbolTable"
    ) -> list[tuple[str, ...]]:
        """Root URL paths of every node whose usage flag is set.

        Deterministic order: roots sorted by URL, children visited in URL
        order.
        """
        url_of = symbols.url
        paths: list[tuple[str, ...]] = []
        for sym in sorted(self.roots, key=url_of):
            stack: list[tuple[int, tuple[str, ...]]] = [
                (self.roots[sym], (url_of(sym),))
            ]
            while stack:
                idx, path = stack.pop()
                if self.used[idx]:
                    paths.append(path)
                pairs = sorted(
                    self.iter_children(idx),
                    key=lambda pair: url_of(pair[0]),
                    reverse=True,
                )
                for child_sym, child in pairs:
                    stack.append((child, path + (url_of(child_sym),)))
        return paths

    def mark_used_paths(
        self, symbols: "SymbolTable", paths: Sequence[tuple[str, ...]]
    ) -> None:
        """Set the usage flag on the nodes named by root URL paths.

        Paths that no longer resolve are ignored — they can only appear if
        the store was mutated between collection and marking.
        """
        get_sym = symbols.get
        for path in paths:
            if not path:
                continue
            sym = get_sym(path[0])
            idx = self.roots.get(sym) if sym is not None else None
            for url in path[1:]:
                if idx is None:
                    break
                sym = get_sym(url)
                idx = self.child(idx, sym) if sym is not None else None
            if idx is not None:
                self.used[idx] = 1

    # -- conversion ----------------------------------------------------------

    def to_node_forest(self, symbols: "SymbolTable") -> "dict[str, TrieNode]":
        """Materialise the equivalent :class:`TrieNode` forest (lossless)."""
        from repro.core.node import TrieNode

        url_of = symbols.url
        node_of: dict[int, TrieNode] = {}
        forest: dict[str, TrieNode] = {}
        for sym, root in self.roots.items():
            root_node = TrieNode(url_of(sym), self.counts[root])
            root_node.used = bool(self.used[root])
            node_of[root] = root_node
            forest[root_node.url] = root_node
            stack = [root]
            while stack:
                idx = stack.pop()
                parent_node = node_of[idx]
                for child_sym, child in self.iter_children(idx):
                    child_node = TrieNode(url_of(child_sym), self.counts[child])
                    child_node.used = bool(self.used[child])
                    parent_node.children[child_node.url] = child_node
                    node_of[child] = child_node
                    stack.append(child)
        for root_idx, links in self.special_links.items():
            node_of[root_idx].special_links = [node_of[idx] for idx in links]
        return forest

    @classmethod
    def from_node_forest(
        cls, roots: "Mapping[str, TrieNode]", symbols: "SymbolTable"
    ) -> "CompactTrie":
        """Build a store equivalent to a :class:`TrieNode` forest.

        ``symbols`` is extended in place with any URL the forest contains.
        """
        store = cls()
        intern = symbols.intern
        index_of: dict[int, int] = {}
        for url, root in roots.items():
            root_idx = store.ensure_root(intern(url))
            store.counts[root_idx] = root.count
            store.used[root_idx] = 1 if root.used else 0
            index_of[id(root)] = root_idx
            stack = [(root, root_idx)]
            while stack:
                node, idx = stack.pop()
                for child_url, child in node.children.items():
                    child_idx = store.ensure_child(idx, intern(child_url))
                    store.counts[child_idx] = child.count
                    store.used[child_idx] = 1 if child.used else 0
                    index_of[id(child)] = child_idx
                    stack.append((child, child_idx))
        for url, root in roots.items():
            if root.special_links:
                linked = [
                    index_of[id(node)]
                    for node in root.special_links
                    if id(node) in index_of
                ]
                if linked:
                    store.special_links[index_of[id(root)]] = linked
        return store

    # -- introspection -------------------------------------------------------

    def storage_bytes(self) -> int:
        """Approximate bytes held by the array storage (diagnostics)."""
        arrays = (
            self.syms,
            self.counts,
            self.parents,
            self.first_child,
            self.next_sibling,
        )
        total = sum(a.buffer_info()[1] * a.itemsize for a in arrays)
        return total + len(self.used)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"CompactTrie(nodes={len(self.syms)}, roots={len(self.roots)})"
        )
