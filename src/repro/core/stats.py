"""Tree statistics: node counts, path enumeration, utilisation (Figure 2).

The paper's space metric is the number of stored URL nodes; its
path-utilisation metric defines a *path* as "a URL sequence from the root
to an ending leaf" and marks a path useful once it has been used for a
prediction.  The prediction engine sets the usage flag of every node it
touches (exported as :attr:`TrieNode.used`); a root-to-leaf path counts as
used when its leaf was reached.  These functions read an exported forest
(:meth:`repro.core.base.PPMModel.to_node_forest`); models answer the same
questions from their store directly (``node_count``,
``path_utilization``).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.node import TrieNode


def node_count(roots: Mapping[str, TrieNode]) -> int:
    """Total stored URL nodes — the paper's space metric."""
    return sum(root.subtree_size() for root in roots.values())


def max_depth(roots: Mapping[str, TrieNode]) -> int:
    """Height of the tallest branch in the forest (0 when empty)."""

    def depth_of(node: TrieNode) -> int:
        if node.is_leaf:
            return 1
        return 1 + max(depth_of(child) for child in node.children.values())

    if not roots:
        return 0
    return max(depth_of(root) for root in roots.values())


def leaf_paths(roots: Mapping[str, TrieNode]) -> Iterator[tuple[str, ...]]:
    """Yield every root-to-leaf URL path, deterministic order."""

    def descend(node: TrieNode, prefix: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        if node.is_leaf:
            yield prefix
            return
        for url in sorted(node.children):
            yield from descend(node.children[url], prefix + (url,))

    for url in sorted(roots):
        yield from descend(roots[url], (url,))


def _leaves(roots: Mapping[str, TrieNode]) -> Iterator[TrieNode]:
    for root in roots.values():
        for node in root.walk():
            if node.is_leaf:
                yield node


def path_count(roots: Mapping[str, TrieNode]) -> int:
    """Number of root-to-leaf paths (equals the number of leaves)."""
    return sum(1 for _ in _leaves(roots))


def used_path_count(roots: Mapping[str, TrieNode]) -> int:
    """Number of paths whose leaf participated in a prediction."""
    return sum(1 for leaf in _leaves(roots) if leaf.used)


def path_utilization(roots: Mapping[str, TrieNode]) -> float:
    """Fraction of root-to-leaf paths used for predictions (Figure 2 right).

    Returns 0.0 for an empty forest.
    """
    total = 0
    used = 0
    for leaf in _leaves(roots):
        total += 1
        if leaf.used:
            used += 1
    return used / total if total else 0.0


def reset_usage(roots: Mapping[str, TrieNode]) -> None:
    """Clear every node's used flag (before a fresh prediction phase)."""
    for root in roots.values():
        for node in root.walk():
            node.used = False


def count_histogram(roots: Mapping[str, TrieNode]) -> dict[int, int]:
    """Histogram of node access counts (diagnostics for pruning studies)."""
    histogram: dict[int, int] = {}
    for root in roots.values():
        for node in root.walk():
            histogram[node.count] = histogram.get(node.count, 0) + 1
    return histogram
