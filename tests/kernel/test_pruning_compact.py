"""The fused prune over the compact store must equal the node-forest passes.

:func:`~repro.kernel.prune.prune_dense` runs Section 3.4's two space
optimisations as one vectorised rebuild.  ``tests/oracle.py`` keeps them
as two literal passes over a node forest: the relative-probability cut,
then the absolute-count cut.  For any weighted forest carrying PB-PPM
special links, the fused rebuild must keep the same nodes with the same
counts, keep the same special links in order, and report the same
removed count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import TrieNode
from repro.kernel.compact import CompactTrie
from repro.kernel.prune import prune_dense
from repro.kernel.symbols import SymbolTable

from tests.oracle import prune_by_absolute_count, prune_by_relative_probability

URLS = ("A", "B", "C", "D", "E")


def weighted_paths() -> list[tuple[tuple[str, ...], int]]:
    return [
        (("A", "B", "C"), 8),
        (("A", "B", "D"), 1),
        (("A", "E"), 2),
        (("F", "G"), 1),
        (("H",), 1),
    ]


def build_store(paths) -> tuple[CompactTrie, SymbolTable]:
    store = CompactTrie()
    symbols = SymbolTable()
    for path, weight in paths:
        store.insert_path(symbols.intern_sequence(path), weight)
    return store, symbols


def signature(roots: dict[str, TrieNode]):
    """Every node as ``(path, count)``, and every root's non-empty
    special links as the paths of the linked nodes, in link order."""
    nodes = []
    path_of: dict[int, tuple[str, ...]] = {}
    stack = [(roots[url], (url,)) for url in sorted(roots)]
    while stack:
        node, path = stack.pop()
        nodes.append((path, node.count))
        path_of[id(node)] = path
        for url in sorted(node.children):
            stack.append((node.children[url], path + (url,)))
    links = {
        url: [path_of[id(linked)] for linked in root.special_links]
        for url, root in roots.items()
        if root.special_links
    }
    return sorted(nodes), links


def oracle_prune(roots, *, cutoff, max_count) -> int:
    removed = prune_by_relative_probability(roots, cutoff=cutoff)
    if max_count is not None:
        removed += prune_by_absolute_count(roots, max_count=max_count)
    return removed


def assert_prunes_like_the_oracle(store, symbols, *, cutoff, max_count):
    roots = store.to_node_forest(symbols)
    want_removed = oracle_prune(roots, cutoff=cutoff, max_count=max_count)
    dense, removed = prune_dense(store, cutoff=cutoff, max_count=max_count)
    assert removed == want_removed
    assert signature(dense.to_node_forest(symbols)) == signature(roots)
    assert dense.node_count == store.node_count - removed


@st.composite
def forests(draw):
    """A weighted store with some counts overwritten (so counts need not
    shrink along a branch) and special links from roots to any nodes."""
    paths = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(URLS), min_size=1, max_size=5).map(tuple),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=10,
        )
    )
    store, symbols = build_store(paths)
    size = len(store.syms)
    for pick, count in draw(
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 12)), max_size=4)
    ):
        store.counts[pick % size] = count
    roots = sorted(store.roots.values())
    for pick, linked in draw(
        st.lists(
            st.tuples(
                st.integers(0, 99),
                st.lists(st.integers(0, 99), min_size=1, max_size=4),
            ),
            max_size=3,
        )
    ):
        store.special_links[roots[pick % len(roots)]] = [
            idx % size for idx in linked
        ]
    return store, symbols


@settings(max_examples=200, deadline=None)
@given(
    built=forests(),
    cutoff=st.one_of(
        st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0)
    ),
    max_count=st.one_of(st.none(), st.integers(0, 10)),
)
def test_prune_dense_equals_the_two_oracle_passes(built, cutoff, max_count):
    store, symbols = built
    assert_prunes_like_the_oracle(
        store, symbols, cutoff=cutoff, max_count=max_count
    )


@pytest.mark.parametrize("cutoff", [0.0, 0.2, 0.5, 1.0])
def test_relative_probability_matches_node_pass(cutoff):
    store, symbols = build_store(weighted_paths())
    assert_prunes_like_the_oracle(store, symbols, cutoff=cutoff, max_count=None)


@pytest.mark.parametrize("max_count", [0, 1, 2, 10])
def test_absolute_count_matches_node_pass(max_count):
    store, symbols = build_store(weighted_paths())
    assert_prunes_like_the_oracle(store, symbols, cutoff=0.0, max_count=max_count)


def test_special_links_into_pruned_subtrees_dropped():
    store, symbols = build_store(weighted_paths())
    a = store.roots[symbols.get("A")]
    b = store.child(a, symbols.get("B"))
    d = store.child(b, symbols.get("D"))
    c = store.child(b, symbols.get("C"))
    store.special_links[a] = [d, c]
    dense, _removed = prune_dense(store, cutoff=0.2)
    new_a = dense.roots[symbols.get("A")]
    new_c = dense.child(dense.child(new_a, symbols.get("B")), symbols.get("C"))
    assert dense.special_links == {new_a: [new_c]}


def test_live_count_tracks_removals():
    store, _symbols = build_store(weighted_paths())
    dense, removed = prune_dense(store, max_count=1)
    assert removed == 4
    assert dense.node_count == len(dense.syms) == store.node_count - removed


@pytest.mark.parametrize(
    "kwargs",
    [{"cutoff": -0.1}, {"cutoff": 1.5}, {"max_count": -1}],
    ids=["cutoff=-0.1", "cutoff=1.5", "max_count=-1"],
)
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        prune_dense(CompactTrie(), **kwargs)
