"""Unit tests for the struct-of-arrays trie store."""

from repro.core.node import TrieNode
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import SymbolTable


def build_simple() -> tuple[CompactTrie, SymbolTable]:
    """A -> B -> C twice plus A -> B -> D once, all from the root level."""
    store = CompactTrie()
    symbols = SymbolTable()
    for urls in (("A", "B", "C"), ("A", "B", "D"), ("A", "B", "C")):
        store.insert_path(symbols.intern_sequence(urls))
    return store, symbols


class TestInsertion:
    def test_counts_accumulate(self):
        store, symbols = build_simple()
        a = store.roots[symbols.get("A")]
        b = store.child(a, symbols.get("B"))
        c = store.child(b, symbols.get("C"))
        d = store.child(b, symbols.get("D"))
        assert store.counts[a] == 3
        assert store.counts[b] == 3
        assert store.counts[c] == 2
        assert store.counts[d] == 1

    def test_node_count(self):
        store, _ = build_simple()
        assert store.node_count == 4
        assert len(store) == 4

    def test_insert_suffix_windows(self):
        store = CompactTrie()
        symbols = SymbolTable()
        ids = symbols.intern_sequence(("A", "B", "C"))
        for start in range(len(ids)):
            store.insert_suffix(ids, start, len(ids))
        assert set(store.roots) == set(ids)
        assert store.node_count == 6  # A-B-C, B-C, C

    def test_insert_weight(self):
        store = CompactTrie()
        symbols = SymbolTable()
        idx = store.insert_path(symbols.intern_sequence(("A",)), weight=5)
        assert store.counts[idx] == 5

    def test_empty_path_is_noop(self):
        store = CompactTrie()
        assert store.insert_path(()) is None
        assert store.node_count == 0

    def test_iter_children_covers_all(self):
        store, symbols = build_simple()
        b = store.child(store.roots[symbols.get("A")], symbols.get("B"))
        child_syms = {sym for sym, _ in store.iter_children(b)}
        assert child_syms == {symbols.get("C"), symbols.get("D")}

    def test_walk_indices_preorder_count(self):
        store, symbols = build_simple()
        indices = list(store.walk_indices(store.roots[symbols.get("A")]))
        assert len(indices) == 4


class TestUsage:
    def test_path_stats_counts_leaves(self):
        store, symbols = build_simple()
        b = store.child(store.roots[symbols.get("A")], symbols.get("B"))
        c = store.child(b, symbols.get("C"))
        store.used[c] = 1
        assert store.path_stats() == (2, 1)

    def test_reset_used(self):
        store, symbols = build_simple()
        store.used[0] = 1
        store.reset_used()
        assert not any(store.used)

    def test_collect_and_mark_round_trip(self):
        store, symbols = build_simple()
        b = store.child(store.roots[symbols.get("A")], symbols.get("B"))
        store.used[b] = 1
        paths = store.collect_used_paths(symbols)
        assert paths == [("A", "B")]
        clone, clone_symbols = build_simple()
        clone.mark_used_paths(clone_symbols, paths)
        assert clone.collect_used_paths(clone_symbols) == paths

    def test_mark_unresolvable_paths_ignored(self):
        store, symbols = build_simple()
        store.mark_used_paths(symbols, [("Z",), ("A", "Z"), ()])
        assert store.collect_used_paths(symbols) == []


class TestConversion:
    def test_node_forest_round_trip(self):
        store, symbols = build_simple()
        a = store.roots[symbols.get("A")]
        b = store.child(a, symbols.get("B"))
        store.used[b] = 1
        store.special_links[a] = [b]
        forest = store.to_node_forest(symbols)
        back_symbols = SymbolTable()
        back = CompactTrie.from_node_forest(forest, back_symbols)
        forest2 = back.to_node_forest(back_symbols)
        assert forest2["A"].children["B"].count == 3
        assert forest2["A"].children["B"].used
        assert [n.url for n in forest2["A"].special_links] == ["B"]
        assert back.node_count == store.node_count

    def test_from_node_forest_links_duplicate_urls(self):
        # Special link must target the duplicated in-branch node, which
        # shares its URL with another node — identity, not URL matching.
        root = TrieNode("A", 2)
        inner = root.ensure_child("B")
        inner.count = 2
        dup = inner.ensure_child("A")
        dup.count = 1
        root.special_links = [dup]
        symbols = SymbolTable()
        store = CompactTrie.from_node_forest({"A": root}, symbols)
        forest = store.to_node_forest(symbols)
        linked = forest["A"].special_links[0]
        assert linked is forest["A"].children["B"].children["A"]

    def test_storage_bytes_positive(self):
        store, _ = build_simple()
        assert store.storage_bytes() > 0
