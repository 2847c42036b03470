"""Unit tests for the compiled prediction-table kernel.

The differential suites prove the compiled dispatch agrees with every
other prediction path over whole synthetic corpora; this file pins the
table itself on a hand-built store where every row and probability can
be checked against numbers computed by inspection.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.kernel import predict_table as predict_table_module
from repro.kernel.compact import CompactTrie
from repro.kernel.predict_table import compile_predict_table
from repro.kernel.prune import prune_compact_by_absolute_count
from repro.kernel.symbols import SymbolTable

from tests.helpers import make_sessions
from tests.oracle import OracleModel

THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD


def weighted_paths() -> list[tuple[tuple[str, ...], int]]:
    # Root A (count 8): children B 6/8=0.75, C 2/8=0.25 — both qualify
    # at 0.25 and must come out sorted by descending probability.
    # Node A/B (count 6): children X and Y at 3/6=0.5 each — an exact
    # probability tie that must break by URL.  Z at 0 would divide to
    # 0.0 and must be filtered.  Root D (count 1): child E at 1.0.
    return [
        (("A", "B", "X"), 3),
        (("A", "B", "Y"), 3),
        (("A", "C"), 2),
        (("D", "E"), 1),
    ]


def build_store() -> tuple[CompactTrie, SymbolTable]:
    store = CompactTrie()
    symbols = SymbolTable()
    for path, weight in weighted_paths():
        store.insert_path(symbols.intern_sequence(path), weight)
    return store, symbols


def compile_built(**overrides):
    store, symbols = build_store()
    table = compile_predict_table(store, symbols, **overrides)
    assert table is not None
    return store, symbols, table


class TestCompile:
    def test_rows_hold_qualifying_children_sorted(self):
        store, symbols, table = compile_built(threshold=0.25)
        root_a = store.roots[symbols.get("A")]
        predictions, children = table.context_row(root_a, 1, symbols.url)
        assert [(p.url, p.probability) for p in predictions] == [
            ("B", 0.75),
            ("C", 0.25),
        ]
        assert all(p.order == 1 for p in predictions)
        assert all(p.source == "context" for p in predictions)
        assert list(children) == [
            store.child(root_a, symbols.get("B")),
            store.child(root_a, symbols.get("C")),
        ]

    def test_probability_ties_break_by_url(self):
        store, symbols, table = compile_built(threshold=0.25)
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        predictions, _children = table.context_row(node_b, 2, symbols.url)
        assert [(p.url, p.probability) for p in predictions] == [
            ("X", 0.5),
            ("Y", 0.5),
        ]

    def test_below_threshold_children_are_dropped_at_compile_time(self):
        store, symbols, table = compile_built(threshold=0.5)
        root_a = store.roots[symbols.get("A")]
        predictions, _children = table.context_row(root_a, 1, symbols.url)
        # At 0.5 only B (0.75) survives; C (0.25) was filtered when the
        # row was built, not at request time.
        assert [p.url for p in predictions] == ["B"]

    def test_leaf_rows_are_empty(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_c = store.child(root_a, symbols.get("C"))
        assert table.context_row(node_c, 1, symbols.url) == ((), ())

    def test_rows_are_cached_and_shared(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        first = table.context_row(root_a, 1, symbols.url)
        assert table.context_row(root_a, 1, symbols.url) is first
        # A different order is a different cached row.
        other = table.context_row(root_a, 3, symbols.url)
        assert other is not first
        assert [p.order for p in other[0]] == [3, 3]

    def test_covers_only_the_compiled_threshold(self):
        _store, _symbols, table = compile_built(threshold=0.25)
        assert table.covers(0.25)
        assert not table.covers(0.3)
        assert not table.covers(0.2)

    def test_compile_refuses_non_dense_stores(self):
        store, symbols = build_store()
        # Pruning unlinks subtrees but leaves garbage array slots, so the
        # store is no longer dense and its indices would not survive
        # densification.
        prune_compact_by_absolute_count(store, max_count=2)
        assert len(store.syms) != store.node_count
        assert compile_predict_table(store, symbols) is None
        # The dense copy compiles fine.
        dense = store.compacted()
        assert compile_predict_table(dense, symbols) is not None

    def test_compile_count_tracks_compilations(self):
        store, symbols = build_store()
        before = predict_table_module.COMPILE_COUNT
        compile_predict_table(store, symbols)
        compile_predict_table(store, symbols)
        assert predict_table_module.COMPILE_COUNT == before + 2

    def test_storage_bytes_counts_the_nine_arrays(self):
        _store, _symbols, table = compile_built()
        # 7 nodes: two offset arrays of 8 slots, 5 context rows of three
        # 8-byte columns, no special rows (one spl_offsets slot).
        assert table.storage_bytes() == 2 * 8 * 8 + 5 * 3 * 8 + 8


class TestSpecialRows:
    def test_special_links_aggregate_by_url_and_gate(self):
        store, symbols = build_store()
        root_a = store.roots[symbols.get("A")]
        root_d = store.roots[symbols.get("D")]
        node_b = store.child(root_a, symbols.get("B"))
        node_x = store.child(node_b, symbols.get("X"))
        node_y = store.child(node_b, symbols.get("Y"))
        node_e = store.child(root_d, symbols.get("E"))
        # Two links to nodes with the same symbol would aggregate; here
        # X (3) and Y (3) aggregate separately, E (1) lands on 1/8 and
        # must be dropped by a 0.2 special threshold.
        store.special_links[root_a] = [node_x, node_y, node_e]
        table = compile_predict_table(store, symbols, special_threshold=0.2)
        predictions, groups = table.special_row(root_a, symbols.url)
        assert [(p.url, p.probability) for p in predictions] == [
            ("X", 3 / 8),
            ("Y", 3 / 8),
        ]
        assert all(p.source == "special_link" for p in predictions)
        assert all(p.order == 0 for p in predictions)
        # Parallel linked-node groups feed usage marking.
        assert groups == ((node_x,), (node_y,))

    def test_duplicate_linked_symbols_aggregate_into_one_row(self):
        store = CompactTrie()
        symbols = SymbolTable()
        store.insert_path(symbols.intern_sequence(("R", "S")), 4)
        store.insert_path(symbols.intern_sequence(("Q", "S")), 2)
        root_r = store.roots[symbols.get("R")]
        root_q = store.roots[symbols.get("Q")]
        s_under_r = store.child(root_r, symbols.get("S"))
        s_under_q = store.child(root_q, symbols.get("S"))
        store.special_links[root_r] = [s_under_r, s_under_q]
        table = compile_predict_table(store, symbols, special_threshold=0.05)
        predictions, groups = table.special_row(root_r, symbols.url)
        # (4 + 2) / 4 clamps to 1.0, one row, both nodes in its group.
        assert [(p.url, p.probability) for p in predictions] == [("S", 1.0)]
        assert groups == ((s_under_r, s_under_q),)

    def test_roots_without_links_have_empty_rows(self):
        store, symbols, table = compile_built()
        root_d = store.roots[symbols.get("D")]
        assert table.special_row(root_d, symbols.url) == ((), ())


DISPATCH_SEQUENCES = [
    ("A", "B", "X"),
    ("A", "B", "X"),
    ("A", "B", "Y"),
    ("A", "C"),
    ("D", "E"),
]


class TestModelDispatch:
    @pytest.fixture()
    def fitted(self):
        sessions = make_sessions(DISPATCH_SEQUENCES)
        return PopularityBasedPPM(PopularityTable.from_sessions(sessions)).fit(
            sessions
        )

    def test_model_caches_one_table_per_store_state(self, fitted):
        before = predict_table_module.COMPILE_COUNT
        fitted.predict(("A",), threshold=THRESHOLD, mark_used=False)
        fitted.predict(("A", "B"), threshold=THRESHOLD, mark_used=False)
        assert predict_table_module.COMPILE_COUNT == before + 1

    def test_mutation_invalidates_the_cached_table(self, fitted):
        before_predictions = fitted.predict(
            ("D",), threshold=THRESHOLD, mark_used=False
        )
        assert [p.url for p in before_predictions] == ["E"]
        compiles = predict_table_module.COMPILE_COUNT
        fitted.fold_sessions(make_sessions([("D", "F"), ("D", "F")]))
        after = fitted.predict(("D",), threshold=THRESHOLD, mark_used=False)
        assert predict_table_module.COMPILE_COUNT == compiles + 1
        assert {p.url for p in after} >= {"F"}

    def test_uncovered_thresholds_fall_back_to_the_trie_walk(self, fitted):
        compiles = predict_table_module.COMPILE_COUNT
        via_table = fitted.predict(
            ("A",), threshold=THRESHOLD, mark_used=False
        )
        odd_threshold = THRESHOLD + 0.07
        fallback = fitted.predict(
            ("A",), threshold=odd_threshold, mark_used=False
        )
        assert not fitted._compiled_table().covers(odd_threshold)
        oracle = OracleModel(fitted, make_sessions(DISPATCH_SEQUENCES))
        for threshold, got in ((THRESHOLD, via_table), (odd_threshold, fallback)):
            assert got == oracle.predict(("A",), threshold=threshold, mark_used=False)
        assert {p.url for p in via_table} >= {p.url for p in fallback}
        # The off-threshold query must not have triggered a recompile.
        assert predict_table_module.COMPILE_COUNT == compiles + 1
