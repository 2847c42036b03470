"""Unit tests for the compiled prediction-table kernel.

The differential suites prove the table's row cuts agree with the
node-forest oracle over whole synthetic corpora; this file pins the table
itself on a hand-built store where every row, cut and probability can be
checked against numbers computed by inspection.
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


def compile_built():
    store, symbols = build_store()
    return store, symbols, compile_predict_table(store, symbols)


class TestCompile:
    def test_rows_hold_qualifying_children_sorted(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        predictions, children = table.context_row(
            root_a, 1, THRESHOLD, symbols.url
        )
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
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        predictions, _children = table.context_row(
            node_b, 2, THRESHOLD, symbols.url
        )
        assert [(p.url, p.probability) for p in predictions] == [
            ("X", 0.5),
            ("Y", 0.5),
        ]

    def test_below_threshold_children_are_cut_from_the_row(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))

        def cut(idx, order, threshold):
            predictions, _children = table.context_row(
                idx, order, threshold, symbols.url
            )
            return [p.url for p in predictions]

        # The row holds B (0.75) and C (0.25): a threshold keeps the
        # leading entries that clear it, an exact 0.25 included.
        assert cut(root_a, 1, 0.0) == ["B", "C"]
        assert cut(root_a, 1, 0.25) == ["B", "C"]
        assert cut(root_a, 1, 0.5) == ["B"]
        assert cut(root_a, 1, 0.75) == ["B"]
        assert cut(root_a, 1, 0.76) == []
        # A tie cuts as a block: X and Y both sit at 0.5.
        assert cut(node_b, 2, 0.5) == ["X", "Y"]
        assert cut(node_b, 2, 0.5 + 1e-9) == []

    def test_leaf_rows_are_empty(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_c = store.child(root_a, symbols.get("C"))
        for threshold in (0.0, THRESHOLD):
            assert table.context_row(node_c, 1, threshold, symbols.url) == ((), ())

    def test_rows_are_cached_and_shared(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        first = table.context_row(root_a, 1, THRESHOLD, symbols.url)
        assert table.context_row(root_a, 1, THRESHOLD, symbols.url) is first
        # A different order is a different row, and replaces the memo.
        other = table.context_row(root_a, 3, THRESHOLD, symbols.url)
        assert other is not first
        assert [p.order for p in other[0]] == [3, 3]
        # So does a different threshold: one memoised cut per node.
        higher = table.context_row(root_a, 3, 0.5, symbols.url)
        assert [p.url for p in higher[0]] == ["B"]
        assert len(table._row_cache) == 1
        again = table.context_row(root_a, 3, THRESHOLD, symbols.url)
        assert again == other and again is not other

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
        # must be cut by a 0.2 special threshold.
        store.special_links[root_a] = [node_x, node_y, node_e]
        table = compile_predict_table(store, symbols)
        predictions, groups = table.special_row(root_a, 0.2, symbols.url)
        assert [(p.url, p.probability) for p in predictions] == [
            ("X", 3 / 8),
            ("Y", 3 / 8),
        ]
        assert all(p.source == "special_link" for p in predictions)
        assert all(p.order == 0 for p in predictions)
        # Parallel linked-node groups feed usage marking.
        assert groups == ((node_x,), (node_y,))
        # The row holds E too; a lower threshold keeps it.
        predictions, groups = table.special_row(root_a, 0.1, symbols.url)
        assert [p.url for p in predictions] == ["X", "Y", "E"]
        assert groups == ((node_x,), (node_y,), (node_e,))
        assert table.special_row(root_a, 0.4, symbols.url) == ((), ())

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
        table = compile_predict_table(store, symbols)
        predictions, groups = table.special_row(root_r, 0.05, symbols.url)
        # (4 + 2) / 4 clamps to 1.0, one row, both nodes in its group.
        assert [(p.url, p.probability) for p in predictions] == [("S", 1.0)]
        assert groups == ((s_under_r, s_under_q),)

    def test_roots_without_links_have_empty_rows(self):
        store, symbols, table = compile_built()
        root_d = store.roots[symbols.get("D")]
        assert table.special_row(root_d, 0.0, symbols.url) == ((), ())


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

    def test_off_default_thresholds_cut_the_same_table(self, fitted):
        compiles = predict_table_module.COMPILE_COUNT
        oracle = OracleModel(fitted, make_sessions(DISPATCH_SEQUENCES))
        got = {}
        for threshold in (THRESHOLD, THRESHOLD + 0.07, 0.0, 0.5, 1.0):
            got[threshold] = fitted.predict(
                ("A",), threshold=threshold, mark_used=False
            )
            assert got[threshold] == oracle.predict(
                ("A",), threshold=threshold, mark_used=False
            )
        assert {p.url for p in got[THRESHOLD]} >= {
            p.url for p in got[THRESHOLD + 0.07]
        }
        # Every threshold cuts the one table: a single compile.
        assert predict_table_module.COMPILE_COUNT == compiles + 1
