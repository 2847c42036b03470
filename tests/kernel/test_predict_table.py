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


def urls_of(symbols, keys):
    return [symbols.url(key) for key in keys]


class TestCompile:
    def test_rows_hold_qualifying_children_sorted(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        keys, probs, children = table.context_row(root_a, THRESHOLD)
        assert list(zip(urls_of(symbols, keys), probs)) == [
            ("B", 0.75),
            ("C", 0.25),
        ]
        assert children == [
            store.child(root_a, symbols.get("B")),
            store.child(root_a, symbols.get("C")),
        ]
        # The per-node step completes each entry into a prediction: the
        # order is the matched node's depth, the source a context row.
        predictions = table.longest_cut(root_a, THRESHOLD).predictions(symbols.url)
        assert [(p.url, p.order, p.source) for p in predictions] == [
            ("B", 1, "context"),
            ("C", 1, "context"),
        ]

    def test_probability_ties_break_by_url(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        keys, probs, _children = table.context_row(node_b, THRESHOLD)
        assert list(zip(urls_of(symbols, keys), probs)) == [
            ("X", 0.5),
            ("Y", 0.5),
        ]

    def test_below_threshold_children_are_cut_from_the_row(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))

        def cut(idx, threshold):
            keys, _probs, _children = table.context_row(idx, threshold)
            return urls_of(symbols, keys)

        # The row holds B (0.75) and C (0.25): a threshold keeps the
        # leading entries that clear it, an exact 0.25 included.
        assert cut(root_a, 0.0) == ["B", "C"]
        assert cut(root_a, 0.25) == ["B", "C"]
        assert cut(root_a, 0.5) == ["B"]
        assert cut(root_a, 0.75) == ["B"]
        assert cut(root_a, 0.76) == []
        # A tie cuts as a block: X and Y both sit at 0.5.
        assert cut(node_b, 0.5) == ["X", "Y"]
        assert cut(node_b, 0.5 + 1e-9) == []

    def test_leaf_rows_are_empty(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_c = store.child(root_a, symbols.get("C"))
        for threshold in (0.0, THRESHOLD):
            assert table.context_row(node_c, threshold) == ([], [], [])
            assert table.longest_cut(node_c, threshold).keys == ()

    def test_rows_are_cached_and_shared(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        step = table.predictor("longest", table.longest_cut)
        first = step(root_a, THRESHOLD)
        assert step(root_a, THRESHOLD) is first
        # Every step of a mode shares its memo.
        assert table.predictor("longest", table.longest_cut)(root_a, THRESHOLD) is first
        assert first.predictions(symbols.url) is first.predictions(symbols.url)
        # A different threshold replaces the node's memo: one cut per node.
        higher = step(root_a, 0.5)
        assert higher is not first
        assert urls_of(symbols, higher.keys) == ["B"]
        again = step(root_a, THRESHOLD)
        assert again is not first
        assert (again.keys, again.probs, again.paths, again.nodes) == (
            first.keys,
            first.probs,
            first.paths,
            first.nodes,
        )

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


class TestNodeMemos:
    def test_suffix_links_skip_lengths_a_store_lacks(self):
        """Root paths A/B/C and C only: the longest proper suffix of A/B/C
        that is a root path is C (B/C is not one), and C has none."""
        store = CompactTrie()
        symbols = SymbolTable()
        store.insert_path(symbols.intern_sequence(("A", "B", "C")), 2)
        store.insert_path(symbols.intern_sequence(("C", "D")), 1)
        table = compile_predict_table(store, symbols)
        root_a = store.roots[symbols.get("A")]
        node_ab = store.child(root_a, symbols.get("B"))
        node_abc = store.child(node_ab, symbols.get("C"))
        root_c = store.roots[symbols.get("C")]
        assert table.link(node_abc) == root_c
        assert table.link(root_c) == -1
        assert table.chain(node_abc) == [node_abc, root_c]
        assert [table.depth(n) for n in table.chain(node_abc)] == [3, 1]

    def test_transitions_honour_the_context_bound(self):
        store, symbols, table = compile_built()
        root_a = store.roots[symbols.get("A")]
        node_b = store.child(root_a, symbols.get("B"))
        sym_x = symbols.get("X")
        # Unbounded, A/B extends to A/B/X; with a bound of 2 the match
        # must drop A first, and B has no root, so nothing matches.
        assert table.transition(node_b, sym_x, 3) == store.child(node_b, sym_x)
        assert table.transition(node_b, sym_x, 2) == -1
        assert table.transitions(2) == {((node_b + 1) << 32) | sym_x: -1}
        # From no match, a click lands on its root.
        assert table.transition(-1, symbols.get("A"), 2) == root_a


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
        keys, probs, entries = table.special_row(root_a, 0.2)
        assert list(zip(urls_of(symbols, keys), probs)) == [
            ("X", 3 / 8),
            ("Y", 3 / 8),
        ]
        # Parallel linked-node groups feed usage marking.
        assert [table.linked_nodes(e) for e in entries] == [[node_x], [node_y]]
        # The row holds E too; a lower threshold keeps it.
        keys, probs, entries = table.special_row(root_a, 0.1)
        assert urls_of(symbols, keys) == ["X", "Y", "E"]
        assert [table.linked_nodes(e) for e in entries] == [
            [node_x],
            [node_y],
            [node_e],
        ]
        assert table.special_row(root_a, 0.4)[:2] == ([], [])
        # PB-PPM's merged step adds them at order 0 as special links.
        cut = table.merged_cut(root_a, 1.0, 0.2)
        assert [(p.url, p.order, p.source) for p in cut.predictions(symbols.url)] == [
            ("X", 0, "special_link"),
            ("Y", 0, "special_link"),
        ]
        # Marking flags the root and the linked nodes of the fired entries.
        flags = bytearray(len(store.syms))
        table.mark(cut, flags)
        assert [i for i, flag in enumerate(flags) if flag] == sorted(
            [root_a, node_x, node_y]
        )

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
        keys, probs, entries = table.special_row(root_r, 0.05)
        # (4 + 2) / 4 clamps to 1.0, one row, both nodes in its group.
        assert list(zip(urls_of(symbols, keys), probs)) == [("S", 1.0)]
        assert [table.linked_nodes(e) for e in entries] == [[s_under_r, s_under_q]]

    def test_roots_without_links_have_empty_rows(self):
        store, symbols, table = compile_built()
        root_d = store.roots[symbols.get("D")]
        assert table.special_row(root_d, 0.0)[:2] == ([], [])


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
