"""Property-based identity of the vectorised compile, its cuts and path count.

:func:`~repro.kernel.predict_table.compile_predict_table` orders every
context row with one stable lexsort over (parent, -probability, URL string
rank) and filters no entry by threshold; a prediction cuts a row to its
leading entries that clear the threshold asked.
:meth:`~repro.kernel.compact.CompactTrie.path_stats` counts leaves with
one mask over the store.  ``tests/oracle.py`` keeps the per-row ``sorted``
compile, filtered at a threshold, and the stack walk; for arbitrary
weighted stores the production table must equal the reference compiled at
thresholds 0.0 and 0.0 — all nine arrays in value, bit pattern and dtype
— every row cut at ``t`` must equal the reference row compiled at ``t``,
and both path counts must agree.

The alphabet is interned in a shuffled order, so symbol ids never follow
string order, and it mixes case, a non-ASCII URL and a URL with a
trailing NUL (which a numpy unicode array would compare equal to its
prefix).  Small weights make exact probability ties common; zero-count
roots and children exercise the zero-parent gate and, at threshold 0.0,
zero-probability rows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.experiments.lab import WorkloadLab
from repro.kernel.compact import CompactTrie
from repro.kernel.predict_table import compile_predict_table
from repro.kernel.prune import prune_dense
from repro.kernel.symbols import SymbolTable
from repro.workloads import grid

from tests import oracle

ALPHABET = ("/a", "/A", "/b", "/B", "/a\x00", "/é", "/z/1", "/Z")
#: Paths draw from the first six URLs; zero-count roots from all eight,
#: so some are new roots and some already exist.
PATH_URLS = ALPHABET[:6]
EPSILON = params.PROBABILITY_EPSILON
THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25 - EPSILON / 2, 0.25, 1 / 3, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def stores(draw):
    """A weighted store over a shuffled alphabet, with zero-count nodes
    and PB-style special links."""
    symbols = SymbolTable(draw(st.permutations(ALPHABET)))
    store = CompactTrie()
    paths = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(PATH_URLS), min_size=1, max_size=5),
                st.sampled_from([1, 2, 3, 6]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    for path, weight in paths:
        store.insert_path(symbols.intern_sequence(path), weight)
    for url in draw(st.lists(st.sampled_from(ALPHABET), max_size=3)):
        store.ensure_root(symbols.get(url))
    for pick, url in draw(
        st.lists(st.tuples(st.integers(0, 99), st.sampled_from(ALPHABET)), max_size=4)
    ):
        store.ensure_child(pick % len(store.syms), symbols.get(url))
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
            idx % len(store.syms) for idx in linked
        ]
    return store, symbols


@settings(max_examples=200, deadline=None)
@given(built=stores())
def test_compile_equals_the_row_sort_reference(built):
    store, symbols = built
    want = oracle.compile_predict_table(
        store, symbols, threshold=0.0, special_threshold=0.0
    )
    oracle.assert_same_tables(compile_predict_table(store, symbols), want)


@settings(max_examples=200, deadline=None)
@given(built=stores(), thresholds=st.lists(THRESHOLDS, min_size=1, max_size=3))
def test_row_cuts_equal_the_reference_compiled_at_the_threshold(
    built, thresholds
):
    """Each threshold in turn, on one table: every context and special
    row cut at ``t`` equals the reference row compiled at ``t`` and ``t``
    — predictions, their order, child indices and linked groups."""
    store, symbols = built
    table = compile_predict_table(store, symbols)
    for threshold in thresholds + thresholds[:1]:
        want = oracle.compile_predict_table(
            store, symbols, threshold=threshold, special_threshold=threshold
        )
        for idx in range(len(store.syms)):
            lo, hi = want.ctx_offsets[idx : idx + 2].tolist()
            assert table.context_row(idx, threshold) == (
                want.ctx_sym[lo:hi].tolist(),
                want.ctx_prob[lo:hi].tolist(),
                want.ctx_child[lo:hi].tolist(),
            )
        for root in store.roots.values():
            lo, hi = want.spc_offsets[root : root + 2].tolist()
            bounds = want.spl_offsets[lo : hi + 1].tolist()
            keys, probs, entries = table.special_row(root, threshold)
            assert (keys, probs) == (
                want.spc_sym[lo:hi].tolist(),
                want.spc_prob[lo:hi].tolist(),
            )
            assert [table.linked_nodes(entry) for entry in entries] == [
                want.spl_nodes[start:stop].tolist()
                for start, stop in zip(bounds, bounds[1:])
            ]


@settings(max_examples=200, deadline=None)
@given(
    built=stores(),
    used=st.lists(st.integers(0, 99), max_size=8),
    cutoff=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_path_stats_equals_the_walk(built, used, cutoff):
    store, _symbols = built
    for pick in used:
        store.used[pick % len(store.syms)] = 1
    assert store.path_stats() == oracle.path_stats(store)
    pruned, _removed = prune_dense(store, cutoff=cutoff)
    assert pruned.path_stats() == oracle.path_stats(pruned)


def test_empty_store():
    store = CompactTrie()
    assert store.path_stats() == oracle.path_stats(store) == (0, 0)
    assert np.array_equal(
        compile_predict_table(store, SymbolTable()).ctx_offsets, [0]
    )


def test_grid_models_compile_to_reference_tables():
    """PB, standard and LRS from the grid factory on a small nasa-like lab."""
    lab = WorkloadLab("nasa-like", total_days=3, seed=3, scale=0.1)
    popularity = lab.popularity(2)
    sessions = lab.split(2).train_sessions
    for key in ("pb", "standard", "lrs"):
        model = grid.build_model(key, popularity, None).fit(sessions)
        want = oracle.compile_predict_table(
            model._store, model._symbols, threshold=0.0, special_threshold=0.0
        )
        oracle.assert_same_tables(model._compiled_table(), want)
        assert model._store.path_stats() == oracle.path_stats(model._store)
