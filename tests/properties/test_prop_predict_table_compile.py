"""Property-based identity of the vectorised compile and path count.

:func:`~repro.kernel.predict_table.compile_predict_table` orders every
context row with one stable lexsort over (parent, -probability, URL string
rank), and :meth:`~repro.kernel.compact.CompactTrie.path_stats` counts
leaves with one mask over a dense store.  ``tests/oracle.py`` keeps the
per-row ``sorted`` compile and the stack walk they replaced; for arbitrary
weighted stores both must agree with those references exactly — all
nine table arrays in value, bit pattern and dtype, and both path counts.

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
from repro.kernel.compact import KEY_SHIFT, CompactTrie
from repro.kernel.predict_table import compile_predict_table
from repro.kernel.symbols import SymbolTable
from repro.workloads import grid

from tests import oracle

ALPHABET = ("/a", "/A", "/b", "/B", "/a\x00", "/é", "/z/1", "/Z")
#: Paths draw from the first six URLs; zero-count roots from all eight,
#: so some are new roots and some already exist.
PATH_URLS = ALPHABET[:6]
THRESHOLDS = st.sampled_from([0.0, 0.25, 1 / 3, 1.0])


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
@given(built=stores(), threshold=THRESHOLDS, special_threshold=THRESHOLDS)
def test_compile_equals_the_row_sort_reference(
    built, threshold, special_threshold
):
    store, symbols = built
    thresholds = {"threshold": threshold, "special_threshold": special_threshold}
    want = oracle.compile_predict_table(store, symbols, **thresholds)
    got = compile_predict_table(store, symbols, **thresholds)
    oracle.assert_same_tables(got, want)


@settings(max_examples=200, deadline=None)
@given(
    built=stores(),
    used=st.lists(st.integers(0, 99), max_size=8),
    deletions=st.lists(
        st.tuples(st.booleans(), st.integers(0, 99)), min_size=1, max_size=4
    ),
)
def test_path_stats_equals_the_walk(built, used, deletions):
    store, _symbols = built
    for pick in used:
        store.used[pick % len(store.syms)] = 1
    assert store.path_stats() == oracle.path_stats(store)
    for is_root, pick in deletions:
        if is_root and store.roots:
            store.delete_root(sorted(store.roots)[pick % len(store.roots)])
        elif store.children:
            key = sorted(store.children)[pick % len(store.children)]
            store.delete_child(key >> KEY_SHIFT, key & ((1 << KEY_SHIFT) - 1))
        assert store.path_stats() == oracle.path_stats(store)


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
            model._store,
            model._symbols,
            special_threshold=getattr(
                model, "special_link_threshold", params.SPECIAL_LINK_THRESHOLD
            ),
        )
        oracle.assert_same_tables(model._compiled_table(), want)
        assert model._store.path_stats() == oracle.path_stats(model._store)
