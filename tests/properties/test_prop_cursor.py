"""Property-based identity of the one-node cursor and the per-node memos.

A :class:`~repro.core.prediction.PredictionCursor` holds one node, its
context's longest suffix match; every shorter match is a suffix of that
node's path, reached through the compiled table's memoised suffix links.
For random weighted forests — fitted standard trees deeper than the
cursor's bound, PB-PPM trees with rise-only roots and special links, and
arbitrary stores that are not suffix-closed — and random click streams
with resets, walks down existing root paths, URLs the model never saw,
in-place ``insert_path`` / ``fold_sessions`` mid-stream (a resync) and
refits, after every step:

* ``cursor.matches()`` equals :func:`compact_suffix_matches` on
  ``cursor.context``;
* ``predict_cursor`` (the memoised per-node step) equals ``predict`` on
  the context (a fresh longest match), at two thresholds;
* a structural change hands predictions a freshly compiled table, so no
  memo outlives its store generation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.prediction import compact_suffix_matches
from repro.core.standard import StandardPPM
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import SymbolTable

from tests.helpers import make_sessions

ALPHABET = ("a", "b", "c", "d", "e")
#: Clicks also draw a URL no corpus contains.
CLICKS = ALPHABET + ("zz",)
THRESHOLDS = (0.0, 0.3)

sessions_st = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)
actions_st = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from(CLICKS)),
        st.tuples(st.just("advance"), st.sampled_from(CLICKS)),
        st.tuples(st.just("advance"), st.sampled_from(CLICKS)),
        st.tuples(st.just("reset")),
        # Click through the root path of an existing node, so deep
        # matches and the suffix links below them are common.
        st.tuples(st.just("walk"), st.integers(0, 10_000)),
        st.tuples(st.just("walk"), st.integers(0, 10_000)),
        st.tuples(
            st.just("insert"),
            st.lists(st.sampled_from(CLICKS), min_size=1, max_size=5),
        ),
        st.tuples(st.just("fold"), sessions_st),
        st.tuples(st.just("refit"), sessions_st),
    ),
    min_size=1,
    max_size=30,
)


def _popularity(corpus) -> PopularityTable:
    counts: dict[str, int] = {}
    for session in corpus:
        for url in session:
            counts[url] = counts.get(url, 0) + 1
    return PopularityTable({url: count * 7 for url, count in counts.items()})


@st.composite
def arbitrary_stores(draw):
    """Weighted root paths drawn independently (no suffix closure), with
    zero-count roots and special links."""
    symbols = SymbolTable(draw(st.permutations(ALPHABET)))
    store = CompactTrie()
    for path, weight in draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=6),
                st.sampled_from([1, 2, 3]),
            ),
            min_size=1,
            max_size=10,
        )
    ):
        store.insert_path(symbols.intern_sequence(path), weight)
    for url in draw(st.lists(st.sampled_from(ALPHABET), max_size=2)):
        store.ensure_root(symbols.get(url))
    roots = sorted(store.roots.values())
    for pick, linked in draw(
        st.lists(
            st.tuples(st.integers(0, 99), st.lists(st.integers(0, 99), max_size=3)),
            max_size=3,
        )
    ):
        store.special_links[roots[pick % len(roots)]] = [
            idx % len(store.syms) for idx in linked
        ]
    return store, symbols


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["standard", "pb", "arbitrary-pb", "arbitrary"]))
    corpus = draw(sessions_st)
    if kind == "standard":
        return StandardPPM().fit(make_sessions(corpus))
    if kind == "pb":
        return PopularityBasedPPM(
            _popularity(corpus), prune_relative_probability=None
        ).fit(make_sessions(corpus))
    model = (
        PopularityBasedPPM(_popularity(corpus), prune_relative_probability=None)
        if kind == "arbitrary-pb"
        else StandardPPM()
    ).fit(make_sessions(corpus))
    # Adopt an arbitrary forest as the model's next store generation.
    model._store, model._symbols = draw(arbitrary_stores())
    model._mutations += 1
    return model


def _assert_cursor_agrees(model, cursor):
    context = cursor.context
    assert cursor.matches() == compact_suffix_matches(
        model._store, model._symbols, context
    )
    for threshold in THRESHOLDS:
        assert model.predict_cursor(
            cursor, threshold=threshold, mark_used=False
        ) == model.predict(context, threshold=threshold, mark_used=False)


@settings(max_examples=150, deadline=None)
@given(model=models(), max_length=st.integers(1, 4), actions=actions_st)
def test_cursor_tracks_the_batch_matches(model, max_length, actions):
    cursor = model.prediction_cursor(max_length)
    _assert_cursor_agrees(model, cursor)
    for action in actions:
        table = model._compiled_table()
        kind = action[0]
        if kind == "advance":
            cursor.advance(action[1])
        elif kind == "reset":
            cursor.reset()
        elif kind == "walk":
            store, symbols = model._store, model._symbols
            node = action[1] % store.node_count
            for idx in table.path(node):
                cursor.advance(symbols.url(store.syms[idx]))
                _assert_cursor_agrees(model, cursor)
        elif kind == "insert":
            model.insert_path(action[1])
        elif kind == "fold":
            model.fold_sessions(make_sessions(action[1]))
        else:
            model.fit(make_sessions(action[1]))
        if kind in ("insert", "fold", "refit"):
            # A new store generation compiles a new table: no transition,
            # link or cut memo of the old one can answer for it.
            assert model._compiled_table() is not table
        _assert_cursor_agrees(model, cursor)


@settings(max_examples=80, deadline=None)
@given(model=models(), max_length=st.integers(1, 4), clicks=st.lists(
    st.sampled_from(CLICKS), max_size=20
))
def test_two_cursors_share_memos_without_interfering(model, max_length, clicks):
    """Cursors of different bounds on one table step through separate
    transition memos; a third replays the second's stream from scratch."""
    short = model.prediction_cursor(max_length)
    long = model.prediction_cursor(max_length + 3)
    for url in clicks:
        short.advance(url)
        long.advance(url)
        _assert_cursor_agrees(model, short)
        _assert_cursor_agrees(model, long)
    fresh = model.prediction_cursor(max_length + 3)
    for url in long.context:
        fresh.advance(url)
    assert fresh.node == long.node
