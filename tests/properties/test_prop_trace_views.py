"""Property-based tests on the column-backed trace views (hypothesis).

:class:`~repro.trace.dataset.Trace` hands out page views and sessions as
read-only views over the trace plane's columns, and the set-up tables and
the model fit read those columns instead of objects.  Over seeded
generator traces, some with chaos records (404s, POSTs, shuffled order),
this module checks three contracts against the record-by-record
:class:`tests.oracle.ReferenceTrace`:

* **the view contract** — ``len``, positive and negative indexing,
  slicing, iteration and ``==`` behave like the reference's tuples, for
  ``requests``, ``sessions``, both day slices, the day split and the
  workload grid's fraction split (whose reference is the tuple filter
  :func:`tests.oracle.fraction_split`);
* **the column builders** — a popularity table (counts, grades, dict
  order) and a latency fit read from a view equal the ones read from the
  view's objects;
* **one fit input** — ``fit(view)`` and ``fit(tuple(view))`` agree on the
  symbol table URL by URL, on every store array and on the compiled
  prediction table, for every model of the workload grid's families.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import TraceError, WorkloadError
from repro.kernel.symbols import SymbolTable
from repro.sim.engine import replay_rows, request_sort_key
from repro.sim.latency import LatencyModel
from repro.synth.generator import TraceGenerator
from repro.trace.dataset import Trace
from repro.workloads import grid

from tests import oracle
from tests.differential.test_columnar_replay import _chaoticize

PROFILES = ("nasa-like", "ucb-like", "uniform-like")
SCALE = 0.03

#: Every array and map of a compact store.
STORE_FIELDS = (
    "syms",
    "counts",
    "parents",
    "first_child",
    "next_sibling",
    "used",
    "children",
    "roots",
    "special_links",
)


@st.composite
def traces(draw):
    """A (Trace, ReferenceTrace) pair over one seeded generator trace."""
    profile = draw(st.sampled_from(PROFILES))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    days = draw(st.integers(min_value=1, max_value=3))
    records = TraceGenerator(profile, seed=seed, scale=SCALE).generate_records(days)
    if draw(st.booleans()):
        records = _chaoticize(records, seed)
    try:
        return Trace(list(records)), oracle.ReferenceTrace(list(records))
    except TraceError:
        return None


def _positions(n: int) -> list[int]:
    return sorted({0, 1, n // 2, n - 1, -1, -2, -n} & set(range(-n, n)))


def _assert_same_sequence(view, reference: tuple) -> None:
    """``view`` behaves like the tuple ``reference`` in every way tested."""
    n = len(reference)
    assert len(view) == n
    assert view == reference and reference == view
    assert not (view != reference)
    assert list(view) == list(reference)
    assert bool(view) == bool(reference)
    for i in _positions(n):
        assert view[i] == reference[i]
    for part in (slice(1, n // 2), slice(None, None, 2), slice(None, None, -1)):
        sliced = view[part]
        assert type(sliced) is type(view)
        assert sliced == reference[part]
    if n:
        assert view[n - 1 :] == reference[-1:]
        assert view != reference + reference[:1]


def _assert_same_split(split, reference) -> None:
    assert split.train_days == reference.train_days
    assert split.test_days == reference.test_days
    for field in ("train_sessions", "test_sessions", "train_requests", "test_requests"):
        _assert_same_sequence(getattr(split, field), getattr(reference, field))
    assert split == reference


@given(traces())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_views_behave_like_the_reference_tuples(pair):
    if pair is None:
        return
    trace, reference = pair
    _assert_same_sequence(trace.requests, reference.requests)
    _assert_same_sequence(trace.sessions, reference.sessions)
    for days in ((0,), (trace.num_days - 1,), tuple(range(trace.num_days))):
        _assert_same_sequence(
            trace.requests_for_days(days), reference.requests_for_days(days)
        )
        _assert_same_sequence(
            trace.sessions_for_days(days), reference.sessions_for_days(days)
        )
    if trace.num_days >= 2:
        _assert_same_split(
            trace.split(trace.num_days - 1),
            reference.split(trace.num_days - 1),
        )
    for fraction in (0.3, 0.7):
        try:
            want = oracle.fraction_split(reference, fraction)
        except WorkloadError:
            continue
        assert grid.fraction_cut(trace, fraction) == want.train_requests[-1].timestamp
        _assert_same_split(grid.fraction_split(trace, fraction), want)


@given(traces())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_views_replay_in_request_sort_key_order(pair):
    """Any view, in column order or not, replays as its sorted objects."""
    if pair is None:
        return
    trace, _reference = pair
    for view in (trace.requests, trace.requests[::-1], trace.requests[1::3]):
        assert list(replay_rows(view)) == [
            (r.client, r.url, r.timestamp, r.total_bytes)
            for r in sorted(view, key=request_sort_key)
        ]


def _table_state(table: PopularityTable) -> tuple:
    return (
        list(table._counts.items()),
        list(table._grades.items()),
        table.grade_histogram(),
        table.most_popular_count,
    )


@given(traces())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_column_builders_equal_their_object_inputs(pair):
    if pair is None:
        return
    trace, reference = pair
    requests, sessions = trace.requests, trace.sessions
    for view, objects in (
        (requests, tuple(requests)),
        (requests[::2], reference.requests[::2]),
    ):
        assert _table_state(PopularityTable.from_requests(view)) == _table_state(
            PopularityTable.from_requests(objects)
        )
        assert LatencyModel.fit_requests(view) == LatencyModel.fit_requests(objects)
    assert _table_state(PopularityTable.from_sessions(sessions)) == _table_state(
        PopularityTable.from_sessions(reference.sessions)
    )
    assert trace.url_access_counts(requests) == reference.url_access_counts()
    assert list(trace.url_access_counts(requests).items()) == list(
        PopularityTable.from_requests(reference.requests)._counts.items()
    )


def _models(popularity: PopularityTable):
    return (
        PopularityBasedPPM(popularity),
        StandardPPM(),
        LRSPPM(),
        FirstOrderMarkov(),
        TopNPush(n=10),
    )


@given(traces())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_fit_reads_a_view_as_its_objects(pair):
    if pair is None:
        return
    trace, reference = pair
    if trace.num_days >= 2:
        view = trace.split(trace.num_days - 1).train_sessions
    else:
        view = trace.sessions
    objects = tuple(view)
    popularity = PopularityTable.from_sessions(view)
    interned = SymbolTable()
    for session in objects:
        interned.intern_sequence(session.urls)
    for from_view, from_objects in zip(_models(popularity), _models(popularity)):
        from_view.fit(view)
        from_objects.fit(objects)
        symbols = from_view._symbols.urls()
        assert symbols == from_objects._symbols.urls()
        if isinstance(from_view, TopNPush):
            assert symbols == tuple(url for url, _ in from_view._push_set)
        else:
            assert symbols == interned.urls()
        for field in STORE_FIELDS:
            assert getattr(from_view._store, field) == getattr(
                from_objects._store, field
            ), (from_view.name, field)
        oracle.assert_same_tables(
            from_view._compiled_table(), from_objects._compiled_table()
        )
