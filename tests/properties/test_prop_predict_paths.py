"""Property-based agreement of the table's predictions with the oracle.

For arbitrary small corpora and contexts, the compiled prediction table
(cut at the default threshold and at an off-default one) and the literal
node forest of ``tests/oracle.py`` must return *identical* prediction
lists — URL for URL, probability for probability, in the same order.
Small URL alphabets make equal-count children (and therefore equal
conditional probabilities) common, so these properties lean on the
tie-break contract: candidates sort by ``(-probability, url)`` and the
ordering must be deterministic and representation-independent.  A
stricter cousin of the seeded differential suite: hypothesis hunts the
corner corpora a fixed corpus never contains.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM

from tests.helpers import make_sessions
from tests.oracle import OracleModel

THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD
#: An off-default threshold: the same table, cut elsewhere.
OFF_DEFAULT_THRESHOLD = 0.2

urls = st.sampled_from(["a", "b", "c", "d"])
sequences = st.lists(urls, min_size=1, max_size=8)
corpora = st.lists(sequences, min_size=1, max_size=10)
contexts = st.lists(urls, min_size=1, max_size=6)


def popularity_for(corpus) -> PopularityTable:
    counts: dict[str, int] = {}
    for sequence in corpus:
        for url in sequence:
            counts[url] = counts.get(url, 0) + 1
    return PopularityTable({u: c * 7 for u, c in counts.items()})


def _as_tuples(predictions):
    return [(p.url, p.probability, p.order, p.source) for p in predictions]


def _assert_matches_oracle(model_factory, corpus, context):
    """The table at the default and an off-default threshold equals the
    oracle."""
    sessions = make_sessions(corpus)
    model = model_factory(corpus).fit(sessions)
    oracle = OracleModel(model_factory(corpus), sessions)
    for threshold in (THRESHOLD, OFF_DEFAULT_THRESHOLD):
        got = model.predict(context, threshold=threshold, mark_used=False)
        want = oracle.predict(context, threshold=threshold, mark_used=False)
        assert _as_tuples(got) == _as_tuples(want), threshold


def _pb_factory(corpus):
    return PopularityBasedPPM(popularity_for(corpus))


def _standard_factory(corpus):
    return StandardPPM()


@settings(max_examples=60, deadline=None)
@given(corpus=corpora, context=contexts)
def test_pb_tie_breaks_identical_across_representations(corpus, context):
    _assert_matches_oracle(_pb_factory, corpus, context)


@settings(max_examples=60, deadline=None)
@given(corpus=corpora, context=contexts)
def test_standard_tie_breaks_identical_across_representations(
    corpus, context
):
    _assert_matches_oracle(_standard_factory, corpus, context)


@settings(max_examples=40, deadline=None)
@given(corpus=corpora, context=contexts)
def test_ordering_is_deterministic_and_sorted(corpus, context):
    """The published list is sorted by (-probability, url) — ties break
    lexicographically, never by insertion or node order — and repeating
    the call changes nothing."""
    sessions = make_sessions(corpus)
    model = _pb_factory(corpus).fit(sessions)
    first = _as_tuples(
        model.predict(context, threshold=THRESHOLD, mark_used=False)
    )
    again = _as_tuples(
        model.predict(context, threshold=THRESHOLD, mark_used=False)
    )
    assert first == again
    keys = [(-probability, url) for url, probability, _o, _s in first]
    assert keys == sorted(keys)
