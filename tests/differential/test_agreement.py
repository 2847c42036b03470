"""Differential testing: every prediction path must agree, click for click.

The repo answers "what should the client prefetch next?" through three
independently-implemented paths:

1. **batch** — ``model.predict(context)`` re-matching the trimmed context
   against the trie from scratch on every click;
2. **cursor** — the simulator's incremental :class:`PredictionCursor`
   (``prediction_cursor`` + ``predict_cursor``), which carries match state
   across clicks;
3. **tracker** — the serving layer's :class:`ClientSessionTracker`, which
   wraps a cursor per client behind the RCU :class:`ModelRef`.

The literal Fig. 1 node forest of ``tests/oracle.py``, built from the same
sessions and predicting by node longest-match, is replayed as a fourth
path: the reference the other three must match.  The HTTP leg — served
``/predict`` bodies against the tracker — is
``tests/differential/test_http_agreement.py``.  Every path runs at six
thresholds, from 0.0 to 1.0 with the default and a value a hair below it
among them; the three production paths answer each one by cutting the
rows of the same compiled table, and PB-PPM also runs at two
special-link thresholds.  This suite replays hundreds of seeded synthetic
sessions through all paths and asserts prediction-for-prediction
equality.  On divergence a
greedy shrinking loop reduces the session to a minimal reproducer before
failing, so the report names the shortest click sequence (and the first
divergent click) instead of a 40-click haystack.
"""

from __future__ import annotations

import pytest

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.serve.state import ClientSessionTracker, ModelRef, trim_context
from repro.synth import generate_trace
from repro.trace.sessions import Session

from tests.oracle import OracleModel

SEED = 20260805
MIN_SESSIONS = 100
CONTEXT_LENGTH = params.DEFAULT_MAX_CONTEXT_LENGTH
THRESHOLD = params.PREDICTION_PROBABILITY_THRESHOLD
#: Every threshold the suite runs at: the bounds, the default, and just
#: below the default by less than the comparison epsilon.
THRESHOLDS = (
    0.0,
    0.1,
    THRESHOLD - params.PROBABILITY_EPSILON / 2,
    THRESHOLD,
    0.5,
    1.0,
)


def _as_tuples(predictions):
    return tuple(
        (p.url, p.probability, p.order, p.source) for p in predictions
    )


# ---------------------------------------------------------------------------
# The three prediction paths (plus the node-forest oracle)
# ---------------------------------------------------------------------------


def _replay_batch(model, urls, threshold):
    """Path 1: stateless ``model.predict`` on the trimmed context."""
    out = []
    for i in range(len(urls)):
        context = trim_context(urls[: i + 1], CONTEXT_LENGTH)
        out.append(
            _as_tuples(
                model.predict(context, threshold=threshold, mark_used=False)
            )
        )
    return out


def _replay_cursor(model, urls, threshold):
    """Path 2: the simulator's incremental prediction cursor."""
    cursor = model.prediction_cursor(CONTEXT_LENGTH)
    out = []
    for url in urls:
        cursor.advance(url)
        out.append(
            _as_tuples(
                model.predict_cursor(
                    cursor, threshold=threshold, mark_used=False
                )
            )
        )
    return out


def _replay_tracker(model, urls, threshold, client="differential"):
    """Path 3: the serving layer's per-client session tracker."""
    tracker = ClientSessionTracker(
        ModelRef(model),
        idle_timeout_s=1e12,
        max_context_length=CONTEXT_LENGTH,
    )
    out = []
    for ts, url in enumerate(urls):
        tracker.observe(client, url, float(ts))
        predictions, _version = tracker.predict(client, threshold=threshold)
        out.append(_as_tuples(predictions))
    return out


PATH_NAMES = ("batch", "cursor", "tracker", "node-forest")


def _replay_all(models, urls, threshold):
    """Replay ``urls`` through every path; returns {path_name: per-click}."""
    return {
        "batch": _replay_batch(models["compact"], urls, threshold),
        "cursor": _replay_cursor(models["compact"], urls, threshold),
        "tracker": _replay_tracker(models["compact"], urls, threshold),
        "node-forest": _replay_batch(models["forest"], urls, threshold),
    }


def _first_divergence(models, urls, threshold=THRESHOLD):
    """First (click_index, path_a, path_b, preds_a, preds_b) or ``None``."""
    replays = _replay_all(models, urls, threshold)
    reference_name = PATH_NAMES[-1]
    reference = replays[reference_name]
    for name in PATH_NAMES[:-1]:
        for i, (want, got) in enumerate(zip(reference, replays[name])):
            if want != got:
                return (i, reference_name, name, want, got)
    return None


def _shrink(models, urls, threshold=THRESHOLD):
    """Greedy delta debugging: drop clicks while the divergence survives."""
    urls = list(urls)
    shrunk = True
    while shrunk and len(urls) > 1:
        shrunk = False
        for i in range(len(urls)):
            candidate = urls[:i] + urls[i + 1 :]
            if _first_divergence(models, candidate, threshold) is not None:
                urls = candidate
                shrunk = True
                break
    return urls


def _report_divergence(
    models, session: Session, index: int, threshold: float
) -> str:
    minimal = _shrink(models, session.urls, threshold)
    click, name_a, name_b, want, got = _first_divergence(
        models, minimal, threshold
    )
    return (
        f"prediction paths diverged on session #{index} at threshold "
        f"{threshold} "
        f"(client={session.client!r}, {len(session.urls)} clicks)\n"
        f"minimal divergent session ({len(minimal)} clicks): {minimal}\n"
        f"first divergent click: index {click} ({minimal[click]!r})\n"
        f"  {name_a}: {want}\n"
        f"  {name_b}: {got}"
    )


# ---------------------------------------------------------------------------
# Fixtures: one seeded corpus + one fitted model per module
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    trace = generate_trace("nasa-like", days=4, seed=SEED, scale=0.4)
    return trace.split(train_days=3, test_days=1)


@pytest.fixture(scope="module", params=THRESHOLDS, ids=repr, autouse=True)
def threshold(request):
    """Run the whole agreement suite at every threshold of
    :data:`THRESHOLDS`, each a different cut of the one compiled table."""
    return request.param


@pytest.fixture(scope="module")
def models(corpus):
    train = corpus.train_sessions
    popularity = PopularityTable.from_sessions(train)
    compact = PopularityBasedPPM(popularity).fit(train)
    forest = OracleModel(PopularityBasedPPM(popularity), train)
    return {"compact": compact, "forest": forest}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAllPathsAgree:
    def test_corpus_is_large_enough(self, corpus):
        assert len(corpus.test_sessions) >= MIN_SESSIONS

    def test_every_session_agrees_across_all_paths(
        self, corpus, models, threshold
    ):
        checked = 0
        for index, session in enumerate(corpus.test_sessions):
            divergence = _first_divergence(models, session.urls, threshold)
            if divergence is not None:
                pytest.fail(_report_divergence(models, session, index, threshold))
            checked += 1
        assert checked >= MIN_SESSIONS

    def test_standard_ppm_paths_agree_too(self, corpus, threshold):
        """The guarantee is model-independent: StandardPPM as well."""
        train = corpus.train_sessions
        models = {
            "compact": StandardPPM().fit(train),
            "forest": OracleModel(StandardPPM(), train),
        }
        for index, session in enumerate(corpus.test_sessions[:MIN_SESSIONS]):
            divergence = _first_divergence(models, session.urls, threshold)
            if divergence is not None:
                pytest.fail(_report_divergence(models, session, index, threshold))


    @pytest.mark.parametrize("special", (0.0, 0.3))
    def test_pb_special_link_thresholds_agree(self, corpus, threshold, special):
        """PB-PPM's special rows are cut at the model's special-link
        threshold per prediction; off its default too."""
        train = corpus.train_sessions
        popularity = PopularityTable.from_sessions(train)
        models = {
            "compact": PopularityBasedPPM(
                popularity, special_link_threshold=special
            ).fit(train),
            "forest": OracleModel(
                PopularityBasedPPM(popularity, special_link_threshold=special),
                train,
            ),
        }
        for index, session in enumerate(corpus.test_sessions[:MIN_SESSIONS]):
            divergence = _first_divergence(models, session.urls, threshold)
            if divergence is not None:
                pytest.fail(_report_divergence(models, session, index, threshold))


class TestShrinker:
    """The shrinking loop itself must be trustworthy."""

    def test_shrink_finds_minimal_counterexample(self, models, threshold):
        """Against a deliberately broken twin, the shrinker converges on a
        1-click session — the smallest input that can still diverge."""

        class _Broken:
            """Wraps the real model but drops every prediction."""

            def __init__(self, inner):
                self._inner = inner

            def predict(self, context, **kwargs):
                return []

            def prediction_cursor(self, max_length):
                return self._inner.prediction_cursor(max_length)

            def predict_cursor(self, cursor, **kwargs):
                return []

        real = models["compact"]
        broken = {"compact": real, "forest": _Broken(real)}
        # Find a session where the real model predicts something.
        urls = None
        for head in list(real.roots)[:50]:
            candidate = (head,)
            if real.predict(candidate, threshold=threshold, mark_used=False):
                urls = ("padding-click",) + candidate + ("padding-click",)
                break
        assert urls is not None, "fixture model never predicts anything"
        assert _first_divergence(broken, urls, threshold) is not None
        minimal = _shrink(broken, urls, threshold)
        assert len(minimal) == 1
        assert _first_divergence(broken, minimal, threshold) is not None

    def test_no_divergence_reports_none(self, models, threshold):
        assert _first_divergence(models, ("A", "B", "C"), threshold) is None
