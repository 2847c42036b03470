"""Differential testing over HTTP: the served bodies vs in-process.

Boots a real :class:`PrefetchServer` on a :class:`ServerThread` and
replays seeded synthetic sessions over HTTP, one keep-alive connection per
client.  Every ``/predict`` response must match, prediction for
prediction, what an in-process :class:`ClientSessionTracker` over the same
model produces — proving the request path (parse, tracker, predict, JSON
encode) changes nothing about the paper's predictions.
"""

from __future__ import annotations

import pytest

from repro import params
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.serve.server import PrefetchServer, ServerThread
from repro.serve.state import ClientSessionTracker, ModelRef
from repro.synth import generate_trace

from tests.serve.conftest import ServeClient

SEED = 977
SESSIONS_TO_REPLAY = 20


@pytest.fixture(scope="module")
def corpus():
    trace = generate_trace("nasa-like", days=3, seed=SEED, scale=0.3)
    return trace.split(train_days=2, test_days=1)


@pytest.fixture(
    scope="module",
    params=(params.PREDICTION_PROBABILITY_THRESHOLD, 0.2),
    ids=repr,
    autouse=True,
)
def threshold(request):
    """The default threshold and a ``?threshold=`` off it: the server
    answers both by cutting the rows of the one compiled table."""
    return request.param


@pytest.fixture(scope="module")
def model(corpus):
    train = corpus.train_sessions
    return PopularityBasedPPM(PopularityTable.from_sessions(train)).fit(train)


@pytest.fixture(scope="module")
def server(model):
    handle = ServerThread(
        PrefetchServer(
            model, housekeeping_interval_s=0.05, idle_timeout_s=1e12
        )
    ).start()
    try:
        yield handle
    finally:
        handle.stop()


def _expected(model, urls, threshold):
    """Per-click predictions from an in-process tracker over ``model``."""
    tracker = ClientSessionTracker(ModelRef(model), idle_timeout_s=1e12)
    out = []
    for ts, url in enumerate(urls):
        tracker.observe("x", url, float(ts))
        predictions, _version = tracker.predict("x", threshold=threshold)
        out.append(
            [
                {
                    "url": p.url,
                    "probability": round(p.probability, 6),
                    "order": p.order,
                    "source": p.source,
                }
                for p in predictions
            ]
        )
    return out


class TestHttpServingAgrees:
    def test_http_predictions_match_in_process_tracker(
        self, corpus, model, server, threshold
    ):
        sessions = corpus.test_sessions[:SESSIONS_TO_REPLAY]
        assert len(sessions) >= SESSIONS_TO_REPLAY
        for index, session in enumerate(sessions):
            expected = _expected(model, session.urls, threshold)
            client_id = f"diff-{index}-{threshold}"
            http = ServeClient(server.host, server.port)
            try:
                for click, url in enumerate(session.urls):
                    status, _ = http.report(client_id, url, float(click))
                    assert status == 200
                    status, body = http.predict(client_id, threshold=threshold)
                    assert status == 200
                    assert body["predictions"] == expected[click], (
                        f"server diverged from in-process tracker on "
                        f"session #{index} click #{click} ({url!r}): "
                        f"served {body['predictions']!r}, "
                        f"expected {expected[click]!r}"
                    )
            finally:
                http.close()
