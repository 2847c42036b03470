"""Differential testing: integer-keyed replay vs the URL-keyed reference.

:class:`~repro.sim.engine.PrefetchSimulator` replays on one integer key
space per run: caches, shadows and prefetched maps are keyed by ints,
each client's context is one store node moved by the compiled table's
memoised transitions, and predictions come out of the model's per-node
step as ``(symbol, probability)`` rows.  ``tests/oracle.py`` keeps the
loops it replaced as :class:`~tests.oracle.ReferenceSimulator`: every map
keyed by URL, one :class:`~repro.core.prediction.PredictionCursor` per
client and one ``predict_cursor`` call, returning ``Prediction`` objects,
per click.

The contract is equality: every counter and float sum, both latency
lists, the path utilisation, the model's ``used`` bytes, the event log
and (for :class:`~repro.sim.adaptive.AdaptivePrefetchSimulator`) the
threshold trajectory.  The cases cover PB-PPM, standard PPM, LRS-PPM,
Markov-1, Top-10 and the lab's escape wrapper; client mode and proxy
mode with client subsets; all four cache policies; thresholds 0, 0.1,
0.25 and 1; context bounds 1, 2, 3 and 20; session-gap resets; URLs the
model never saw; and request views, request objects and columnar
batches as inputs.  On divergence a greedy-delta loop shrinks the
request list to a minimal reproducer before failing.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.standard import StandardPPM
from repro.experiments.lab import WorkloadLab, _EscapeWrapper
from repro.sim.adaptive import AdaptivePolicy, AdaptivePrefetchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.events import EventLog
from repro.sim.replacement import POLICIES
from repro.trace.columnar import RequestBatch
from repro.trace.record import Request

from tests.oracle import ReferenceSimulator

THRESHOLDS = (0.0, 0.1, 0.25, 1.0)
CONTEXT_BOUNDS = (1, 2, 3, 20)
MODELS = ("pb", "standard", "lrs", "markov1", "top10", "escape")
INPUTS = ("view", "objects", "batch")


class _ReferenceAdaptive(ReferenceSimulator, AdaptivePrefetchSimulator):
    """The reference loops under the adaptive threshold controller."""


@pytest.fixture(scope="module")
def lab():
    return WorkloadLab("nasa-like", total_days=3, seed=11, scale=0.15)


def _model(lab, key):
    popularity = lab.popularity(2)
    sessions = lab.split(2).train_sessions
    if key == "pb":
        return PopularityBasedPPM(popularity).fit(sessions)
    if key == "standard":
        return StandardPPM().fit(sessions)
    if key == "lrs":
        return LRSPPM().fit(sessions)
    if key == "markov1":
        return FirstOrderMarkov().fit(sessions)
    if key == "top10":
        return TopNPush(n=10).fit(sessions)
    return _EscapeWrapper(StandardPPM(max_height=4).fit(sessions), True)


def _with_unknown_urls(requests):
    """The test day plus clicks on URLs no model saw, mid-session and at
    session starts, so transitions out of the unknown key are exercised."""
    requests = list(requests)
    extra = []
    for index, request in enumerate(requests[::7]):
        extra.append(
            Request(
                client=request.client,
                timestamp=request.timestamp + 0.5,
                url=f"/never-seen/{index % 5}.html",
                size=1000 + 37 * index,
            )
        )
    return requests + extra


def _inputs(lab, kind):
    view = lab.split(2).test_requests
    if kind == "view":
        return view
    objects = _with_unknown_urls(view)
    return objects if kind == "objects" else RequestBatch.from_requests(objects)


def _config(case: int, model_key: str) -> SimulationConfig:
    """Case ``case`` of a model: every threshold over four cases, the
    context bounds, policies and cache sizes rotated across models."""
    shift = MODELS.index(model_key)
    small = (case + shift) % 2 == 0
    return SimulationConfig.for_model(
        "pb" if model_key == "pb" else "standard",
        prediction_threshold=THRESHOLDS[case % len(THRESHOLDS)],
        max_context_length=CONTEXT_BOUNDS[(case + shift) % len(CONTEXT_BOUNDS)],
        cache_policy=POLICIES[(case + 2 * shift) % len(POLICIES)],
        browser_cache_bytes=150_000 if small else 10_000_000,
        proxy_cache_bytes=600_000 if small else 100_000_000,
        max_prefetch_per_request=3 if small else 16,
        # Short idle gaps reset contexts within a session's day.
        idle_timeout_seconds=120.0 if case % 2 else 1800.0,
        reset_context_on_session_gap=case != 3,
        collect_latencies=True,
    )


def _replay(cls, lab, model, config, requests, topology, clients, **kwargs):
    log = EventLog(capacity=None)
    simulator = cls(
        model,
        lab.url_sizes,
        lab.latency(2),
        config,
        popularity=lab.popularity(2),
        event_log=log,
        **kwargs,
    )
    if topology == "client":
        result = simulator.run(requests, client_kinds=lab.client_kinds)
    else:
        result = simulator.run_proxy(requests, clients=clients)
    return {
        "result": result,
        "used": bytes(model._store.used) if model is not None else b"",
        "events": list(log.events),
        "trajectory": getattr(simulator, "threshold_trajectory", None),
    }


def _first_divergence(lab, model, config, requests, topology, clients, adaptive):
    """First ``(aspect, reference, engine)`` that differs, or None."""
    kwargs = {}
    classes = (ReferenceSimulator, PrefetchSimulator)
    if adaptive:
        kwargs["policy"] = AdaptivePolicy(traffic_budget=0.05, adjust_every=7)
        classes = (_ReferenceAdaptive, AdaptivePrefetchSimulator)
    want, got = (
        _replay(cls, lab, model, config, requests, topology, clients, **kwargs)
        for cls in classes
    )
    for aspect in ("result", "used", "events", "trajectory"):
        if want[aspect] != got[aspect]:
            return aspect, want[aspect], got[aspect]
    return None


def _shrink(diverges, requests):
    """Greedy delta debugging: drop request chunks while divergence holds."""
    requests = list(requests)
    chunk = max(1, len(requests) // 2)
    while True:
        shrunk = False
        i = 0
        while i < len(requests):
            candidate = requests[:i] + requests[i + chunk :]
            if candidate and diverges(candidate):
                requests = candidate
                shrunk = True
            else:
                i += chunk
        if chunk == 1:
            if not shrunk:
                return requests
        else:
            chunk = max(1, chunk // 2)


def _clip(value, limit: int = 600) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _check(lab, model, config, requests, topology, clients=None, adaptive=False):
    divergence = _first_divergence(
        lab, model, config, requests, topology, clients, adaptive
    )
    if divergence is None:
        return
    objects = list(requests) if not isinstance(requests, RequestBatch) else [
        Request(client=c, timestamp=t, url=u, size=s)
        for c, u, t, s in requests.iter_rows()
    ]

    def diverges(candidate):
        return _first_divergence(
            lab, model, config, candidate, topology, clients, adaptive
        ) is not None

    minimal = _shrink(diverges, objects)
    aspect, want, got = _first_divergence(
        lab, model, config, minimal, topology, clients, adaptive
    )
    pytest.fail(
        f"integer-keyed replay diverged from the reference ({topology}, "
        f"{config})\nminimal request list ({len(minimal)} of {len(objects)}): "
        f"{_clip(minimal)}\nfirst divergent aspect: {aspect}\n"
        f"  reference: {_clip(want)}\n  engine:    {_clip(got)}"
    )


@pytest.mark.parametrize("model_key", MODELS)
@pytest.mark.parametrize("topology", ("client", "proxy"))
def test_replay_agrees_with_the_reference(lab, model_key, topology):
    model = _model(lab, model_key)
    browsers = tuple(lab.browser_clients())
    for case in range(len(THRESHOLDS)):
        config = _config(case, model_key)
        requests = _inputs(lab, INPUTS[case % len(INPUTS)])
        # Proxy mode: every client, then a subset that skips some.
        clients = None if case % 2 == 0 else browsers[case::3]
        _check(lab, model, config, requests, topology, clients)


@pytest.mark.parametrize("model_key", ("pb", "standard", "escape"))
@pytest.mark.parametrize("topology", ("client", "proxy"))
def test_adaptive_replay_agrees_with_the_reference(lab, model_key, topology):
    """The controller reads the run's byte counters mid-run; its
    trajectory and the run must match click for click."""
    model = _model(lab, model_key)
    config = _config(1, model_key)
    requests = _inputs(lab, "objects")
    _check(lab, model, config, requests, topology, None, adaptive=True)


def test_caching_only_run_agrees(lab):
    config = replace(_config(0, "standard"), cache_policy="gdsf")
    for topology in ("client", "proxy"):
        _check(lab, None, config, _inputs(lab, "objects"), topology)


def test_the_suite_exercises_its_cases(lab):
    """Guard against vacuous agreement: the corpus predicts, prefetches,
    hits prefetched objects and clicks URLs the model never saw."""
    model = _model(lab, "pb")
    requests = _inputs(lab, "objects")
    known = set(model._symbols)
    assert any(r.url not in known for r in requests)
    result = PrefetchSimulator(
        model, lab.url_sizes, lab.latency(2), _config(1, "pb"),
        popularity=lab.popularity(2),
    ).run(requests, client_kinds=lab.client_kinds)
    assert result.requests > 300
    assert result.prefetches_issued > 0 and result.prefetch_hits > 0


def test_shrinker_finds_a_minimal_counterexample(lab):
    """Against a deliberately broken predicate (a divergence whenever one
    particular URL is replayed), the shrinker converges on that one
    request."""
    requests = _with_unknown_urls(lab.split(2).test_requests)[:60]
    target = requests[17].url
    minimal = _shrink(lambda rs: any(r.url == target for r in rs), requests)
    assert len(minimal) == 1 and minimal[0].url == target
