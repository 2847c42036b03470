"""Differential testing: the columnar trace plane vs the object reference.

Two independent implementations of the whole trace-derivation pipeline:

1. **object** — ``sort_records`` / ``fold_embedded_objects`` /
   ``sessionize`` over :class:`~repro.trace.record.LogRecord` objects, the
   paper-literal reference (:class:`tests.oracle.ReferenceTrace`);
2. **columnar** — :class:`~repro.trace.dataset.Trace` and its
   :class:`~repro.trace.columnar.TracePlane`, running the same derivations
   as batched numpy passes over interned ID arrays, with the simulator
   replaying a :class:`~repro.trace.columnar.RequestBatch` instead of
   request objects.

The contract is bit-identity: sessionisation, popularity counts, the
fitted model structure and every simulator metric must be **exactly
equal** (``==``, no tolerances) whichever path built them.  This suite
replays 100+ seeded synthetic traces — across profiles, and with injected
chaos noise (404s, POSTs, shuffled order, latency gaps) — through both
paths and compares aspect by aspect.  On divergence a greedy-delta
shrinking loop reduces the record list to a minimal reproducer before
failing, mirroring the prediction-path harness in ``test_agreement.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import dumps_model
from repro.errors import TraceError
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.latency import LatencyModel
from repro.synth.generator import TraceGenerator
from repro.trace.dataset import Trace
from repro.trace.record import LogRecord

from tests.oracle import ReferenceTrace

SEED = 20260808
PROFILES = ("nasa-like", "ucb-like", "uniform-like")
SEEDS_PER_PROFILE = 34  # 3 profiles x 34 seeds = 102 traces
MIN_TRACES = 100
DAYS = 2
SCALE = 0.04

#: Aspects compared between the two paths, in report order.
ASPECTS = ("sessionisation", "popularity", "clients", "model", "simulation")

_UNBUILDABLE = "unbuildable: no successful GET records"


def _records(profile: str, seed: int) -> list[LogRecord]:
    generator = TraceGenerator(profile, seed=seed, scale=SCALE)
    return generator.generate_records(DAYS)


def _chaoticize(records: list[LogRecord], seed: int) -> list[LogRecord]:
    """Inject the noise a real log would carry: errors, POSTs, disorder.

    Both pipelines filter to successful GETs and re-sort, so none of this
    may change any derived aspect — which is exactly what makes it a good
    differential stressor for the filter/sort stages.
    """
    rng = random.Random(seed)
    last = records[-1].timestamp
    noise = []
    for _ in range(1 + len(records) // 20):
        ts = rng.uniform(0.0, last)
        noise.append(
            LogRecord(
                client=f"chaos-{rng.randrange(4)}",
                timestamp=ts,
                url=rng.choice(("/missing.html", "/cgi-bin/post", "/img/x.gif")),
                size=rng.choice((0, 512)),
                status=rng.choice((404, 304, 500)),
                method=rng.choice(("GET", "POST", "HEAD")),
                latency=rng.choice((None, 0.5)),
            )
        )
    mixed = list(records) + noise
    rng.shuffle(mixed)
    return mixed


def _build_trace(records, *, columnar: bool) -> "Trace | ReferenceTrace":
    return Trace(list(records)) if columnar else ReferenceTrace(list(records))


def _signature(records, *, columnar: bool) -> dict:
    """Everything downstream code reads from a trace, one aspect per key."""
    try:
        trace = _build_trace(records, columnar=columnar)
    except TraceError:
        return {"sessionisation": _UNBUILDABLE}
    sig = {
        "sessionisation": trace.sessions,
        "popularity": trace.url_access_counts(),
        "clients": (trace.clients, trace.classify_clients()),
    }
    if trace.num_days >= 2:
        split = trace.split(trace.num_days - 1)
        popularity = PopularityTable.from_sessions(split.train_sessions)
        model = PopularityBasedPPM(popularity).fit(split.train_sessions)
        sig["model"] = dumps_model(model)
        if split.test_requests:
            simulator = PrefetchSimulator(
                model,
                trace.url_size_table(),
                LatencyModel.fit_requests(split.train_requests),
                SimulationConfig.for_model("pb"),
                popularity=popularity,
            )
            requests = (
                trace.request_batch_for_days(split.test_days)
                if columnar
                else split.test_requests
            )
            sig["simulation"] = simulator.run(
                requests, client_kinds=trace.classify_clients()
            )
    return sig


def _columnar_signature(records) -> dict:
    return _signature(records, columnar=True)


def _first_divergence(records, columnar_signature=_columnar_signature):
    """First ``(aspect, object_value, columnar_value)`` or ``None``."""
    reference = _signature(records, columnar=False)
    columnar = columnar_signature(records)
    for aspect in ASPECTS:
        if reference.get(aspect) != columnar.get(aspect):
            return (aspect, reference.get(aspect), columnar.get(aspect))
    return None


def _shrink(records, columnar_signature=_columnar_signature):
    """Greedy delta debugging: drop record chunks while divergence survives.

    Starts with half-trace chunks and halves down to single records, so a
    thousand-record trace shrinks in O(n log n) signature evaluations
    instead of the O(n^2) of pure drop-one.
    """
    records = list(records)
    chunk = max(1, len(records) // 2)
    while True:
        shrunk = False
        i = 0
        while i < len(records):
            candidate = records[:i] + records[i + chunk :]
            if candidate and _first_divergence(candidate, columnar_signature):
                records = candidate
                shrunk = True
            else:
                i += chunk
        if chunk == 1:
            if not shrunk:
                return records
        else:
            chunk = max(1, chunk // 2)


def _clip(value, limit: int = 600) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _report_divergence(label: str, records) -> str:
    minimal = _shrink(records)
    aspect, reference, columnar = _first_divergence(minimal)
    return (
        f"columnar pipeline diverged from the object pipeline on {label} "
        f"({len(records)} records)\n"
        f"minimal divergent trace ({len(minimal)} records): {_clip(minimal)}\n"
        f"first divergent aspect: {aspect}\n"
        f"  object:   {_clip(reference)}\n"
        f"  columnar: {_clip(columnar)}"
    )


# ---------------------------------------------------------------------------
# 100+ seeded traces, every aspect bit-identical
# ---------------------------------------------------------------------------


class TestColumnarObjectAgreement:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_seeded_trace_agrees(self, profile):
        for index in range(SEEDS_PER_PROFILE):
            seed = SEED + index
            records = _records(profile, seed)
            if index % 3 == 0:
                # Every third trace rides with chaos noise injected.
                records = _chaoticize(records, seed)
            if _first_divergence(records) is not None:
                pytest.fail(
                    _report_divergence(f"{profile!r} seed {seed}", records)
                )
            # Guard against vacuous agreement on a degenerate trace.
            assert len(records) >= 50

    def test_corpus_is_large_enough(self):
        assert len(PROFILES) * SEEDS_PER_PROFILE >= MIN_TRACES

    def test_no_divergence_reports_none(self):
        records = _records("nasa-like", SEED)
        assert _first_divergence(records) is None


# ---------------------------------------------------------------------------
# The shrinking loop itself must be trustworthy
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrink_finds_minimal_counterexample(self):
        """Against a deliberately broken twin, the shrinker converges on a
        single-record trace — the smallest input that can still diverge."""

        def broken_columnar(records):
            # Wraps the real columnar path but drops the top URL's count.
            sig = _signature(records, columnar=True)
            popularity = sig.get("popularity")
            if isinstance(popularity, dict) and popularity:
                top = max(sorted(popularity), key=popularity.__getitem__)
                sig["popularity"] = {
                    url: count
                    for url, count in popularity.items()
                    if url != top
                }
            return sig

        records = _records("nasa-like", SEED)[:40]
        assert _first_divergence(records, broken_columnar) is not None
        minimal = _shrink(records, broken_columnar)
        assert len(minimal) == 1
        divergence = _first_divergence(minimal, broken_columnar)
        assert divergence is not None
        assert divergence[0] == "popularity"
