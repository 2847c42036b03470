"""Differential testing: three ways to build the same client subsample.

A :class:`~repro.sampling.ClientSampler` can act at three different
points of the pipeline:

(a) **columnar mask** — build the full columnar trace, then
    ``Trace.sampled`` slices the plane through a vectorised keep-mask
    over the interned client table;
(b) **object filter** — build the record-by-record reference trace
    (:class:`tests.oracle.ReferenceTrace`), then filter its records
    through ``sampler.keeps`` and re-derive;
(c) **pre-filtered .rpt** — filter the raw record stream *before* any
    trace exists, write the survivors to a columnar file (the
    ``stream_to_columnar(sample=...)`` path the grid takes), and load
    that back.

The contract is bit-identity: whichever point the sampler acts at, the
sampled trace's sessions, popularity counts, fitted model and every
simulator metric must be exactly equal — the sampler only ever decides
*which clients exist*, never how the surviving records derive.  This
suite replays ~50 seeded synthetic traces (chaos noise included) through
all three paths and, on divergence, shrinks to a minimal reproducer with
the same greedy-delta loop as ``test_columnar_replay.py``.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import dumps_model
from repro.errors import TraceError
from repro.sampling import ClientSampler
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.latency import LatencyModel
from repro.synth.generator import TraceGenerator
from repro.trace.columnar import ColumnarWriter
from repro.trace.dataset import Trace
from repro.trace.record import LogRecord

from tests.differential.test_columnar_replay import _chaoticize
from tests.oracle import ReferenceTrace

SEED = 20260808
PROFILES = ("nasa-like", "ucb-like", "uniform-like")
SEEDS_PER_PROFILE = 17  # 3 profiles x 17 seeds = 51 traces
MIN_TRACES = 50
DAYS = 2
SCALE = 0.04
RATE = 0.5

#: The three sampler application points, compared pairwise against (a).
PATHS = ("columnar-mask", "object-filter", "rpt-refilter")

#: Aspects compared between paths, in report order.
ASPECTS = ("sessionisation", "popularity", "clients", "model", "simulation")

_UNBUILDABLE = "unbuildable: no records survived"


def _records(profile: str, seed: int) -> list[LogRecord]:
    generator = TraceGenerator(profile, seed=seed, scale=SCALE)
    return generator.generate_records(DAYS)


def _build_sampled(
    records, sampler: ClientSampler, path: str
) -> "Trace | ReferenceTrace":
    """One sampled trace via the named construction path."""
    if path == "rpt-refilter":
        handle, rpt = tempfile.mkstemp(suffix=".rpt")
        os.close(handle)
        try:
            with ColumnarWriter(rpt) as writer:
                for record in sampler.sample_records(records):
                    writer.append(record)
            return Trace.from_columnar_file(rpt, use_mmap=False)
        finally:
            os.unlink(rpt)
    if path == "object-filter":
        return ReferenceTrace(list(records)).sampled(sampler)
    return Trace(list(records)).sampled(sampler)


def _signature(records, sampler: ClientSampler, path: str) -> dict:
    """Everything downstream code reads from a sampled trace."""
    try:
        trace = _build_sampled(records, sampler, path)
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
                split.test_requests
                if path == "object-filter"
                else trace.request_batch_for_days(split.test_days)
            )
            sig["simulation"] = simulator.run(
                requests, client_kinds=trace.classify_clients()
            )
    return sig


def _first_divergence(records, sampler, path):
    """First ``(aspect, mask_value, other_value)`` vs path (a), or None."""
    reference = _signature(records, sampler, "columnar-mask")
    other = _signature(records, sampler, path)
    for aspect in ASPECTS:
        if reference.get(aspect) != other.get(aspect):
            return (aspect, reference.get(aspect), other.get(aspect))
    return None


def _shrink(records, sampler, path):
    """Greedy delta debugging, as in ``test_columnar_replay._shrink``."""
    records = list(records)
    chunk = max(1, len(records) // 2)
    while True:
        shrunk = False
        i = 0
        while i < len(records):
            candidate = records[:i] + records[i + chunk :]
            if candidate and _first_divergence(candidate, sampler, path):
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


def _report_divergence(label: str, records, sampler, path) -> str:
    minimal = _shrink(records, sampler, path)
    aspect, reference, other = _first_divergence(minimal, sampler, path)
    return (
        f"sampling path {path!r} diverged from the columnar mask on "
        f"{label} ({len(records)} records, {sampler!r})\n"
        f"minimal divergent trace ({len(minimal)} records): {_clip(minimal)}\n"
        f"first divergent aspect: {aspect}\n"
        f"  columnar-mask: {_clip(reference)}\n"
        f"  {path}: {_clip(other)}"
    )


# ---------------------------------------------------------------------------
# ~50 seeded traces, all three sampler application points bit-identical
# ---------------------------------------------------------------------------


class TestSamplingPathAgreement:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_seeded_trace_agrees(self, profile):
        buildable = 0
        for index in range(SEEDS_PER_PROFILE):
            seed = SEED + index
            records = _records(profile, seed)
            if index % 3 == 0:
                # Every third trace rides with chaos noise injected.
                records = _chaoticize(records, seed)
            sampler = ClientSampler(RATE, salt=seed)
            for path in ("object-filter", "rpt-refilter"):
                if _first_divergence(records, sampler, path) is not None:
                    pytest.fail(
                        _report_divergence(
                            f"{profile!r} seed {seed}", records, sampler, path
                        )
                    )
            if (
                _signature(records, sampler, "columnar-mask")["sessionisation"]
                is not _UNBUILDABLE
            ):
                buildable += 1
            assert len(records) >= 50
        # Guard against vacuous agreement: most samples must be non-empty.
        assert buildable >= SEEDS_PER_PROFILE - 3

    def test_corpus_is_large_enough(self):
        assert len(PROFILES) * SEEDS_PER_PROFILE >= MIN_TRACES

    def test_no_divergence_reports_none(self):
        records = _records("nasa-like", SEED)
        sampler = ClientSampler(RATE, salt=SEED)
        assert _first_divergence(records, sampler, "object-filter") is None
        assert _first_divergence(records, sampler, "rpt-refilter") is None


# ---------------------------------------------------------------------------
# The shrinking loop itself must be trustworthy against a broken sampler
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrink_finds_minimal_counterexample(self):
        """A sampler whose object path keeps one extra client must shrink
        to a minimal trace that still exposes the disagreement."""

        class BrokenSampler(ClientSampler):
            def sample_records(self, records):
                # Object path keeps everything: a deliberate client-set bug.
                return iter(list(records))

            def keeps(self, client):
                return True

        records = _records("nasa-like", SEED)[:40]
        honest = ClientSampler(0.5, salt=SEED)
        broken = BrokenSampler(0.5, salt=SEED)

        def divergence(candidate):
            reference = _signature(candidate, honest, "columnar-mask")
            other = _signature(candidate, broken, "object-filter")
            for aspect in ASPECTS:
                if reference.get(aspect) != other.get(aspect):
                    return aspect
            return None

        assert divergence(records) is not None
        # Greedy delta against the mixed pair of samplers.
        minimal = list(records)
        chunk = max(1, len(minimal) // 2)
        while True:
            shrunk = False
            i = 0
            while i < len(minimal):
                candidate = minimal[:i] + minimal[i + chunk :]
                if candidate and divergence(candidate):
                    minimal = candidate
                    shrunk = True
                else:
                    i += chunk
            if chunk == 1:
                if not shrunk:
                    break
            else:
                chunk = max(1, chunk // 2)
        assert divergence(minimal) is not None
        assert len(minimal) <= 4
