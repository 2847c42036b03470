"""The declarative scenario grid: scenario × model × pruning, one tree.

An icarus-``config.py``-style experiment description: a plain dict (or
JSON file) names the scenarios to generate, the models to fit and the
pruning settings to sweep, and :func:`run_grid` evaluates every cell
through the existing trace, model and replay layers, emitting one
comparable results tree::

    {"spec": {...},
     "scenarios": {
       "flashcrowd": {
         "generation": {"events": ..., "events_per_s": ..., ...},
         "models": {"pb": {"hit_ratio": ..., "traffic_increment": ...,
                           "node_count": ..., ...}, ...},
         "serving": {"requests_per_s": ..., ...}}}}          # optional

Each scenario streams through the columnar bridge to a temporary
``.rpt`` and is loaded back as a :class:`~repro.trace.dataset.Trace` —
the same end-to-end path ``repro generate`` users take — then split at a
time quantile (``train_fraction``), fitted, and replayed through
:class:`~repro.sim.engine.PrefetchSimulator`.

Grid specs validate against :data:`SPEC_KEYS`, each scenario against
:data:`SCENARIO_KEYS`; unknown keys fail with the registry-wide error
convention, so a typo in a spec file reads the same as a typo in
``--workload``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Mapping

from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import WorkloadError, unknown_name_message
from repro.sampling.sampler import ClientSampler
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.latency import LatencyModel
from repro.trace.dataset import Trace, TrainTestSplit
from repro.workloads.bridge import stream_to_columnar
from repro.workloads.registry import create_workload, workload_by_name

#: Keys a grid spec may carry (all optional; defaults below).
SPEC_KEYS = (
    "name",
    "seed",
    "events",
    "train_fraction",
    "scenarios",
    "models",
    "pruning",
    "serve",
    "sample_rate",
    "sample_salt",
)

#: Keys one entry of ``scenarios`` may carry (``workload`` required).
SCENARIO_KEYS = ("workload", "label", "params")

#: Keys the optional ``serve`` mapping (the live-serving leg) may carry.
SERVE_KEYS = ("events", "train_events", "connections")

#: Model keys the grid can sweep, mirroring the lab's registry.
MODEL_KEYS = (
    "standard",
    "standard3",
    "lrs",
    "pb",
    "pb-unpruned",
    "markov1",
    "top10",
)

#: The default grid: all five built-in scenarios against the paper's
#: protagonist (PB-PPM) and its main baseline, no pruning sweep.  Small
#: enough to run in seconds; benchmarks and CI scale ``events`` up via
#: :func:`run_grid`'s ``events`` override.
DEFAULT_GRID: dict = {
    "name": "default",
    "seed": 7,
    "events": 20_000,
    "train_fraction": 0.7,
    "scenarios": [
        {"workload": "stationary"},
        {"workload": "diurnal"},
        {"workload": "flashcrowd"},
        {"workload": "churn"},
        {"workload": "crawler"},
    ],
    "models": ["pb", "standard"],
    "pruning": [None],
    "serve": None,
    "sample_rate": None,
    "sample_salt": 0,
}


def load_grid_spec(path: str) -> dict:
    """Load and validate a JSON grid spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkloadError(f"cannot load grid spec {path!r}: {exc}") from exc
    return validate_grid_spec(spec)


def validate_grid_spec(spec: Mapping) -> dict:
    """Check a grid spec's shape; returns it merged over the defaults."""
    if not isinstance(spec, Mapping):
        raise WorkloadError(
            f"grid spec must be a mapping, got {type(spec).__name__}"
        )
    for key in spec:
        if key not in SPEC_KEYS:
            raise WorkloadError(
                unknown_name_message("grid spec key", str(key), SPEC_KEYS)
            )
    merged = {**DEFAULT_GRID, **spec}
    if not 0.0 < float(merged["train_fraction"]) < 1.0:
        raise WorkloadError(
            f"train_fraction out of (0,1): {merged['train_fraction']}"
        )
    if int(merged["events"]) <= 0:
        raise WorkloadError(f"events must be > 0, got {merged['events']}")
    if not merged["scenarios"]:
        raise WorkloadError("grid spec names no scenarios")
    labels = set()
    for scenario in merged["scenarios"]:
        if not isinstance(scenario, Mapping) or "workload" not in scenario:
            raise WorkloadError(
                f"each scenario needs a 'workload' key: {scenario!r}"
            )
        for key in scenario:
            if key not in SCENARIO_KEYS:
                raise WorkloadError(
                    unknown_name_message(
                        "grid scenario key", str(key), SCENARIO_KEYS
                    )
                )
        if not isinstance(scenario.get("params", {}), Mapping):
            raise WorkloadError(
                "grid scenario 'params' must be a mapping, got "
                f"{type(scenario['params']).__name__}"
            )
        workload_by_name(str(scenario["workload"]))  # fail fast, did-you-mean
        label = str(scenario.get("label", scenario["workload"]))
        if label in labels:
            raise WorkloadError(f"duplicate scenario label {label!r}")
        labels.add(label)
    for model_key in merged["models"]:
        if model_key not in MODEL_KEYS:
            raise WorkloadError(
                unknown_name_message("model", str(model_key), MODEL_KEYS)
            )
    serve = merged["serve"]
    if serve:
        if not isinstance(serve, Mapping):
            raise WorkloadError(
                f"grid spec 'serve' must be a mapping, got {type(serve).__name__}"
            )
        for key in serve:
            if key not in SERVE_KEYS:
                raise WorkloadError(
                    unknown_name_message("grid serve key", str(key), SERVE_KEYS)
                )
    if merged["sample_rate"] is not None:
        ClientSampler(merged["sample_rate"], salt=int(merged["sample_salt"] or 0))
    return merged


def fraction_cut(trace: Trace, train_fraction: float) -> float:
    """The timestamp below which ``train_fraction`` of page views fall."""
    timestamps = trace.requests.column("timestamps")
    cut_index = min(
        len(timestamps) - 1, max(0, int(len(timestamps) * train_fraction))
    )
    return float(timestamps[cut_index])


def fraction_split(trace: Trace, train_fraction: float) -> TrainTestSplit:
    """Split a trace at the ``train_fraction`` time quantile.

    Workload streams span arbitrary durations, so the lab's day-based
    split does not apply; the cut is the timestamp below which
    ``train_fraction`` of the requests fall.  Sessions *starting* at or
    before the cut train the models (a session straddling the cut leaks
    its tail into training — accepted, as real log splits do the same).
    Each side is a row mask over the trace's views: no page view or
    session is built.
    """
    requests, sessions = trace.requests, trace.sessions
    cut = fraction_cut(trace, train_fraction)
    in_train = requests.column("timestamps") <= cut
    if in_train.all() or not in_train.any():
        raise WorkloadError(
            "degenerate train/test split; increase events or adjust "
            "train_fraction"
        )
    starts_in_train = sessions.start_times <= cut
    return TrainTestSplit(
        train_days=(),
        test_days=(),
        train_sessions=sessions.where(starts_in_train),
        test_sessions=sessions.where(~starts_in_train),
        train_requests=requests.where(in_train),
        test_requests=requests.where(~in_train),
    )


def build_model(key: str, popularity: PopularityTable, prune):
    """One fitted-model factory, honouring a pruning override for PB."""
    if key == "pb":
        if prune is None:
            return PopularityBasedPPM(popularity)
        return PopularityBasedPPM(
            popularity, prune_relative_probability=float(prune)
        )
    if key == "pb-unpruned":
        return PopularityBasedPPM(
            popularity,
            prune_relative_probability=None,
            prune_absolute_count=None,
        )
    if key == "standard":
        return StandardPPM()
    if key == "standard3":
        return StandardPPM.order_3()
    if key == "lrs":
        return LRSPPM()
    if key == "markov1":
        return FirstOrderMarkov()
    if key == "top10":
        return TopNPush(n=10)
    raise WorkloadError(unknown_name_message("model", key, MODEL_KEYS))


def _cell_label(model_key: str, prune) -> str:
    return model_key if prune is None else f"{model_key}@rel={prune}"


def _serving_metrics(scenario: Mapping, serve: Mapping, seed: int) -> dict:
    """Drive a spawned server with the live workload stream."""
    from repro.serve.loadgen import run_loadgen

    report = run_loadgen(
        workload=str(scenario["workload"]),
        workload_params=dict(scenario.get("params", {})),
        seed=seed,
        events=int(serve.get("events", 400)),
        train_events=int(serve.get("train_events", 1_500)),
        connections=int(serve.get("connections", 2)),
        spawn=True,
    )
    return {
        "requests": report["requests_total"],
        "failed": report["failed_requests"],
        "requests_per_s": report["requests_per_s"],
        "predictions_per_s": report["predictions_per_s"],
        "latency_p50_ms": report["latency_ms"]["p50"],
        "latency_p99_ms": report["latency_ms"]["p99"],
    }


def run_grid(
    spec: Mapping | None = None,
    *,
    events: int | None = None,
    out: str | None = None,
    progress=None,
    sample_rate: float | None = None,
    sample_salt: int | None = None,
) -> dict:
    """Evaluate a grid spec; returns (and optionally writes) the tree.

    Parameters
    ----------
    spec:
        A validated or raw grid spec; None runs :data:`DEFAULT_GRID`.
    events:
        Override of the spec's per-scenario event count (benchmarks and
        CI bound their grids this way).
    out:
        Path to write the results tree to as JSON.
    progress:
        Optional callable receiving one line per completed stage.
    sample_rate / sample_salt:
        Override of the spec's client-hash sampling.  Sampling is
        applied while the scenario streams to its temporary ``.rpt``,
        so a huge-trace cell never materialises the full window — the
        trace, split, model and replay are all sample-sized.  Count
        metrics are additionally reported scaled by ``1/rate``.
    """
    spec = validate_grid_spec(spec if spec is not None else DEFAULT_GRID)
    if events is not None:
        if events <= 0:
            raise WorkloadError(f"events must be > 0, got {events}")
        spec["events"] = events
    if sample_rate is not None:
        spec["sample_rate"] = float(sample_rate)
    if sample_salt is not None:
        spec["sample_salt"] = int(sample_salt)
    sampler = None
    if spec["sample_rate"] is not None and float(spec["sample_rate"]) < 1.0:
        sampler = ClientSampler(
            float(spec["sample_rate"]), salt=int(spec["sample_salt"] or 0)
        )
    say = progress if progress is not None else (lambda line: None)
    seed = int(spec["seed"])
    tree: dict = {
        "spec": {key: spec[key] for key in SPEC_KEYS},
        "scenarios": {},
    }
    for scenario in spec["scenarios"]:
        label = str(scenario.get("label", scenario["workload"]))
        workload = create_workload(
            str(scenario["workload"]),
            seed=seed,
            **dict(scenario.get("params", {})),
        )
        handle, path = tempfile.mkstemp(suffix=".rpt")
        os.close(handle)
        try:
            start = time.perf_counter()
            written = stream_to_columnar(
                workload, path, events=int(spec["events"]), sample=sampler
            )
            generate_s = time.perf_counter() - start
            trace = Trace.from_columnar_file(path, name=label)
        finally:
            os.unlink(path)
        cut = fraction_cut(trace, float(spec["train_fraction"]))
        split = fraction_split(trace, float(spec["train_fraction"]))
        test_batch = trace.request_batch_after(cut)
        popularity = PopularityTable.from_requests(split.train_requests)
        latency = LatencyModel.fit_requests(split.train_requests)
        url_sizes = trace.url_size_table()
        client_kinds = trace.classify_clients()
        node: dict = {
            "generation": {
                "events": written,
                "events_per_s": written / max(generate_s, 1e-9),
                "clients": len(client_kinds),
                "urls": len(url_sizes),
                "train_requests": len(split.train_requests),
                "test_requests": len(split.test_requests),
            },
            "models": {},
        }
        if sampler is not None:
            node["sampling"] = {
                "rate": sampler.rate,
                "salt": sampler.salt,
                "requested_events": int(spec["events"]),
                "kept_events": written,
                "kept_fraction": written / max(int(spec["events"]), 1),
                "scale": sampler.scale,
            }
        say(f"{label}: generated {written} events")
        for model_key in spec["models"]:
            for prune in spec["pruning"]:
                if prune is not None and model_key != "pb":
                    continue  # pruning only parameterises PB-PPM
                model = build_model(model_key, popularity, prune)
                model.fit(split.train_sessions)
                base = "pb" if model_key.startswith("pb") else model_key
                config = SimulationConfig.for_model(base)
                simulator = PrefetchSimulator(
                    model, url_sizes, latency, config, popularity=popularity
                )
                result = simulator.run(test_batch, client_kinds=client_kinds)
                cell = _cell_label(model_key, prune)
                node["models"][cell] = {
                    "hit_ratio": result.hit_ratio,
                    "latency_reduction": result.latency_reduction,
                    "traffic_increment": result.traffic_increment,
                    "node_count": result.node_count,
                    "requests": result.requests,
                    "predictions_made": result.predictions_made,
                }
                if sampler is not None:
                    node["models"][cell]["node_count_scaled"] = (
                        result.node_count * sampler.scale
                    )
                say(f"{label}/{cell}: hit_ratio={result.hit_ratio:.3f}")
        if spec["serve"]:
            node["serving"] = _serving_metrics(scenario, spec["serve"], seed)
            say(f"{label}: serving {node['serving']['requests_per_s']:.0f} req/s")
        tree["scenarios"][label] = node
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tree, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return tree
