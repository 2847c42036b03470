"""Sampled-vs-full fidelity: error bars, bounds and a rate auto-picker.

Client-hash sampling is only useful if the error it introduces is
*quantified*: this module replays the same seeded workloads in full and
at each candidate rate, and reports, per metric and rate:

* the **per-seed error** ``sampled − full`` (ratio metrics: hit ratio,
  precision, traffic increment, latency reduction) or the relative
  error of the ``1/rate``-scaled estimate (count metrics: trie nodes,
  replayed requests);
* a **bootstrap confidence interval** of the mean error (seeded
  percentile bootstrap — deterministic for a given config);
* an **error bound**: the ``coverage``-quantile of the absolute
  per-seed errors, i.e. the interval ``±bound`` that contained the
  sampled estimate for ≥ ``coverage`` of the observed seeds.  This is
  the number quoted when a sampled result is reported ("hit ratio
  0.31 ± 0.008 at r=10%").

The auto-picker then answers the operational question — *which rate is
safe?* — by returning the cheapest (smallest) rate whose bound and mean
error both fit a stated budget (``repro fidelity --budget 1pp``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SamplingError, TraceError, WorkloadError
from repro.sampling.sampler import ClientSampler
from repro.trace.dataset import Trace

#: Rates the harness sweeps by default (subset of the canonical set —
#: 1% and 2% need bigger client populations than the default scenarios).
DEFAULT_FIDELITY_RATES: tuple[float, ...] = (0.05, 0.10, 0.20, 0.50)

#: Metrics compared as absolute differences (they are ratios already).
RATIO_METRICS: tuple[str, ...] = (
    "hit_ratio",
    "precision",
    "traffic_increment",
    "latency_reduction",
)

#: Metrics compared as relative error of the ``1/rate``-scaled estimate.
COUNT_METRICS: tuple[str, ...] = ("node_count", "requests")

FIDELITY_METRICS: tuple[str, ...] = RATIO_METRICS + COUNT_METRICS


def bootstrap_mean_ci(
    values: Sequence[float],
    *,
    coverage: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap CI of the mean; deterministic for a seed."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise SamplingError("bootstrap needs at least one value")
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[indices].mean(axis=1)
    low = (1.0 - coverage) / 2.0
    return (
        float(np.quantile(means, low)),
        float(np.quantile(means, 1.0 - low)),
    )


def error_bound(values: Sequence[float], *, coverage: float = 0.95) -> float:
    """The ``coverage``-quantile of the absolute errors.

    With the default linear quantile interpolation, at least
    ``coverage`` of the observed errors fall inside ``±bound`` — the
    property the statistical regression test pins.
    """
    arr = np.abs(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        raise SamplingError("error bound needs at least one value")
    return float(np.quantile(arr, coverage))


def parse_budget(text) -> float:
    """Parse an error budget: ``"1pp"`` → 0.01, ``"0.5pp"`` → 0.005,
    plain numbers pass through."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        raw = str(text).strip().lower()
        try:
            value = float(raw[:-2]) / 100.0 if raw.endswith("pp") else float(raw)
        except ValueError as exc:
            raise SamplingError(
                f"cannot parse error budget {text!r}; use e.g. '1pp' or 0.01"
            ) from exc
    if value <= 0:
        raise SamplingError(f"error budget must be > 0, got {value}")
    return value


def _rate_key(rate: float) -> str:
    return f"{float(rate):g}"


def _result_metrics(result, *, scale: float = 1.0) -> dict:
    return {
        "hit_ratio": result.hit_ratio,
        "precision": result.prefetch_accuracy,
        "traffic_increment": result.traffic_increment,
        "latency_reduction": result.latency_reduction,
        "node_count": result.node_count,
        "node_count_scaled": result.node_count * scale,
        "requests": result.requests,
        "requests_scaled": result.requests * scale,
    }


def _metric_error(metric: str, sampled: Mapping, full: Mapping) -> float:
    """Sampled-vs-full error of one metric (see module docstring)."""
    if metric in RATIO_METRICS:
        return float(sampled[metric] - full[metric])
    reference = float(full[metric])
    if reference == 0.0:
        return 0.0
    return float(sampled[f"{metric}_scaled"] / reference - 1.0)


def _evaluate(trace: Trace, *, model: str, train_fraction: float):
    """One grid-style cell evaluation; returns (SimulationResult, stats)."""
    from repro.core.popularity import PopularityTable
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import PrefetchSimulator
    from repro.sim.latency import LatencyModel
    from repro.workloads.grid import build_model, fraction_cut, fraction_split

    cut = fraction_cut(trace, train_fraction)
    split = fraction_split(trace, train_fraction)
    popularity = PopularityTable.from_requests(split.train_requests)
    latency = LatencyModel.fit_requests(split.train_requests)
    fitted = build_model(model, popularity, None)
    fitted.fit(split.train_sessions)
    base = "pb" if model.startswith("pb") else model
    config = SimulationConfig.for_model(base)
    simulator = PrefetchSimulator(
        fitted,
        trace.url_size_table(),
        latency,
        config,
        popularity=popularity,
    )
    result = simulator.run(
        trace.request_batch_after(cut), client_kinds=trace.classify_clients()
    )
    return result, {
        "clients": len(trace.clients),
        "records": len(trace),
        "test_requests": result.requests,
    }


def run_fidelity(
    *,
    workload: str = "stationary",
    params: Mapping | None = None,
    events: int = 40_000,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    rates: Sequence[float] = DEFAULT_FIDELITY_RATES,
    train_fraction: float = 0.7,
    salt: int = 0,
    model: str = "pb",
    coverage: float = 0.95,
    progress=None,
) -> dict:
    """Run the sampled-vs-full sweep; returns the fidelity report tree.

    For every seed the named workload is streamed once to a temporary
    columnar trace, evaluated in full, then re-evaluated at each rate
    through :meth:`Trace.sampled` — same split protocol, same models,
    same replay engine, so every difference in the numbers is the
    sampling itself.  Timing covers sampling + derivation + fit +
    replay (the work a sampled grid cell actually does).
    """
    from repro.workloads.bridge import stream_to_columnar
    from repro.workloads.registry import create_workload

    if events <= 0:
        raise SamplingError(f"events must be > 0, got {events}")
    if not seeds:
        raise SamplingError("fidelity needs at least one seed")
    if not rates:
        raise SamplingError("fidelity needs at least one rate")
    samplers = {float(r): ClientSampler(float(r), salt=salt) for r in rates}
    say = progress if progress is not None else (lambda line: None)
    report: dict = {
        "config": {
            "workload": workload,
            "params": dict(params or {}),
            "events": int(events),
            "seeds": [int(s) for s in seeds],
            "rates": sorted(samplers),
            "train_fraction": float(train_fraction),
            "salt": int(salt),
            "model": model,
            "coverage": float(coverage),
        },
        "full": {"seeds": {}},
        "rates": {
            _rate_key(rate): {"seeds": {}} for rate in sorted(samplers)
        },
    }
    full_metrics: dict[int, dict] = {}
    for seed in seeds:
        seed = int(seed)
        source = create_workload(workload, seed=seed, **dict(params or {}))
        handle, path = tempfile.mkstemp(suffix=".rpt")
        os.close(handle)
        try:
            stream_to_columnar(source, path, events=int(events))
            trace = Trace.from_columnar_file(path, name=f"{workload}@{seed}")
            start = time.perf_counter()
            result, stats = _evaluate(
                trace, model=model, train_fraction=train_fraction
            )
            full_seconds = time.perf_counter() - start
            metrics = _result_metrics(result)
            full_metrics[seed] = metrics
            report["full"]["seeds"][str(seed)] = {
                "metrics": metrics,
                "eval_seconds": full_seconds,
                **stats,
            }
            say(f"seed {seed}: full hit_ratio={metrics['hit_ratio']:.4f}")
            for rate in sorted(samplers):
                sampler = samplers[rate]
                node = report["rates"][_rate_key(rate)]["seeds"]
                start = time.perf_counter()
                try:
                    sampled_trace = trace.sampled(sampler)
                    sampled_result, sampled_stats = _evaluate(
                        sampled_trace,
                        model=model,
                        train_fraction=train_fraction,
                    )
                except (TraceError, WorkloadError) as exc:
                    node[str(seed)] = {"degenerate": True, "reason": str(exc)}
                    say(f"seed {seed} r={rate:g}: degenerate ({exc})")
                    continue
                sampled_seconds = time.perf_counter() - start
                sampled = _result_metrics(sampled_result, scale=sampler.scale)
                node[str(seed)] = {
                    "metrics": sampled,
                    "errors": {
                        m: _metric_error(m, sampled, metrics)
                        for m in FIDELITY_METRICS
                    },
                    "eval_seconds": sampled_seconds,
                    **sampled_stats,
                }
                say(
                    f"seed {seed} r={rate:g}: hit_ratio="
                    f"{sampled['hit_ratio']:.4f} "
                    f"(err {sampled['hit_ratio'] - metrics['hit_ratio']:+.4f})"
                )
        finally:
            os.unlink(path)
    full_seconds_all = [
        node["eval_seconds"] for node in report["full"]["seeds"].values()
    ]
    report["full"]["mean_eval_seconds"] = float(np.mean(full_seconds_all))
    ci_seed = int(salt) & 0x7FFFFFFF
    for rate in sorted(samplers):
        node = report["rates"][_rate_key(rate)]
        usable = [
            entry for entry in node["seeds"].values()
            if not entry.get("degenerate")
        ]
        node["degenerate_seeds"] = [
            seed for seed, entry in node["seeds"].items()
            if entry.get("degenerate")
        ]
        if not usable:
            node["errors"] = None
            node["mean_eval_seconds"] = None
            node["speedup"] = None
            continue
        node["errors"] = {}
        for metric in FIDELITY_METRICS:
            values = [entry["errors"][metric] for entry in usable]
            ci_low, ci_high = bootstrap_mean_ci(
                values, coverage=coverage, seed=ci_seed
            )
            node["errors"][metric] = {
                "values": values,
                "mean": float(np.mean(values)),
                "ci": [ci_low, ci_high],
                "bound": error_bound(values, coverage=coverage),
            }
        node["mean_eval_seconds"] = float(
            np.mean([entry["eval_seconds"] for entry in usable])
        )
        node["speedup"] = (
            report["full"]["mean_eval_seconds"] / node["mean_eval_seconds"]
            if node["mean_eval_seconds"] > 0
            else None
        )
    return report


def pick_rate(
    report: Mapping,
    *,
    metric: str = "hit_ratio",
    budget: float = 0.01,
) -> dict:
    """The cheapest rate whose error fits the budget, per the report.

    A rate qualifies when the metric's error bound *and* the absolute
    mean error are both ≤ ``budget`` (no degenerate-only rates).  The
    smallest qualifying rate wins — it replays the fewest clients.
    Returns ``{"picked": None, ...}`` when nothing qualifies, in which
    case the caller should evaluate in full.
    """
    if metric not in FIDELITY_METRICS:
        raise SamplingError(
            f"unknown fidelity metric {metric!r}; "
            f"available: {sorted(FIDELITY_METRICS)}"
        )
    budget = parse_budget(budget)
    qualifying = []
    for rate in sorted(float(r) for r in report["config"]["rates"]):
        node = report["rates"][_rate_key(rate)]
        errors = node.get("errors")
        if not errors:
            continue
        stats = errors[metric]
        if stats["bound"] <= budget and abs(stats["mean"]) <= budget:
            qualifying.append(rate)
    return {
        "metric": metric,
        "budget": budget,
        "picked": qualifying[0] if qualifying else None,
        "qualifying": qualifying,
    }


def format_fidelity_report(
    report: Mapping, *, picked: Mapping | None = None
) -> str:
    """Human-readable summary of a fidelity report (CLI output)."""
    config = report["config"]
    lines = [
        f"fidelity: workload={config['workload']} events={config['events']} "
        f"seeds={len(config['seeds'])} model={config['model']} "
        f"salt={config['salt']}",
        f"full replay: {report['full']['mean_eval_seconds']:.2f}s/seed "
        f"(hit_ratio "
        + ", ".join(
            f"{node['metrics']['hit_ratio']:.4f}"
            for node in report["full"]["seeds"].values()
        )
        + ")",
    ]
    for rate in sorted(float(r) for r in config["rates"]):
        node = report["rates"][_rate_key(rate)]
        if not node.get("errors"):
            lines.append(f"  r={rate:g}: degenerate on every seed")
            continue
        stats = node["errors"]["hit_ratio"]
        lines.append(
            f"  r={rate:g}: speedup {node['speedup']:.1f}x, "
            f"hit_ratio err {stats['mean']:+.4f} "
            f"(ci [{stats['ci'][0]:+.4f}, {stats['ci'][1]:+.4f}], "
            f"bound ±{stats['bound']:.4f})"
        )
        for metric in ("latency_reduction", "node_count"):
            stats = node["errors"][metric]
            lines.append(
                f"      {metric}: err {stats['mean']:+.4f} "
                f"bound ±{stats['bound']:.4f}"
            )
    if picked is not None:
        if picked["picked"] is None:
            lines.append(
                f"no rate meets the ±{picked['budget']:g} "
                f"{picked['metric']} budget; evaluate in full"
            )
        else:
            lines.append(
                f"picked r={picked['picked']:g} for "
                f"{picked['metric']} budget ±{picked['budget']:g} "
                f"(qualifying: {picked['qualifying']})"
            )
    return "\n".join(lines)


def write_fidelity_report(report: Mapping, path: str) -> None:
    """Write a fidelity report tree as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
