"""Scaling study: fit cost and model size vs trace volume.

Not a paper artefact; this bench characterises the substrate so the
library's own scalability claims are measured, mirroring the paper's
argument that PB-PPM's storage "increases slightly as the number of days
for URLs increases" while the baselines grow much faster.
"""

import time

from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.synth.generator import generate_trace

SCALES = (0.25, 0.5, 1.0)


def _fit_all(scale: float) -> dict[str, tuple[int, float]]:
    trace = generate_trace("nasa-like", days=3, seed=7, scale=scale)
    split = trace.split(train_days=2)
    popularity = PopularityTable.from_requests(split.train_requests)
    out: dict[str, tuple[int, float]] = {}
    for name, factory in (
        ("standard", StandardPPM),
        ("lrs", LRSPPM),
        ("pb", lambda: PopularityBasedPPM(popularity)),
    ):
        started = time.perf_counter()
        model = factory().fit(split.train_sessions)
        out[name] = (model.node_count, time.perf_counter() - started)
    out["sessions"] = (len(split.train_sessions), 0.0)
    return out


def test_scaling_with_trace_volume(benchmark, report):
    from repro.experiments.result import ExperimentResult

    result = ExperimentResult(
        experiment_id="scaling",
        title="Scaling — fit cost and model size vs workload scale",
        columns=["scale", "sessions", "model", "nodes", "fit_seconds"],
        notes=(
            "PB-PPM's node count must grow sublinearly relative to the "
            "standard model's as the workload scales."
        ),
    )
    measured: dict[float, dict] = {}
    for scale in SCALES:
        stats = _fit_all(scale)
        measured[scale] = stats
        for model in ("standard", "lrs", "pb"):
            nodes, seconds = stats[model]
            result.add_row(
                scale=scale,
                sessions=stats["sessions"][0],
                model=model,
                nodes=nodes,
                fit_seconds=seconds,
            )
    report(result)

    # PB's size grows more slowly with volume than the standard model's.
    pb_growth = measured[1.0]["pb"][0] / measured[0.25]["pb"][0]
    std_growth = measured[1.0]["standard"][0] / measured[0.25]["standard"][0]
    assert pb_growth < std_growth

    # Fits stay fast enough to rebuild nightly at any measured scale.
    assert all(
        stats[model][1] < 30.0
        for stats in measured.values()
        for model in ("standard", "lrs", "pb")
    )

    benchmark.pedantic(lambda: _fit_all(0.5), rounds=2, iterations=1)

