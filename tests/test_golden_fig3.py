"""Golden regression test for the headline fig3-style lab metrics.

A small fixed-seed lab run (``nasa-like`` at 10% scale, seed 7) is
replayed for every model family and compared against the committed
snapshot in ``tests/golden/fig3_small.json``.  Integer counters must
match exactly; float ratios are tolerance-checked because the latency
model's least-squares fit can differ in the last bits across BLAS
builds.

Regenerate the snapshot (only after an *intentional* metrics change)
with::

    PYTHONPATH=src python tests/test_golden_fig3.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import params
from repro.experiments.lab import WorkloadLab
from repro.trace.dataset import TrainTestSplit
from repro.trace.embedding import fold_embedded_objects
from repro.trace.record import sort_records
from repro.trace.sessions import sessionize

SNAPSHOT_PATH = Path(__file__).parent / "golden" / "fig3_small.json"

MODELS = ("pb", "standard", "standard3", "lrs")
TRAIN_DAYS = (1, 2)

INT_METRICS = (
    "requests",
    "hits",
    "prefetch_hits",
    "prefetches_issued",
    "node_count",
)
FLOAT_METRICS = (
    "hit_ratio",
    "shadow_hit_ratio",
    "latency_reduction",
    "traffic_increment",
    "path_utilization",
    "prefetch_accuracy",
)
FLOAT_RTOL = 1e-6


#: Below the default threshold by less than the comparison epsilon: no
#: count ratio can tell the two apart, so every prediction cuts each table
#: row at a threshold no experiment uses and must land on the same cells.
OFF_DEFAULT_THRESHOLD = (
    params.PREDICTION_PROBABILITY_THRESHOLD - params.PROBABILITY_EPSILON / 2
)


class ReferenceTraceLab(WorkloadLab):
    """A lab whose splits come from the paper-literal trace functions.

    Page views and sessions are derived from the trace's records by
    :func:`sort_records`, :func:`fold_embedded_objects` and
    :func:`sessionize` one record at a time, instead of by the columnar
    plane the trace itself uses.
    """

    def split(self, train_days: int) -> TrainTestSplit:
        if train_days not in self._splits:
            trace = self.trace
            records = [r for r in sort_records(trace.records) if r.is_successful_get]
            requests = fold_embedded_objects(
                records, window_seconds=trace.embed_window_seconds
            )
            sessions = sessionize(
                requests, idle_timeout_seconds=trace.idle_timeout_seconds
            )
            train = tuple(range(train_days))
            test = (train_days,)

            def on(days, timestamp):
                return trace.day_of(timestamp) in days

            self._splits[train_days] = TrainTestSplit(
                train_days=train,
                test_days=test,
                train_sessions=tuple(s for s in sessions if on(train, s.start_time)),
                test_sessions=tuple(s for s in sessions if on(test, s.start_time)),
                train_requests=tuple(r for r in requests if on(train, r.timestamp)),
                test_requests=tuple(r for r in requests if on(test, r.timestamp)),
            )
        return self._splits[train_days]


def compute_cells(
    *, reference_trace: bool = False, threshold: float | None = None
) -> dict[str, dict[str, float | int]]:
    lab_class = ReferenceTraceLab if reference_trace else WorkloadLab
    lab = lab_class("nasa-like", total_days=3, seed=7, scale=0.1)
    cells: dict[str, dict[str, float | int]] = {}
    for model_key in MODELS:
        for days in TRAIN_DAYS:
            run = lab.run(model_key, days, threshold=threshold)
            cells[f"{model_key}/train_days={days}"] = {
                **{name: getattr(run, name) for name in INT_METRICS},
                **{name: getattr(run, name) for name in FLOAT_METRICS},
            }
    return cells


@pytest.fixture(
    scope="module",
    params=((False, None), (False, OFF_DEFAULT_THRESHOLD), (True, None)),
    ids=("columnar-compiled", "columnar-uncompiled", "object-compiled"),
)
def cells(request) -> dict[str, dict[str, float | int]]:
    """Golden cells computed three ways.

    ``columnar-compiled`` is the lab exactly as the experiments run it;
    ``columnar-uncompiled`` predicts at :data:`OFF_DEFAULT_THRESHOLD`
    instead of the default; ``object-compiled`` trains and replays
    on splits derived by the per-record reference trace functions instead
    of the columnar plane.  All three must land on the same committed
    numbers.
    """
    reference_trace, threshold = request.param
    return compute_cells(reference_trace=reference_trace, threshold=threshold)


@pytest.fixture(scope="module")
def snapshot() -> dict[str, dict[str, float | int]]:
    with SNAPSHOT_PATH.open() as fh:
        return json.load(fh)


def test_snapshot_covers_every_cell(cells, snapshot):
    assert sorted(snapshot) == sorted(cells)


@pytest.mark.parametrize("model_key", MODELS)
@pytest.mark.parametrize("days", TRAIN_DAYS)
def test_golden_metrics(cells, snapshot, model_key, days):
    key = f"{model_key}/train_days={days}"
    expected = snapshot[key]
    actual = cells[key]
    for name in INT_METRICS:
        assert actual[name] == expected[name], f"{key}: {name}"
    for name in FLOAT_METRICS:
        assert actual[name] == pytest.approx(
            expected[name], rel=FLOAT_RTOL
        ), f"{key}: {name}"


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        with SNAPSHOT_PATH.open("w") as fh:
            json.dump(compute_cells(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"regenerated {SNAPSHOT_PATH}")
    else:
        print(__doc__)
