"""Live workload replay through the serving plane, and its validation."""

import pytest

from repro.errors import ServeError
from repro.serve.loadgen import run_loadgen


class TestValidation:
    def test_events_requires_workload(self):
        with pytest.raises(ServeError, match="workload"):
            run_loadgen(events=100, spawn=True)

    def test_workload_requires_positive_events(self):
        with pytest.raises(ServeError, match="events"):
            run_loadgen(workload="stationary", events=0, spawn=True)

    def test_spawn_requires_positive_train_events(self):
        with pytest.raises(ServeError, match="train_events"):
            run_loadgen(
                workload="stationary",
                events=10,
                train_events=0,
                spawn=True,
            )


class TestLiveReplay:
    def test_streams_events_against_spawned_server(self):
        report = run_loadgen(
            workload="stationary",
            seed=3,
            events=150,
            train_events=400,
            connections=2,
            spawn=True,
        )
        assert report["requests_total"] == 150
        assert report["failed_requests"] == 0
        assert report["config"]["workload"] == "stationary"
        assert report["config"]["streamed"] is True
        assert report["config"]["profile"] is None

    def test_workload_params_forwarded(self):
        report = run_loadgen(
            workload="crawler",
            workload_params={"crawlers": 2},
            seed=1,
            events=80,
            train_events=200,
            connections=1,
            spawn=True,
        )
        assert report["failed_requests"] == 0
        assert report["config"]["workload_params"] == {"crawlers": 2}
