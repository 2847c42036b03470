"""Smoke tests for the trace-driven load generator."""

import json

import pytest

from repro.errors import ServeError
from repro.serve.loadgen import format_report, run_loadgen
from repro.serve.server import PrefetchServer, ServerThread

from tests.serve.conftest import fitted_model


def small_run(**kwargs):
    defaults = dict(
        spawn=True,
        profile="nasa-like",
        days=1,
        train_days=1,
        seed=7,
        scale=0.05,
        connections=2,
    )
    defaults.update(kwargs)
    return run_loadgen(**defaults)


class TestValidation:
    def test_needs_exactly_one_target(self):
        with pytest.raises(ServeError):
            run_loadgen()  # neither url nor spawn
        with pytest.raises(ServeError):
            run_loadgen("http://127.0.0.1:1", spawn=True)

    def test_bad_mode(self):
        with pytest.raises(ServeError):
            run_loadgen("http://127.0.0.1:1", mode="turbo")

    def test_bad_connections(self):
        with pytest.raises(ServeError):
            run_loadgen("http://127.0.0.1:1", connections=0)

    def test_bad_url(self):
        with pytest.raises(ServeError, match="host:port"):
            run_loadgen("http://nowhere", max_events=1)


class TestSpawnSmoke:
    def test_combined_mode_report_shape(self, tmp_path):
        out = str(tmp_path / "BENCH_serve.json")
        report = small_run(out=out, refresh_mid_run=True)
        assert report["failed_requests"] == 0
        assert report["requests_total"] > 0
        assert report["predict_requests"] == report["requests_total"]
        assert report["prediction_urls_returned"] > 0
        assert report["refresh_triggered"] is True
        # Once the refresh response returned, no prediction may come from
        # the model it replaced.
        assert report["stale_predictions"] == 0
        latency = report["latency_ms"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        # The artifact on disk is the same report.
        with open(out, encoding="utf-8") as handle:
            assert json.load(handle)["requests_total"] == report["requests_total"]

    def test_paired_mode(self):
        report = small_run(mode="paired", max_events=50)
        assert report["failed_requests"] == 0
        # Every event costs a report plus a predict round trip.
        assert report["requests_total"] == 100
        assert report["predict_requests"] == 50

    def test_max_events_caps_replay(self):
        report = small_run(max_events=10)
        assert report["config"]["events"] == 10
        assert report["requests_total"] == 10


class TestAgainstRunningServer:
    def test_url_mode(self):
        handle = ServerThread(PrefetchServer(fitted_model())).start()
        try:
            report = run_loadgen(
                handle.url, days=1, seed=7, scale=0.05, connections=2,
                max_events=40,
            )
        finally:
            handle.stop()
        assert report["failed_requests"] == 0
        assert report["requests_total"] == 40
        assert report["config"]["spawn"] is False


class TestFormatReport:
    def test_renders_headline_numbers(self):
        report = small_run(max_events=20, refresh_mid_run=True)
        text = format_report(report)
        assert "req/s" in text
        assert "p99" in text
        assert "mid-run refresh   True" in text
