"""End-to-end tests of the HTTP surface (in-process ServerThread)."""

import json
import socket
import time

import pytest

from repro.serve.server import PrefetchServer, ServerThread
from repro.serve.snapshot import load_snapshot
from repro.errors import ServeError
from repro.trace.dataset import Trace

from tests.helpers import make_record, make_sessions
from tests.serve.conftest import TRAIN, ServeClient, fitted_model


class TestReportAndPredict:
    def test_report_returns_session_clicks(self, client):
        status, payload = client.report("c1", "A", 0.0)
        assert status == 200
        assert payload == {"ok": True, "session_clicks": 1}
        status, payload = client.report("c1", "B", 10.0)
        assert payload["session_clicks"] == 2

    def test_predict_after_report(self, client):
        client.report("c1", "A", 0.0)
        status, payload = client.predict("c1", threshold=0.0)
        assert status == 200
        assert payload["client"] == "c1"
        assert payload["model_version"] == 1
        urls = [p["url"] for p in payload["predictions"]]
        assert "B" in urls
        for prediction in payload["predictions"]:
            assert set(prediction) == {"url", "probability", "order", "source"}

    def test_combined_report_predict(self, client):
        status, payload = client.report("c1", "A", 0.0, predict=1, threshold=0.0)
        assert status == 200
        assert "predictions" in payload
        assert any(p["url"] == "B" for p in payload["predictions"])

    def test_report_json_body(self, client):
        body = json.dumps({"client": "c9", "url": "A", "ts": 5.0}).encode()
        status, payload = client.json("POST", "/report", body)
        assert status == 200
        assert payload["session_clicks"] == 1

    def test_predict_limit(self, client):
        client.report("c1", "A", 0.0)
        _, payload = client.predict("c1", threshold=0.0, limit=1)
        assert len(payload["predictions"]) <= 1

    def test_unknown_client_predicts_empty(self, client):
        status, payload = client.predict("stranger")
        assert status == 200
        assert payload["predictions"] == []

    def test_idle_gap_resets_context_across_requests(self, client):
        client.report("c1", "B", 0.0)
        client.report("c1", "A", 10_000.0)  # past the 30-minute timeout
        _, payload = client.predict("c1", threshold=0.0)
        # Context is ("A",) alone, so B's continuation (C) is not the
        # only candidate — A's (B) is offered.
        assert any(p["url"] == "B" for p in payload["predictions"])


class TestValidation:
    def test_report_requires_client_and_url(self, client):
        status, payload = client.json("POST", "/report?client=c1")
        assert status == 400
        assert "url" in payload["error"]

    def test_report_bad_timestamp(self, client):
        status, payload = client.json(
            "POST", "/report?client=c1&url=A&ts=yesterday"
        )
        assert status == 400

    def test_report_bad_json_body(self, client):
        status, payload = client.json("POST", "/report", b"{nope")
        assert status == 400

    def test_predict_requires_client(self, client):
        status, payload = client.json("GET", "/predict")
        assert status == 400

    def test_predict_bad_threshold(self, client):
        status, _ = client.json("GET", "/predict?client=c1&threshold=high")
        assert status == 400

    @pytest.mark.parametrize(
        "query",
        [
            "threshold=nan",
            "threshold=inf",
            "threshold=-inf",
            "threshold=-0.1",
            "threshold=1.5",
            "limit=-1",
            "threshold=0&limit=-3",
        ],
    )
    def test_predict_rejects_out_of_range_arguments(self, client, query):
        """A threshold outside [0, 1] or a negative limit is a 400, on
        /predict and on a combined report — never a silently sliced or
        empty answer."""
        client.report("c1", "A", 0.0)
        status, payload = client.json("GET", f"/predict?client=c1&{query}")
        assert status == 400
        assert "threshold= or limit=" in payload["error"]
        status, _ = client.json(
            "POST", f"/report?client=c1&url=B&ts=1.0&predict=1&{query}"
        )
        assert status == 400

    @pytest.mark.parametrize(
        "extra", [{"threshold": [0.5]}, {"threshold": "nan"}, {"limit": -2}]
    )
    def test_json_report_rejects_bad_predict_arguments(self, client, extra):
        """A JSON body carries typed values: a list threshold (a
        ``TypeError`` in ``float``), a NaN string and a negative limit are
        each a 400, not a 500 or a sliced answer."""
        body = json.dumps(
            {"client": "c1", "url": "A", "ts": 0.0, "predict": 1, **extra}
        ).encode()
        status, payload = client.json("POST", "/report", body)
        assert status == 400
        assert "threshold= or limit=" in payload["error"]

    def test_predict_accepts_the_bounds(self, client):
        client.report("c1", "A", 0.0)
        status, payload = client.predict("c1", threshold=0.0, limit=0)
        assert (status, payload["predictions"]) == (200, [])
        status, _ = client.predict("c1", threshold=1)
        assert status == 200

    def test_unknown_path_404(self, client):
        status, _ = client.json("GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, client):
        assert client.json("GET", "/report?client=c1&url=A")[0] == 405
        assert client.json("POST", "/predict?client=c1")[0] == 405
        assert client.json("GET", "/admin/refresh")[0] == 405

    @pytest.mark.parametrize("length", ["abc", "1.5", "-5"])
    def test_malformed_content_length_is_400_and_close(self, server, length):
        before = server.server.errors_total
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /report?client=c1&url=A HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            while chunk := raw.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "malformed Content-Length"}
        assert server.server.errors_total == before + 1
        fresh = ServeClient(server.host, server.port)
        try:
            assert fresh.json("GET", "/healthz")[0] == 200
        finally:
            fresh.close()

    @staticmethod
    def _send_short_body(handle, declared: int) -> tuple[bytes, float]:
        """Declare ``declared`` body bytes, send 3, read until close."""
        started = time.perf_counter()
        with socket.create_connection(
            (handle.host, handle.port), timeout=5
        ) as raw:
            raw.sendall(
                b"POST /report HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
                + b'{"c'
            )
            response = b""
            while chunk := raw.recv(4096):
                response += chunk
        return response, time.perf_counter() - started

    @staticmethod
    def _assert_healthy(handle) -> None:
        fresh = ServeClient(handle.host, handle.port)
        try:
            assert fresh.json("GET", "/healthz")[0] == 200
        finally:
            fresh.close()

    def test_oversized_content_length_is_413_at_once(self, server):
        before = server.server.errors_total
        response, _ = self._send_short_body(server, 1_000_000)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)
        assert server.server.errors_total == before + 1
        self._assert_healthy(server)

    def test_short_body_is_408_after_the_request_deadline(self):
        handle = ServerThread(
            PrefetchServer(
                fitted_model(),
                housekeeping_interval_s=0.05,
                request_timeout_s=1.0,
            )
        ).start()
        try:
            response, elapsed = self._send_short_body(handle, 10)
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408 ")
            assert b"Connection: close" in head
            assert "error" in json.loads(body)
            assert 0.5 <= elapsed < 2.5
            assert handle.server.errors_total == 1
            self._assert_healthy(handle)
        finally:
            handle.stop()


class TestIntrospection:
    def test_healthz(self, client):
        status, payload = client.json("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "StandardPPM"
        assert payload["model_version"] == 1
        assert payload["model_nodes"] > 0

    def test_metrics_exposition(self, client):
        client.report("c1", "A", 0.0, predict=1, threshold=0.0)
        status, payload = client.request("GET", "/metrics")
        assert status == 200
        text = payload.decode()
        assert 'repro_serve_requests_total{path="/report"} 1' in text
        assert "repro_serve_model_version 1" in text
        assert "repro_serve_observed_clicks_total 1" in text
        assert "# TYPE repro_serve_active_clients gauge" in text
        assert "# TYPE repro_serve_predictions_total counter" in text

    def test_predict_cache_counters_exposed(self, client):
        client.report("c9", "A", 0.0)
        # Two identical predicts between clicks: one miss, one memo hit.
        client.predict("c9", threshold=0.0)
        client.predict("c9", threshold=0.0)
        status, payload = client.request("GET", "/metrics")
        assert status == 200
        lines = payload.decode().splitlines()

        def value(name):
            return [
                line.split()[-1]
                for line in lines
                if line.startswith(f"{name} ")
            ]

        assert value("repro_predict_cache_hits_total") == ["1"]
        assert value("repro_predict_cache_misses_total") == ["1"]

    def test_admin_snapshot_without_path_400(self, client):
        status, payload = client.json("POST", "/admin/snapshot")
        assert status == 400
        status, payload = client.json("POST", "/admin/reload")
        assert status == 400

    def test_unknown_admin_endpoint_404(self, client):
        assert client.json("POST", "/admin/nope")[0] == 404


class TestLifecycle:
    def test_snapshot_endpoints_and_shutdown_snapshot(self, tmp_path):
        path = str(tmp_path / "model.json")
        handle = ServerThread(
            PrefetchServer(fitted_model(), snapshot_path=path)
        ).start()
        client = ServeClient(handle.host, handle.port)
        try:
            status, payload = client.json("POST", "/admin/snapshot")
            assert status == 200
            assert payload == {"ok": True, "path": path, "model_version": 1}
            assert load_snapshot(path).is_fitted

            status, payload = client.json("POST", "/admin/reload")
            assert status == 200
            assert payload["model_version"] == 2
        finally:
            client.close()
            handle.stop()
        # stop() wrote a final snapshot of the live model.
        assert load_snapshot(path).node_count == fitted_model().node_count

    def test_restart_restores_from_snapshot(self, tmp_path):
        path = str(tmp_path / "model.json")
        first = ServerThread(
            PrefetchServer(fitted_model(), snapshot_path=path)
        ).start()
        first.stop()
        # Boot a second server from the snapshot the first one left.
        restored = load_snapshot(path)
        second = ServerThread(PrefetchServer(restored)).start()
        client = ServeClient(second.host, second.port)
        try:
            client.report("c1", "A", 0.0)
            _, payload = client.predict("c1", threshold=0.0)
            assert any(p["url"] == "B" for p in payload["predictions"])
        finally:
            client.close()
            second.stop()

    def test_shutdown_folds_open_sessions(self):
        server = PrefetchServer(fitted_model())
        handle = ServerThread(server).start()
        client = ServeClient(handle.host, handle.port)
        try:
            client.report("c1", "NEW", 0.0)
            client.report("c1", "NEXT", 10.0)
        finally:
            client.close()
            handle.stop()
        assert server.updater.folded_sessions_total == 1
        assert "NEW" in server.ref.model.roots

    def test_bootstrap_sessions_constructor(self):
        server = PrefetchServer(bootstrap_sessions=make_sessions(TRAIN))
        handle = ServerThread(server).start()
        client = ServeClient(handle.host, handle.port)
        try:
            client.report("c1", "A", 0.0)
            _, payload = client.predict("c1", threshold=0.0)
            assert any(p["url"] == "B" for p in payload["predictions"])
            # The bootstrap day seeded the refresh window.
            status, _ = client.json("POST", "/admin/refresh")
            assert status == 200
        finally:
            client.close()
            handle.stop()

    def test_constructor_requires_model_or_sessions(self):
        with pytest.raises(ServeError):
            PrefetchServer()

    @pytest.mark.parametrize(
        "empty",
        [
            lambda: iter([]),
            lambda: [],
            # A session view over no day of a real trace.
            lambda: Trace([make_record("/a.html")]).sessions_for_days([9]),
        ],
        ids=["iterator", "list", "view"],
    )
    def test_empty_bootstrap_rejected(self, empty):
        # A one-shot iterator is read before the emptiness check: testing
        # the iterator itself would publish a model fitted on nothing.
        with pytest.raises(ServeError):
            PrefetchServer(bootstrap_sessions=empty())

    def test_housekeeping_expires_and_folds(self):
        server = PrefetchServer(
            fitted_model(),
            idle_timeout_s=0.05,
            housekeeping_interval_s=0.02,
            fold_interval_s=0.02,
        )
        handle = ServerThread(server).start()
        client = ServeClient(handle.host, handle.port)
        try:
            import time

            client.report("c1", "NEW", time.time())
            client.report("c1", "NEXT", time.time())
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if server.updater.folded_sessions_total:
                    break
                time.sleep(0.02)
                # Later wall-clock reports move the tracker clock forward.
                client.report("other", "A", time.time())
            assert server.updater.folded_sessions_total >= 1
        finally:
            client.close()
            handle.stop()
