"""End-to-end tests of the HTTP surface (in-process ServerThread)."""

import json
import socket
import threading
import time
from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import FaultPlan, injected
from repro.serve.server import PrefetchServer, ServerThread, _split_target
from repro.serve.snapshot import load_snapshot
from repro.errors import ServeError
from repro.trace.dataset import Trace

from tests.helpers import make_record, make_sessions
from tests.serve.conftest import TRAIN, ServeClient, fitted_model


def _request(method: str, target: str, *, close: bool = False) -> bytes:
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1")


def _exchange(handle, chunks, *, half_close: bool = False):
    """Send ``chunks`` on one raw connection, each in its own segment;
    read until the server closes; return each response's (head, body)."""
    with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index, chunk in enumerate(chunks):
            if index:
                time.sleep(0.001)
            raw.sendall(chunk)
        if half_close:
            raw.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := raw.recv(65536):
            data += chunk
    return _split_responses(data)


def _split_responses(data: bytes):
    """Each response's (head, body) in ``data``, which ends at a close."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"truncated response head {head[:80]!r}"
        (length,) = [
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        ]
        responses.append((head, rest[:length]))
        data = rest[length:]
    return responses


def _status(head: bytes) -> int:
    return int(head.split(b" ", 2)[1])


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


class TestConnectionEdges:
    """Framing cases of one keep-alive connection, over a raw socket."""

    def test_pipelined_pair_answered_in_order(self, server):
        ((first, health), (second, metrics)) = _exchange(
            server,
            [_request("GET", "/healthz") + _request("GET", "/metrics", close=True)],
        )
        assert (_status(first), _status(second)) == (200, 200)
        assert json.loads(health)["status"] == "ok"
        assert metrics.startswith(b"# HELP ")
        assert b"Connection: keep-alive" in first
        assert b"Connection: close" in second

    def test_thousand_pipelined_reports_answered_in_order(self, server):
        requests = b"".join(
            _request(
                "POST",
                f"/report?client=c{i}&url=A&ts={i}&predict=1",
                close=i == 999,
            )
            for i in range(1000)
        )
        responses = _exchange(server, [requests])
        assert {_status(head) for head, _ in responses} == {200}
        assert [json.loads(body)["client"] for _, body in responses] == [
            f"c{i}" for i in range(1000)
        ]

    def test_head_over_64_kib_is_400_and_close(self, server):
        # 65,540 bytes with no terminator: the first length at which the
        # head is known to exceed 64 KiB, so every byte sent is read
        # before the server answers and closes.
        before = server.server.errors_total
        ((head, body),) = _exchange(server, [b"GET /" + b"a" * 65535])
        assert _status(head) == 400
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "request head too large"}
        assert server.server.errors_total == before + 1

    def test_eof_inside_a_head_is_400(self, server):
        ((head, body),) = _exchange(
            server, [b"GET /healthz HTTP/1.1\r\nHost: t"], half_close=True
        )
        assert _status(head) == 400
        assert json.loads(body) == {"error": "malformed request line"}

    def test_request_one_byte_at_a_time(self, server):
        request = _request("GET", "/healthz", close=True)
        ((head, body),) = _exchange(
            server, [request[i : i + 1] for i in range(len(request))]
        )
        assert _status(head) == 200
        assert json.loads(body)["status"] == "ok"

    def test_garbage_request_line_is_400(self, server):
        ((head, body),) = _exchange(server, [b"GARBAGE\r\n\r\n"])
        assert _status(head) == 400
        assert json.loads(body) == {"error": "malformed request line"}

    def test_half_closed_client_gets_its_response(self, server):
        ((head, body),) = _exchange(
            server, [_request("GET", "/healthz")], half_close=True
        )
        assert _status(head) == 200
        assert json.loads(body)["status"] == "ok"

    @staticmethod
    def _paused_reading(handle, raw, data: bytes):
        """Send ``data`` from a thread, wait until the server stops
        reading the connection, then read until the server closes.
        Returns whether reading paused, and each response."""
        sender = threading.Thread(target=raw.sendall, args=(data,))
        sender.start()
        deadline = time.monotonic() + 10
        paused = False
        while not paused and time.monotonic() < deadline:
            time.sleep(0.005)
            # list() copies the server thread's set in one step.
            connections = list(handle.server._connections)
            paused = any(
                not c.transport.is_reading() and not c.transport.is_closing()
                for c in connections
            )
        received = b""
        while chunk := raw.recv(65536):
            received += chunk
        sender.join(10)
        assert not sender.is_alive()
        return paused, _split_responses(received)

    def test_unread_answers_pause_reading(self, server):
        """A client that stops reading its answers stops being read once
        the transport is over its write high-water mark; reading resumes
        when the client drains, and every request is answered."""
        count = 3000
        with socket.socket() as raw:
            # A small receive window, so the server's write buffer fills.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.settimeout(10)
            raw.connect((server.host, server.port))
            paused, responses = self._paused_reading(
                server,
                raw,
                _request("GET", "/metrics") * (count - 1)
                + _request("GET", "/metrics", close=True),
            )
        assert paused
        assert len(responses) == count
        assert {_status(head) for head, _ in responses} == {200}

    def test_task_lane_holds_its_connection(self, server):
        """While a task-lane request runs, the connection frames nothing
        further and stops reading past 64 KiB buffered; afterwards every
        pipelined request is answered, in order."""
        count = 1500  # 80 kB of pipelined requests
        # An armed plan sends every request down the task lane; the
        # first one stalls there for a second.
        plan = FaultPlan(seed=7).arm("serve.slow_request", times=1, delay_s=1.0)
        requests = b"".join(
            _request(
                "POST",
                f"/report?client=c{i}&url=A&ts={i}&predict=1",
                close=i == count - 1,
            )
            for i in range(count)
        )
        with injected(plan), socket.create_connection(
            (server.host, server.port), timeout=10
        ) as raw:
            paused, responses = self._paused_reading(server, raw, requests)
        assert paused
        assert {_status(head) for head, _ in responses} == {200}
        assert [json.loads(body)["client"] for _, body in responses] == [
            f"c{i}" for i in range(count)
        ]

    def test_absolute_form_target(self, server):
        """RFC 9112 section 3.2.2: a server accepts the absolute form."""
        origin = f"http://{server.host}:{server.port}"
        ((head, body),) = _exchange(
            server, [_request("GET", f"{origin}/healthz", close=True)]
        )
        assert _status(head) == 200
        assert json.loads(body)["status"] == "ok"
        # The admin lane is chosen from the parsed path as well.
        ((head, body),) = _exchange(
            server, [_request("POST", f"{origin}/admin/snapshot", close=True)]
        )
        assert _status(head) == 400
        assert json.loads(body) == {
            "error": "server started without a snapshot path"
        }
        # An authority urlsplit cannot parse is the client's error.
        ((head, body),) = _exchange(
            server, [_request("GET", "http://[/healthz", close=True)]
        )
        assert _status(head) == 400
        assert "malformed request target" in json.loads(body)["error"]


_QUERY_TEXT = st.text(alphabet="ab%2Fz+#=&? /:\t", max_size=12)
_ESCAPES = st.sampled_from(["%2F", "%41", "%zz", "%", "%4", "%C3%A9", "%ff"])


@st.composite
def _request_targets(draw) -> str:
    prefix = draw(
        st.sampled_from(
            [
                "",
                "/",
                "//",
                "http://h",
                "http://h:8080",
                "HTTP://h",
                "http://[::1]:8080",
                "http://[",
                "//h]",
            ]
        )
    )
    path = draw(st.sampled_from(["", "report", "a/b", "admin/refresh", "/x"]))
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["client", "url", "", "a%62", "ts"]),
                st.sampled_from(["", "=", "=x"]),
                st.lists(st.one_of(_QUERY_TEXT, _ESCAPES), max_size=3).map(
                    "".join
                ),
            ),
            max_size=5,
        )
    )
    query = "&".join(key + eq + value for key, eq, value in pairs)
    target = prefix + path
    if draw(st.booleans()):
        target += "?" + query
    if draw(st.booleans()):
        target += "#" + draw(_QUERY_TEXT)
    return target


class TestSplitTarget:
    @settings(max_examples=400, deadline=None)
    @given(target=_request_targets())
    def test_matches_urlsplit_and_parse_qsl(self, target):
        """Every target the request line can carry parses as the stdlib
        parsers do, on a first (memo-filling) and a second call; one
        ``urlsplit`` rejects raises ServeError (answered 400)."""
        try:
            split = urlsplit(target)
        except ValueError:
            with pytest.raises(ServeError, match="malformed request target"):
                _split_target(target)
            return
        expected = (split.path, dict(parse_qsl(split.query)))
        assert _split_target(target) == expected
        assert _split_target(target) == expected


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

    def test_stop_closes_open_connections(self):
        """stop() closes a keep-alive connection the client still holds
        instead of waiting for it (Server.wait_closed() waits for open
        connections on Python 3.12.1+)."""
        handle = ServerThread(PrefetchServer(fitted_model())).start()
        client = ServeClient(handle.host, handle.port)
        try:
            assert client.json("GET", "/healthz")[0] == 200
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 10
            assert client.connection.sock.recv(1) == b""
        finally:
            client.close()

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
