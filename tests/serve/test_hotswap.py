"""Hot-swap consistency: predictions during a model swap are atomic.

The acceptance bar for the read-copy-update design:

* every response observed while models are being published comes from
  exactly the old or exactly the new model — never a mix of both;
* a full ``/admin/refresh`` rebuild under concurrent load completes with
  zero failed requests.
"""

import threading

from repro.serve.server import PrefetchServer, ServerThread

from tests.helpers import make_sessions
from tests.serve.conftest import ServeClient, fitted_model

#: Two models with disjoint continuations of "A": version parity tells
#: exactly which one must have answered.
OLD_SEQUENCES = [("A", "B")] * 3
NEW_SEQUENCES = [("A", "D")] * 3

OLD_URLS = ("B",)
NEW_URLS = ("D",)


class TestAtomicSwap:
    def test_predictions_come_from_exactly_one_model(self):
        server = PrefetchServer(fitted_model(OLD_SEQUENCES))
        handle = ServerThread(server).start()
        stop = threading.Event()
        publish_count = 200

        def publisher():
            # Alternate NEW/OLD publications as fast as possible; the
            # version parity (odd = OLD, even = NEW) is deterministic.
            models = [fitted_model(NEW_SEQUENCES), fitted_model(OLD_SEQUENCES)]
            for index in range(publish_count):
                handle.call(lambda m=models[index % 2]: _publish(server, m))
            stop.set()

        async def _publish(srv, model):
            return srv.ref.publish(model)

        violations = []
        checked = 0

        def reader(worker: int):
            nonlocal checked
            client = ServeClient(handle.host, handle.port)
            try:
                serial = 0
                while not stop.is_set():
                    serial += 1
                    name = f"w{worker}-{serial}"
                    status, payload = client.report(
                        name, "A", float(serial), predict=1, threshold="0.0"
                    )
                    if status != 200:
                        violations.append((name, "status", status))
                        continue
                    version = payload["model_version"]
                    urls = tuple(p["url"] for p in payload["predictions"])
                    expected = OLD_URLS if version % 2 == 1 else NEW_URLS
                    if urls != expected:
                        violations.append((name, version, urls))
                    checked += 1
            finally:
                client.close()

        readers = [
            threading.Thread(target=reader, args=(index,)) for index in range(4)
        ]
        for thread in readers:
            thread.start()
        publisher_thread = threading.Thread(target=publisher)
        publisher_thread.start()
        publisher_thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        handle.stop()

        assert not violations
        assert server.ref.version == 1 + publish_count
        # The readers actually raced the publisher.
        assert checked > 50

    def test_zero_failed_requests_during_refresh(self):
        server = PrefetchServer(
            bootstrap_sessions=make_sessions(OLD_SEQUENCES), idle_timeout_s=100.0
        )
        handle = ServerThread(server).start()
        stop = threading.Event()
        failures = []
        completed = 0

        def reader(worker: int):
            nonlocal completed
            client = ServeClient(handle.host, handle.port)
            try:
                serial = 0
                while not stop.is_set():
                    serial += 1
                    # Real sessions: clicks 1000s apart expire against the
                    # 100s timeout, feeding the refresh window.
                    status, _ = client.report(
                        f"w{worker}", "A", serial * 1000.0, predict=1
                    )
                    if status != 200:
                        failures.append(("report", status))
                    completed += 1
            finally:
                client.close()

        readers = [
            threading.Thread(target=reader, args=(index,)) for index in range(4)
        ]
        for thread in readers:
            thread.start()
        admin = ServeClient(handle.host, handle.port)
        try:
            import time

            for _ in range(5):
                time.sleep(0.05)  # let the readers complete some sessions
                status, payload = admin.json("POST", "/admin/refresh")
                if status != 200:
                    failures.append(("refresh", status, payload))
        finally:
            stop.set()
            admin.close()
        for thread in readers:
            thread.join(timeout=60)
        handle.stop()

        assert failures == []
        assert completed > 0
        assert server.updater.refresh_total >= 1
        assert server.ref.version > 1

