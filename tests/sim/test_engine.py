"""Unit tests for the trace-driven replay engine."""

import pytest

from repro.core.standard import StandardPPM
from repro.errors import SimulationError
from repro.experiments.lab import WorkloadLab
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.latency import LatencyModel
from repro.trace.record import Request

from tests.helpers import make_request, make_sessions

LATENCY = LatencyModel(connection_time_s=0.5, seconds_per_byte=0.0)

SIZES = {"A": 1000, "B": 1000, "C": 1000, "BIG": 10_000_000}


def ab_model():
    """A model that confidently predicts B after A."""
    return StandardPPM().fit(make_sessions([("A", "B")] * 4))


def requests_for(client, urls, *, start=0.0, gap=10.0, size=1000):
    return [
        make_request(url, client=client, timestamp=start + i * gap, size=size)
        for i, url in enumerate(urls)
    ]


class TestClientMode:
    def test_prefetch_converts_miss_to_hit(self):
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A", "B"]))
        assert result.requests == 2
        assert result.hits == 1           # B was prefetched after A
        assert result.prefetch_hits == 1
        assert result.shadow_hits == 0    # caching alone hits nothing
        assert result.prefetch_used_bytes == SIZES["B"]

    def test_latency_reduction_from_prefetch(self):
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A", "B"]))
        # Shadow pays 2 connections, the prefetching run pays 1.
        assert result.shadow_latency_seconds == pytest.approx(1.0)
        assert result.latency_seconds == pytest.approx(0.5)
        assert result.latency_reduction == pytest.approx(0.5)

    def test_no_model_matches_shadow(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A", "B", "A"]))
        assert result.hits == result.shadow_hits == 1  # revisit of A
        assert result.prefetches_issued == 0
        assert result.model_name == "none"

    def test_revisit_hits_without_prefetch(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A", "A", "A"]))
        assert result.hits == 2

    def test_size_limit_blocks_prefetch(self):
        model = StandardPPM().fit(make_sessions([("A", "BIG")] * 4))
        config = SimulationConfig(prefetch_size_limit_bytes=1000)
        simulator = PrefetchSimulator(model, SIZES, LATENCY, config)
        result = simulator.run(requests_for("c", ["A", "BIG"]))
        assert result.prefetches_issued == 0
        assert result.hits == 0

    def test_unknown_size_blocks_prefetch(self):
        model = StandardPPM().fit(make_sessions([("A", "MYSTERY")] * 4))
        simulator = PrefetchSimulator(model, SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A"]))
        assert result.prefetches_issued == 0

    def test_wasted_prefetch_increases_traffic(self):
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A", "C"]))  # B never used
        assert result.prefetch_bytes == SIZES["B"]
        assert result.prefetch_used_bytes == 0
        assert result.traffic_increment > 0

    def test_max_prefetch_per_request_zero_disables(self):
        config = SimulationConfig(max_prefetch_per_request=0)
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY, config)
        result = simulator.run(requests_for("c", ["A", "B"]))
        assert result.prefetches_issued == 0

    def test_session_gap_resets_context(self):
        # Train: A->B but C->B never. Requests: A then (after a long gap) C.
        # With context reset the prediction at C conditions on [C] alone.
        model = StandardPPM().fit(make_sessions([("A", "B")] * 4 + [("C",)]))
        config = SimulationConfig(idle_timeout_seconds=100.0)
        simulator = PrefetchSimulator(model, SIZES, LATENCY, config)
        requests = [
            make_request("A", client="c", timestamp=0.0),
            make_request("C", client="c", timestamp=500.0),
        ]
        result = simulator.run(requests)
        # B prefetched once at A; nothing at C (no continuation trained).
        assert result.prefetches_issued == 1

    def test_clients_have_separate_caches(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        requests = requests_for("c1", ["A"]) + requests_for(
            "c2", ["A"], start=100.0
        )
        result = simulator.run(requests)
        assert result.hits == 0  # each client misses its own first access

    def test_proxy_kind_gets_proxy_cache(self):
        config = SimulationConfig(
            browser_cache_bytes=0, proxy_cache_bytes=10_000_000
        )
        simulator = PrefetchSimulator(None, SIZES, LATENCY, config)
        requests = requests_for("p", ["A", "A"])
        browser_run = simulator.run(requests)
        assert browser_run.hits == 0  # zero-byte browser cache holds nothing
        simulator2 = PrefetchSimulator(None, SIZES, LATENCY, config)
        proxy_run = simulator2.run(requests, client_kinds={"p": "proxy"})
        assert proxy_run.hits == 1

    def test_unfitted_model_rejected(self):
        with pytest.raises(SimulationError):
            PrefetchSimulator(StandardPPM(), SIZES, LATENCY)

    def test_node_count_and_utilization_recorded(self):
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY)
        result = simulator.run(requests_for("c", ["A", "B"]))
        assert result.node_count == ab_model().node_count
        assert 0.0 <= result.path_utilization <= 1.0

    def test_usage_reset_between_runs(self):
        model = ab_model()
        simulator = PrefetchSimulator(model, SIZES, LATENCY)
        first = simulator.run(requests_for("c", ["A", "B"]))
        second = PrefetchSimulator(model, SIZES, LATENCY).run(
            requests_for("c", ["C"])
        )
        assert second.path_utilization == 0.0
        assert first.path_utilization > 0.0

    def test_requests_processed_in_time_order(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        requests = [
            make_request("A", client="c", timestamp=100.0),
            make_request("A", client="c", timestamp=0.0),
        ]
        result = simulator.run(requests)
        assert result.hits == 1  # second (later) access hits


class TestProxyMode:
    def test_cross_client_proxy_hit(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        requests = requests_for("c1", ["A"]) + requests_for(
            "c2", ["A"], start=100.0
        )
        result = simulator.run_proxy(requests)
        assert result.hits == 1
        assert result.proxy_hits == 1
        assert result.browser_hits == 0

    def test_browser_hit_preferred_over_proxy(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        result = simulator.run_proxy(requests_for("c1", ["A", "A"]))
        assert result.browser_hits == 1
        assert result.proxy_hits == 0

    def test_prefetch_lands_in_proxy(self):
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY)
        result = simulator.run_proxy(requests_for("c1", ["A", "B"]))
        assert result.proxy_hits == 1
        assert result.prefetch_hits == 1

    def test_prefetched_object_serves_other_clients(self):
        simulator = PrefetchSimulator(ab_model(), SIZES, LATENCY)
        requests = requests_for("c1", ["A"]) + requests_for(
            "c2", ["B"], start=100.0
        )
        result = simulator.run_proxy(requests)
        # c1's visit to A prefetched B into the proxy; c2 hits it.
        assert result.prefetch_hits == 1

    def test_client_filter(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        requests = requests_for("in", ["A"]) + requests_for(
            "out", ["B"], start=50.0
        )
        result = simulator.run_proxy(requests, clients=("in",))
        assert result.requests == 1

    def test_shadow_chain_counts_proxy_hits(self):
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        requests = requests_for("c1", ["A"]) + requests_for(
            "c2", ["A"], start=100.0
        )
        result = simulator.run_proxy(requests)
        assert result.shadow_hits == 1

    def test_unknown_topology_rejected_via_lab_only(self):
        # The engine exposes run/run_proxy explicitly; both work on the
        # same simulator instance independently.
        simulator = PrefetchSimulator(None, SIZES, LATENCY)
        r1 = simulator.run(requests_for("c", ["A"]))
        r2 = simulator.run_proxy(requests_for("c", ["A"]))
        assert r1.requests == r2.requests == 1


#: The integer counters of a client-mode run; each is a per-client sum.
CLIENT_COUNTERS = (
    "requests",
    "hits",
    "browser_hits",
    "proxy_hits",
    "prefetch_hits",
    "popular_prefetch_hits",
    "shadow_hits",
    "demand_miss_bytes",
    "prefetch_bytes",
    "prefetch_used_bytes",
    "prefetches_issued",
    "predictions_made",
)


class TestClientSeparability:
    """Client-mode replay is separable by client.

    Every client owns its caches and context, and the model is fixed
    during the test day, so replaying any subset of clients gives those
    clients exactly the counters they get in a full run.
    """

    @pytest.fixture(scope="class")
    def lab(self):
        return WorkloadLab("nasa-like", total_days=3, seed=7, scale=0.1)

    def _replay(self, lab, model_key, batch):
        simulator = PrefetchSimulator(
            lab.model(model_key, 2),
            lab.url_sizes,
            lab.latency(2),
            lab.config_for(model_key),
            popularity=lab.popularity(2),
        )
        return simulator.run(batch, client_kinds=lab.client_kinds)

    @pytest.mark.parametrize("model_key", ["pb", "standard3"])
    def test_client_halves_sum_to_the_full_run(self, lab, model_key):
        batch = lab.trace.request_batch_for_days(lab.split(2).test_days)
        clients = sorted({row[0] for row in batch.iter_rows()})
        halves = (clients[::2], clients[1::2])
        assert all(halves)

        full = self._replay(lab, model_key, batch)
        parts = [
            self._replay(lab, model_key, batch.select_clients(half))
            for half in halves
        ]

        assert full.prefetch_hits > 0
        for name in CLIENT_COUNTERS:
            assert sum(getattr(part, name) for part in parts) == getattr(
                full, name
            ), name


class TestPinnedProxyRuns:
    """Proxy-mode counters on a seeded lab, every client and a subset,
    pinned to values recorded with the URL-keyed replay loops (the
    repository benchmark replays client mode only)."""

    FIELDS = (
        "requests",
        "hits",
        "browser_hits",
        "proxy_hits",
        "prefetch_hits",
        "popular_prefetch_hits",
        "shadow_hits",
        "demand_miss_bytes",
        "prefetch_bytes",
        "prefetch_used_bytes",
        "prefetches_issued",
        "predictions_made",
        "latency_seconds",
        "shadow_latency_seconds",
        "path_utilization",
    )

    PINNED = {
        ("pb", "all"): (
            313, 226, 67, 159, 17, 13, 209, 3468185, 337796, 190672, 31, 716,
            54.90330945491723, 62.07733389053552, 0.23008849557522124,
        ),
        ("pb", "every third"): (
            95, 57, 20, 37, 8, 7, 49, 1510788, 200831, 101063, 15, 209,
            23.951189039311405, 27.409922005384434, 0.17699115044247787,
        ),
        ("standard", "all"): (
            313, 227, 67, 160, 18, 16, 209, 3121229, 965694, 537628, 45, 250,
            52.03111787049119, 62.07733389053552, 0.039473684210526314,
        ),
        ("standard", "every third"): (
            95, 58, 20, 38, 9, 7, 49, 1377986, 523173, 233865, 20, 72,
            22.64186759472126, 27.409922005384434, 0.017543859649122806,
        ),
    }

    @pytest.fixture(scope="class")
    def lab(self):
        return WorkloadLab("nasa-like", total_days=3, seed=7, scale=0.1)

    @pytest.mark.parametrize("model_key, subset", sorted(PINNED))
    def test_counters_match_the_recorded_run(self, lab, model_key, subset):
        browsers = tuple(lab.browser_clients())
        clients = browsers if subset == "all" else browsers[::3]
        simulator = PrefetchSimulator(
            lab.model(model_key, 2),
            lab.url_sizes,
            lab.latency(2),
            lab.config_for(model_key),
            popularity=lab.popularity(2),
        )
        result = simulator.run_proxy(lab.split(2).test_requests, clients=clients)
        got = tuple(getattr(result, name) for name in self.FIELDS)
        assert got == self.PINNED[model_key, subset]
