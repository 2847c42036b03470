"""Unit tests for traffic-budgeted adaptive prefetching."""

import pytest

from repro.core.standard import StandardPPM
from repro.errors import SimulationError
from repro.sim.adaptive import AdaptivePolicy, AdaptivePrefetchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.latency import LatencyModel

from tests.helpers import make_request, make_sessions

LATENCY = LatencyModel(0.5, 0.0)
SIZES = {"A": 1000, "B": 1000, "C": 1000}


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"traffic_budget": -0.1},
            {"adjust_every": 0},
            {"step": 1.0},
            {"min_threshold": 0.0},
            {"min_threshold": 0.9, "max_threshold": 0.5},
            {"max_threshold": 1.5},
        ],
    )
    def test_invalid_policies(self, kwargs):
        with pytest.raises(SimulationError):
            AdaptivePolicy(**kwargs)

    def test_defaults_valid(self):
        policy = AdaptivePolicy()
        assert policy.traffic_budget == 0.10


class TestController:
    def make_simulator(self, policy, *, model=None):
        if model is None:
            model = StandardPPM().fit(make_sessions([("A", "B")] * 4))
        return AdaptivePrefetchSimulator(
            model,
            SIZES,
            LATENCY,
            SimulationConfig(),
            policy=policy,
        )

    def test_starts_at_configured_threshold(self):
        simulator = self.make_simulator(AdaptivePolicy())
        assert simulator.effective_threshold == 0.25

    def test_threshold_rises_when_over_budget(self):
        # Model always predicts B after A but the client never fetches B:
        # all prefetch bytes are wasted, so traffic exceeds any budget.
        policy = AdaptivePolicy(traffic_budget=0.01, adjust_every=1, step=2.0)
        simulator = self.make_simulator(policy)
        requests = [
            make_request(url, timestamp=float(i * 10))
            for i, url in enumerate(["A", "C"] * 20)
        ]
        simulator.run(requests)
        assert simulator.effective_threshold > 0.25
        assert simulator.threshold_trajectory  # controller did adjust

    def test_threshold_falls_when_under_budget(self):
        # Perfectly useful prefetches: traffic increment stays ~0.
        policy = AdaptivePolicy(traffic_budget=0.5, adjust_every=1, step=2.0)
        simulator = self.make_simulator(policy)
        requests = [
            make_request(url, timestamp=float(i * 10))
            for i, url in enumerate(["A", "B"] * 20)
        ]
        simulator.run(requests)
        assert simulator.effective_threshold < 0.25

    def test_threshold_clamped(self):
        policy = AdaptivePolicy(
            traffic_budget=0.0,
            adjust_every=1,
            step=10.0,
            min_threshold=0.1,
            max_threshold=0.6,
        )
        simulator = self.make_simulator(policy)
        requests = [
            make_request(url, timestamp=float(i * 10))
            for i, url in enumerate(["A", "C"] * 30)
        ]
        simulator.run(requests)
        assert simulator.effective_threshold <= 0.6

    def test_behaves_like_base_when_no_model(self):
        simulator = AdaptivePrefetchSimulator(
            None, SIZES, LATENCY, SimulationConfig()
        )
        result = simulator.run(
            [make_request("A"), make_request("A", timestamp=10.0)]
        )
        assert result.prefetches_issued == 0
        assert result.hits == 1

    def test_results_still_accounted(self):
        simulator = self.make_simulator(AdaptivePolicy())
        requests = [
            make_request("A", timestamp=0.0),
            make_request("B", timestamp=10.0),
        ]
        result = simulator.run(requests)
        assert result.prefetch_hits == 1
        assert result.hits == 1


class TestPinnedRuns:
    """The controller's runs on a seeded lab, counters and threshold
    trajectory, pinned to recorded values in both topologies."""

    @pytest.fixture(scope="class")
    def lab(self):
        from repro.experiments.lab import WorkloadLab

        return WorkloadLab("nasa-like", total_days=3, seed=7, scale=0.1)

    @staticmethod
    def _run(lab, key, topology, adjust_every):
        simulator = AdaptivePrefetchSimulator(
            lab.model(key, 2),
            lab.url_sizes,
            lab.latency(2),
            lab.config_for(key),
            popularity=lab.popularity(2),
            policy=AdaptivePolicy(traffic_budget=0.05, adjust_every=adjust_every),
        )
        requests = lab.split(2).test_requests
        if topology == "client":
            result = simulator.run(requests, client_kinds=lab.client_kinds)
        else:
            result = simulator.run_proxy(
                requests, clients=tuple(lab.browser_clients())
            )
        counters = (
            result.requests,
            result.hits,
            result.predictions_made,
            result.prefetches_issued,
            result.prefetch_hits,
            result.prefetch_bytes,
        )
        return counters, simulator.threshold_trajectory

    def test_client_run_rises_to_the_clamp(self, lab):
        counters, trajectory = self._run(lab, "standard", "client", 25)
        assert counters == (313, 83, 84, 50, 16, 951505)
        assert trajectory == [
            0.3125, 0.390625, 0.48828125, 0.6103515625, 0.762939453125,
            0.762939453125, 0.95, 0.95, 0.95, 0.95, 0.95, 0.95,
        ]

    def test_proxy_run_rises_then_falls(self, lab):
        counters, trajectory = self._run(lab, "pb", "proxy", 10)
        assert counters == (313, 223, 587, 27, 14, 293954)
        assert trajectory == [
            0.3125, 0.390625, 0.48828125, 0.6103515625, 0.762939453125,
            *[0.95] * 14,
            0.76, 0.608, 0.4864, 0.38912, 0.311296, 0.2490368, 0.19922944,
            0.159383552, 0.1275068416, *[0.10200547328000001] * 3,
        ]
