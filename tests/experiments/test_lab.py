"""Unit tests for the workload lab (tiny scale)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.lab import WorkloadLab, clear_labs, get_lab

SCALE = 0.08  # tiny but non-degenerate


@pytest.fixture(scope="module")
def lab():
    clear_labs()
    return WorkloadLab("nasa-like", total_days=3, seed=3, scale=SCALE)


class TestCaching:
    def test_split_cached(self, lab):
        assert lab.split(2) is lab.split(2)

    def test_popularity_cached(self, lab):
        assert lab.popularity(2) is lab.popularity(2)

    def test_model_cached(self, lab):
        assert lab.model("pb", 2) is lab.model("pb", 2)

    def test_distinct_models_per_day(self, lab):
        assert lab.model("pb", 1) is not lab.model("pb", 2)

    def test_run_cached(self, lab):
        assert lab.run("pb", 2) is lab.run("pb", 2)

    def test_run_distinct_for_different_settings(self, lab):
        assert lab.run("pb", 2) is not lab.run("pb", 2, threshold=0.5)

    def test_get_lab_caches_by_key(self):
        clear_labs()
        a = get_lab("nasa-like", 2, seed=1, scale=SCALE)
        b = get_lab("nasa-like", 2, seed=1, scale=SCALE)
        c = get_lab("nasa-like", 2, seed=2, scale=SCALE)
        assert a is b
        assert a is not c
        clear_labs()


class TestModels:
    def test_all_model_keys_buildable(self, lab):
        for key in ("standard", "standard3", "lrs", "pb", "pb-unpruned", "markov1", "top10"):
            model = lab.model(key, 1)
            assert model.is_fitted

    def test_unknown_model_key(self, lab):
        with pytest.raises(ExperimentError):
            lab.model("mystery", 1)

    def test_pb_unpruned_at_least_as_large(self, lab):
        assert (
            lab.model("pb-unpruned", 2).node_count
            >= lab.model("pb", 2).node_count
        )


class TestRuns:
    def test_client_run_labels(self, lab):
        result = lab.run("pb", 2)
        assert result.labels["profile"] == "nasa-like"
        assert result.labels["train_days"] == 2
        assert result.labels["topology"] == "client"
        assert result.requests > 0

    def test_proxy_run(self, lab):
        clients = tuple(lab.browser_clients()[:3])
        result = lab.run("pb", 2, topology="proxy", clients=clients)
        assert result.labels["topology"] == "proxy"

    def test_unknown_topology(self, lab):
        with pytest.raises(ExperimentError):
            lab.run("pb", 2, topology="mesh")

    def test_escape_override_changes_result_key(self, lab):
        plain = lab.run("standard", 2)
        escaped = lab.run("standard", 2, escape=True)
        assert plain is not escaped

    def test_escape_reaches_the_replayed_predictions(self):
        """The engine predicts through the cursor entry point, so the
        escape override must reach it: escape only adds predictions."""
        seeded = WorkloadLab("nasa-like", total_days=3, seed=7, scale=0.1)
        for key, plain, escaped in (("standard", 250, 274), ("lrs", 170, 189)):
            assert seeded.run(key, 2).predictions_made == plain
            assert seeded.run(key, 2, escape=False).predictions_made == plain
            assert seeded.run(key, 2, escape=True).predictions_made == escaped

    def test_threshold_override_applies(self, lab):
        loose = lab.run("standard", 2, threshold=0.01)
        strict = lab.run("standard", 2, threshold=0.99)
        assert loose.prefetches_issued >= strict.prefetches_issued

    def test_browser_clients_nonempty(self, lab):
        browsers = lab.browser_clients()
        assert browsers
        assert all(lab.client_kinds[c] == "browser" for c in browsers)
