"""Focused tests for the extension experiments (tiny scale)."""

import pytest

from repro.experiments import clear_labs, run_experiment

SCALE = 0.08


@pytest.fixture(autouse=True, scope="module")
def _clean_labs():
    clear_labs()
    yield
    clear_labs()


class TestCachePolicyExperiment:
    def test_covers_requested_policies_and_models(self):
        result = run_experiment(
            "ablation-cache-policy",
            train_days=2,
            policies=("lru", "fifo"),
            scale=SCALE,
        )
        policies = {row["policy"] for row in result.rows}
        models = {row["model"] for row in result.rows}
        assert policies == {"lru", "fifo"}
        assert models == {"pb", "standard", "lrs"}

    def test_pressure_caches_used(self):
        result = run_experiment(
            "ablation-cache-policy",
            train_days=2,
            policies=("lru",),
            browser_cache_bytes=64 * 1024,
            scale=SCALE,
        )
        assert "64 KB" in result.notes


class TestOnlineExperiment:
    def test_regimes_and_counts(self):
        result = run_experiment("ablation-online", train_days=2, scale=SCALE)
        rows = {(r["model"], r["regime"]): r for r in result.rows}
        assert set(rows) == {
            ("pb", "nightly"),
            ("pb", "incremental"),
            ("standard", "nightly"),
            ("standard", "incremental"),
        }
        for model in ("pb", "standard"):
            assert rows[(model, "nightly")]["refits"] == 2
            assert rows[(model, "incremental")]["refits"] == 1

    def test_defaults_reproduce_committed_table(self):
        """benchmarks/results/ablation-online.txt, row for row.

        The manager refits and folds view days straight from their
        columns; every count and the hit ratio must stay as they were
        when it built the days into Session objects.  Scale is pinned so
        REPRO_BENCH_SCALE cannot move the rows.
        """
        result = run_experiment("ablation-online", scale=1.0)
        rows = [
            (
                row["model"],
                row["regime"],
                row["refits"],
                row["incremental_updates"],
                row["node_count"],
                round(row["hit_ratio"], 4),
            )
            for row in result.rows
        ]
        assert rows == [
            ("pb", "nightly", 5, 0, 2916, 0.4263),
            ("pb", "incremental", 1, 4, 10065, 0.4466),
            ("standard", "nightly", 5, 0, 78143, 0.4195),
            ("standard", "incremental", 1, 4, 78143, 0.4195),
        ]

    def test_standard_incremental_identical_tree(self):
        result = run_experiment("ablation-online", train_days=2, scale=SCALE)
        rows = {(r["model"], r["regime"]): r for r in result.rows}
        # update ≡ batch for the standard model: same node count.
        assert (
            rows[("standard", "incremental")]["node_count"]
            == rows[("standard", "nightly")]["node_count"]
        )


class TestControlExperiment:
    def test_regularity_failure_recorded(self):
        result = run_experiment("control-uniform", train_days=2, scale=SCALE)
        assert "Regularity 1 holds: False" in result.notes

    def test_all_models_present(self):
        result = run_experiment("control-uniform", train_days=2, scale=SCALE)
        assert {row["model"] for row in result.rows} == {
            "pb",
            "standard",
            "standard3",
            "lrs",
        }


class TestAdaptiveExperiment:
    def test_budget_rows_and_threshold_bounds(self):
        result = run_experiment(
            "ablation-adaptive",
            train_days=2,
            budgets=(0.02, 0.3),
            scale=SCALE,
        )
        assert [row["budget"] for row in result.rows] == [0.02, 0.3]
        for row in result.rows:
            assert 0.0 < row["final_threshold"] <= 0.95
            assert row["achieved_traffic"] >= 0.0


class TestQualityExperiment:
    def test_metrics_within_bounds(self):
        result = run_experiment("prediction-quality", train_days=2, scale=SCALE)
        for row in result.rows:
            for column in (
                "coverage",
                "next_step_recall",
                "next_step_precision",
                "eventual_precision",
                "eventual_precision_popular",
                "eventual_precision_unpopular",
            ):
                assert 0.0 <= row[column] <= 1.0, (row["model"], column)

    def test_recall_never_exceeds_coverage(self):
        result = run_experiment("prediction-quality", train_days=2, scale=SCALE)
        for row in result.rows:
            assert row["next_step_recall"] <= row["coverage"] + 1e-9
