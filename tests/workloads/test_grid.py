"""Grid spec validation and a bounded end-to-end grid run."""

import json

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    DEFAULT_GRID,
    load_grid_spec,
    run_grid,
    validate_grid_spec,
)


class TestSpecValidation:
    def test_default_grid_is_valid(self):
        validate_grid_spec(DEFAULT_GRID)

    def test_unknown_key_suggests_close_match(self):
        with pytest.raises(WorkloadError) as excinfo:
            validate_grid_spec({"modles": ["pb"]})
        message = str(excinfo.value)
        assert "modles" in message
        assert "models" in message

    def test_unknown_model_rejected(self):
        with pytest.raises(WorkloadError, match="pbx"):
            validate_grid_spec({"models": ["pbx"]})

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError, match="nope"):
            validate_grid_spec(
                {"scenarios": [{"label": "x", "workload": "nope"}]}
            )

    def test_scenario_needs_workload_key(self):
        with pytest.raises(WorkloadError, match="workload"):
            validate_grid_spec({"scenarios": [{"label": "x"}]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            validate_grid_spec(
                {
                    "scenarios": [
                        {"label": "a", "workload": "stationary"},
                        {"label": "a", "workload": "churn"},
                    ]
                }
            )

    def test_unknown_serve_key_suggests_close_match(self):
        with pytest.raises(WorkloadError) as excinfo:
            validate_grid_spec({"serve": {"conections": 2}})
        message = str(excinfo.value)
        assert "conections" in message
        assert "did you mean 'connections'" in message

    @pytest.mark.parametrize(
        "serve, match",
        [({"events": 400, "workers": 2}, "'workers'"), (["events"], "mapping")],
        ids=("workers-key", "not-a-mapping"),
    )
    def test_bad_serve_is_rejected(self, serve, match):
        with pytest.raises(WorkloadError, match=match):
            validate_grid_spec({"serve": serve})

    def test_unknown_scenario_key_suggests_close_match(self):
        with pytest.raises(WorkloadError) as excinfo:
            validate_grid_spec(
                {"scenarios": [{"workload": "stationary", "parmas": {}}]}
            )
        message = str(excinfo.value)
        assert "parmas" in message
        assert "did you mean 'params'" in message

    @pytest.mark.parametrize(
        "scenario, match",
        [
            ({"workload": "stationary", "seed": 3}, "'seed'"),
            ({"workload": "stationary", "params": [1]}, "mapping"),
            ({"workload": "stationary", "params": None}, "mapping"),
        ],
        ids=("seed-key", "params-list", "params-none"),
    )
    def test_bad_scenario_is_rejected(self, scenario, match):
        with pytest.raises(WorkloadError, match=match):
            validate_grid_spec({"scenarios": [scenario]})

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": [
                        {"label": "s", "workload": "stationary"}
                    ],
                    "models": ["top10"],
                }
            )
        )
        spec = load_grid_spec(str(path))
        assert spec["models"] == ["top10"]


class TestRunGrid:
    def test_bounded_grid_end_to_end(self):
        tree = run_grid(
            {
                "scenarios": [
                    {
                        "label": "tiny",
                        "workload": "stationary",
                        "params": {"clients": 200},
                    }
                ],
                "models": ["pb"],
                "pruning": [None, 0.5],
            },
            events=3_000,
        )
        node = tree["scenarios"]["tiny"]
        assert node["generation"]["events"] == 3_000
        assert node["generation"]["clients"] == 200
        cells = node["models"]
        assert set(cells) == {"pb", "pb@rel=0.5"}
        for metrics in cells.values():
            assert 0.0 <= metrics["hit_ratio"] <= 1.0
            assert metrics["node_count"] > 0
        # A harsher relative-probability cutoff must shrink the trie
        # below the default (0.10) pruning.
        assert (
            cells["pb@rel=0.5"]["node_count"] < cells["pb"]["node_count"]
        )
