"""The bench harness's one regression checker and its gate table.

``benchmarks/harness.py`` gates the six committed ``BENCH_*.json``
baselines (kernels, predict, trace, WAL, workloads, sampling) from one
table of ``(leaf-key substring, rule, tolerance)`` rows.  These tests pin
the metric paths and bounds it gates on the committed baselines, each
rule's boundary, the failure for a metric the results lack, the
committed results, and that every baseline has a gate and a CI matrix
entry.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
BASELINES = sorted(
    path.stem.removeprefix("BENCH_")
    for path in (BENCHMARKS / "baselines").glob("BENCH_*.json")
)

SCENARIOS = ("churn", "crawler", "diurnal", "flashcrowd", "stationary")
RATES = ("0.05", "0.1", "0.2", "0.5")

#: bench -> {(rule, tolerance): the metric paths gated with that bound}.
PINNED = {
    "kernels": {
        ("min", 0.2): [
            "build.aggregate_speedup",
            "build.lrs.speedup",
            "build.markov1.speedup",
            "build.pb.speedup",
            "build.standard.speedup",
            "incremental_prediction.speedup",
            "memory.pb.traced_retained_reduction",
            "memory.standard.traced_retained_reduction",
        ]
    },
    "predict": {
        ("min", 0.2): [
            "batch_predict.speedup",
            "compile.speedup",
            "cursor_replay.speedup",
            "engine_replay.speedup",
        ]
    },
    "trace": {
        ("min", 0.2): ["replay.speedup"],
        ("max", 0.2): ["replay.rss_ratio"],
    },
    "wal": {
        ("min", 0.05): ["serving_overhead.overhead_ratio"],
        ("min", 0.5): [
            "append.batch.records_per_s",
            "append.interval.records_per_s",
            "append.off.records_per_s",
            "recovery.records_per_s",
            "serving_overhead.requests_per_s_wal_off",
            "serving_overhead.requests_per_s_wal_on",
        ],
    },
    "workloads": {
        ("max", 0.2): ["streaming.rss_flatness"],
        ("min", 0.5): [f"generation.{s}.events_per_s" for s in SCENARIOS]
        + [f"grid.{s}.gen_events_per_s" for s in SCENARIOS]
        + ["streaming.write_events_per_s"],
        ("min", 0.2): [
            f"grid.{s}.hit_ratio_{model}"
            for s in SCENARIOS
            for model in ("pb", "standard")
        ],
    },
    "sampling": {
        ("exact", 0.0): ["fidelity.picked_rate"],
        ("min", 0.5): [f"fidelity.rates.{r}.speedup" for r in RATES]
        + ["speedup.speedup"],
        ("slack", 0.01): [
            f"fidelity.rates.{r}.hit_ratio_{stat}"
            for r in RATES
            for stat in ("bound", "mean_error")
        ]
        + ["speedup.hit_ratio_error"],
    },
}


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import harness

    yield harness
    sys.modules.pop("harness", None)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def test_gates_the_pinned_metric_paths_with_their_bounds(harness):
    assert sum(len(paths) for rows in PINNED.values() for paths in rows.values()) == 58
    for name, groups in PINNED.items():
        baseline = json.loads(
            (BENCHMARKS / "baselines" / f"BENCH_{name}.json").read_text()
        )
        gated = {
            path: (rule, tolerance)
            for path, (_value, rule, tolerance) in harness.gated_metrics(
                baseline, harness.GATES[name]
            ).items()
        }
        expected = {path: bound for bound, paths in groups.items() for path in paths}
        assert gated == expected, name


@pytest.mark.parametrize(
    "name, leaf, base, inside, outside",
    [
        ("kernels", "speedup", 2.0, 1.61, 1.59),  # min 0.2: floor 1.6
        ("wal", "overhead_ratio", 0.9, 0.856, 0.854),  # min 0.05: floor 0.855
        ("trace", "rss_ratio", 0.5, 0.599, 0.601),  # max 0.2: cap 0.6
        ("sampling", "hit_ratio_bound", -0.02, 0.0299, -0.0301),  # |x| <= 0.03
        ("sampling", "picked_rate", 0.5, 0.5, 0.5000001),  # exact
    ],
)
def test_each_rule_passes_inside_and_fails_outside_its_bound(
    harness, tmp_path, name, leaf, base, inside, outside
):
    baseline = _write(tmp_path / "baseline.json", {"section": {leaf: base}})
    for value, status in ((inside, 0), (outside, 1)):
        current = _write(tmp_path / "current.json", {"section": {leaf: value}})
        assert harness.check(name, current, baseline) == status, value


@pytest.mark.parametrize("picked", [0.4999999, 0.2, 1.0])
def test_exact_fails_on_any_difference(harness, tmp_path, picked):
    baseline = _write(tmp_path / "baseline.json", {"fidelity": {"picked_rate": 0.5}})
    current = _write(tmp_path / "current.json", {"fidelity": {"picked_rate": picked}})
    assert harness.check("sampling", current, baseline) == 1


def test_metric_missing_from_current_results_fails(harness, tmp_path, capsys):
    baseline = _write(
        tmp_path / "baseline.json",
        {"build": {"speedup": 2.0}, "incremental_prediction": {"speedup": 1.1}},
    )
    current = _write(tmp_path / "current.json", {"build": {"speedup": 2.0}})
    assert harness.check("kernels", current, baseline) == 1
    assert (
        "incremental_prediction.speedup: missing from current results"
        in capsys.readouterr().out
    )


def test_new_metric_and_size_mismatch_only_inform(harness, tmp_path, capsys):
    baseline = _write(
        tmp_path / "baseline.json", {"scale": 1.0, "build": {"speedup": 2.0}}
    )
    current = _write(
        tmp_path / "current.json",
        {"scale": 0.1, "build": {"speedup": 2.0, "new_speedup": 0.1}},
    )
    assert harness.check("kernels", current, baseline) == 0
    out = capsys.readouterr().out
    assert "warning: size mismatch (scale: current 0.1, baseline 1.0)" in out
    assert "build.new_speedup: current 0.1 (no baseline — informational)" in out


@pytest.mark.parametrize("name", BASELINES)
def test_committed_results_pass_against_their_baseline(harness, name):
    assert (
        harness.check(
            name,
            BENCHMARKS / "results" / f"BENCH_{name}.json",
            BENCHMARKS / "baselines" / f"BENCH_{name}.json",
        )
        == 0
    )


def test_every_baseline_has_a_gate_and_a_ci_matrix_entry(harness):
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.findall(r"^\s*- bench: (\w+)$", ci, flags=re.MULTILINE)
    assert BASELINES == sorted(harness.GATES) == sorted(matrix)
    assert "rm -f benchmarks/results/BENCH_${{ matrix.bench }}.json" in ci
    assert "python benchmarks/harness.py check ${{ matrix.bench }}" in ci


@pytest.mark.parametrize(
    "argv", [[], ["check"], ["check", "nope"], ["check", "wal", "--tolerance", "0.5"]]
)
def test_cli_takes_only_the_bench_name(harness, argv):
    assert harness.main(argv) == 2


def test_update_results_merges_sections_in_the_committed_layout(
    harness, tmp_path, monkeypatch
):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    harness.update_results("wal", "b", {"y": 2, "x": 1}, target_events=10)
    harness.update_results("wal", "a", {"z": 3}, target_events=20)
    text = (tmp_path / "BENCH_wal.json").read_text()
    doc = {"a": {"z": 3}, "b": {"x": 1, "y": 2}, "target_events": 20}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_run_probe_returns_the_last_json_line(harness, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "BENCH_DIR", tmp_path)
    (tmp_path / "probe.py").write_text(
        "import json, os, sys\n"
        "print('warming up')\n"
        "print(json.dumps({'path': os.environ['PYTHONPATH'], 'args': sys.argv[1:]}))\n"
    )
    reading = harness.run_probe("probe.py", "write", 7, tmp_path / "x.rpt")
    assert reading["args"] == ["write", "7", str(tmp_path / "x.rpt")]
    assert reading["path"].split(os.pathsep) == [str(ROOT / "src"), str(ROOT)]


def test_import_loads_nothing_beyond_the_stdlib():
    """Probes import the RSS readers before reading VmHWM."""
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, harness; "
            "print(sorted({'numpy', 'pytest', 'repro'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        check=True,
        cwd=BENCHMARKS,
    )
    assert out.stdout.strip() == "[]"
