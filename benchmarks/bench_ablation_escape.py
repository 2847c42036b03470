"""Ablation A4: longest-match-only (the paper) vs compression-PPM escape.

The paper's models predict from the longest matching context only; the
escape variant falls back to shorter contexts when nothing clears the
threshold.  Expected shape: escape adds prefetch volume (more traffic)
and some hits for the baselines — quantifying how much of the standard
model's weakness is the no-escape policy.
"""

from repro.experiments import run_experiment


def test_ablation_escape(benchmark, report):
    result = run_experiment("ablation-escape")
    report(result)

    def row(model, escape):
        for candidate in result.rows:
            if candidate["model"] == model and candidate["escape"] is escape:
                return candidate
        raise AssertionError("missing row")

    for model in ("standard", "lrs"):
        plain = row(model, False)
        escaped = row(model, True)
        # Escape can only widen the set of issued predictions, and on this
        # workload it does: the escape rows must move.
        assert escaped["traffic_increment"] > plain["traffic_increment"]
        assert escaped["hit_ratio"] >= plain["hit_ratio"] - 0.005

    benchmark.pedantic(
        lambda: run_experiment("ablation-escape"), rounds=1, iterations=1
    )
