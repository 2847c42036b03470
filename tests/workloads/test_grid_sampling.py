"""Grid sampling: the streaming mask, the results tree, and flat RAM.

The grid's sampled path must never materialise the full window: the
client-hash mask filters events *as the workload streams* into the
temporary ``.rpt``, so a huge sampled cell allocates like the small
trace it keeps, not the big one it reads.  The RSS gate here mirrors
the streaming-workload flatness gate: child processes report VmHWM, and
a big cell sampled down to the size of a small full cell may not peak
meaningfully above it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.sampling import ClientSampler
from repro.workloads import create_workload, run_grid

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
PROBE = pathlib.Path(__file__).resolve().parent / "grid_sampling_probe.py"

#: The big sampled cell keeps ~BIG_EVENTS * RATE events — sized to match
#: the small full cell, so the only RSS difference left is the window
#: the sampled path is *not* allowed to materialise.
BIG_EVENTS = 60_000
RATE = 0.05
SMALL_EVENTS = int(BIG_EVENTS * RATE)


def _probe(events: int, rate: "float | None") -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [
            sys.executable,
            str(PROBE),
            str(events),
            "full" if rate is None else str(rate),
        ],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestGridSampling:
    @pytest.fixture(scope="class")
    def tree(self):
        return run_grid(
            {"scenarios": [{"workload": "stationary"}], "models": ["pb"]},
            events=6_000,
            sample_rate=0.2,
            sample_salt=1,
        )

    def test_sampling_node_reports_the_mask(self, tree):
        node = tree["scenarios"]["stationary"]
        sampling = node["sampling"]
        assert sampling["rate"] == 0.2
        assert sampling["salt"] == 1
        assert sampling["requested_events"] == 6_000
        assert sampling["kept_events"] == node["generation"]["events"]
        assert 0 < sampling["kept_fraction"] < 0.5
        assert sampling["scale"] == pytest.approx(5.0)

    def test_kept_events_match_stream_filter(self, tree):
        """The grid keeps exactly the events the sampler's streaming
        predicate keeps — no window-then-filter shortcut."""
        sampler = ClientSampler(0.2, salt=1)
        workload = create_workload("stationary", seed=7)
        expected = sum(
            1 for _ in sampler.sample_records(workload.events(6_000))
        )
        assert tree["scenarios"]["stationary"]["sampling"]["kept_events"] == (
            expected
        )

    def test_scaled_counts_present_per_cell(self, tree):
        cell = tree["scenarios"]["stationary"]["models"]["pb"]
        assert cell["node_count_scaled"] == pytest.approx(
            cell["node_count"] * 5.0
        )

    def test_sampled_grid_is_deterministic(self, tree):
        again = run_grid(
            {"scenarios": [{"workload": "stationary"}], "models": ["pb"]},
            events=6_000,
            sample_rate=0.2,
            sample_salt=1,
        )
        assert (
            again["scenarios"]["stationary"]["models"]
            == tree["scenarios"]["stationary"]["models"]
        )

    def test_unsampled_tree_has_no_sampling_node(self):
        tree = run_grid(
            {"scenarios": [{"workload": "stationary"}], "models": ["pb"]},
            events=3_000,
        )
        assert "sampling" not in tree["scenarios"]["stationary"]


class TestGridSamplingRss:
    def test_sampled_cell_rss_is_flat_in_window_size(self):
        """A 60k-event cell sampled at r=5% peaks like the 3k-event full
        cell it resembles — the 60k window is never held in memory."""
        small = _probe(SMALL_EVENTS, None)
        big = _probe(BIG_EVENTS, RATE)
        assert big["sampling"]["rate"] == RATE
        # The sampled cell kept roughly rate * events (binomial slack).
        assert 0.2 * SMALL_EVENTS <= big["kept_events"] <= 3.0 * SMALL_EVENTS
        flatness = big["hwm_kb"] / small["hwm_kb"]
        print(
            f"sampled {BIG_EVENTS} events @ r={RATE}: peak RSS "
            f"{big['hwm_kb']}KB vs {small['hwm_kb']}KB full at "
            f"{SMALL_EVENTS} events = {flatness:.2f}x"
        )
        assert flatness <= 1.8
