"""Unit tests for :class:`repro.sampling.ClientSampler` and its wiring
into the trace plane, the workload bridge, the grid spec and the CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import SamplingError, TraceError, WorkloadError
from repro.sampling import HASH_SPAN, SUPPORTED_RATES, ClientSampler, client_hash
from repro.synth.generator import TraceGenerator, generate_trace
from repro.trace.columnar import ColumnarWriter, RequestBatch, TraceColumns
from repro.trace.dataset import Trace
from repro.workloads import create_workload, stream_to_columnar
from repro.workloads.grid import DEFAULT_GRID, validate_grid_spec

from tests.oracle import ReferenceTrace


class TestValidation:
    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5, float("nan")])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(SamplingError):
            ClientSampler(rate)

    def test_non_numeric_rate_rejected(self):
        with pytest.raises(SamplingError):
            ClientSampler("half")

    @pytest.mark.parametrize("salt", [-1, HASH_SPAN, "zero"])
    def test_bad_salts_rejected(self, salt):
        with pytest.raises(SamplingError):
            ClientSampler(0.5, salt=salt)

    def test_supported_rates_are_canonical(self):
        assert SUPPORTED_RATES == (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)
        for rate in SUPPORTED_RATES:
            ClientSampler(rate)


class TestHash:
    def test_hash_is_process_independent(self):
        # Pinned value: the hash must never depend on PYTHONHASHSEED or
        # the interpreter run, or samples stop being reproducible.
        assert client_hash("client-1") == client_hash("client-1")
        assert client_hash("client-1", salt=1) != client_hash("client-1")
        assert 0 <= client_hash("client-1") < HASH_SPAN

    def test_scale_is_inverse_rate(self):
        assert ClientSampler(0.1).scale == pytest.approx(10.0)
        assert ClientSampler(1.0).scale == 1.0

    def test_rate_one_keeps_all(self):
        sampler = ClientSampler(1.0)
        assert all(sampler.keeps(f"c{i}") for i in range(100))

    def test_equality_and_hash(self):
        assert ClientSampler(0.1, salt=2) == ClientSampler(0.1, salt=2)
        assert ClientSampler(0.1, salt=2) != ClientSampler(0.1, salt=3)
        assert hash(ClientSampler(0.2)) == hash(ClientSampler(0.2))


class TestTraceSampled:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace("nasa-like", days=2, seed=5, scale=0.1)

    def test_columnar_and_object_paths_select_same_clients(self, trace):
        sampler = ClientSampler(0.3, salt=7)
        sampled = trace.sampled(sampler)
        object_sampled = ReferenceTrace(trace.records).sampled(sampler)
        assert sampled.clients == object_sampled.clients
        assert sampled.clients == sampler.sampled_clients(trace.clients)
        assert [r.url for r in sampled.requests] == [
            r.url for r in object_sampled.requests
        ]

    def test_sampled_name_carries_rate(self, trace):
        assert "r=0.3" in trace.sampled(ClientSampler(0.3)).name
        assert trace.sampled(ClientSampler(0.3), name="x").name == "x"

    def test_empty_sample_raises_trace_error(self, trace):
        # A rate so low that (with this salt) nothing survives.
        sampler = ClientSampler(1e-9, salt=1)
        with pytest.raises(TraceError, match="kept no records"):
            trace.sampled(sampler)

    def test_request_batch_after_matches_object_filter(self, trace):
        cut = trace.requests[len(trace.requests) // 2].timestamp
        batch = trace.request_batch_after(cut)
        reference = ReferenceTrace(trace.records)
        expected = [r for r in reference.requests if r.timestamp > cut]
        assert len(batch) == len(expected)
        assert list(batch.iter_rows()) == list(
            RequestBatch.from_requests(expected).iter_rows()
        )


class TestBridgeSampling:
    def test_stream_sample_writes_only_kept_clients(self, tmp_path):
        sampler = ClientSampler(0.2, salt=3)
        workload = create_workload("stationary", seed=9)
        path = str(tmp_path / "sampled.rpt")
        written = stream_to_columnar(workload, path, events=2_000, sample=sampler)
        assert 0 < written < 2_000
        columns = TraceColumns.load(path, use_mmap=False)
        assert len(columns) == written
        assert all(sampler.keeps(c) for c in set(columns.client_table))

    def test_stream_sample_equals_post_filter(self, tmp_path):
        """Stream-time sampling produces the same bytes as filtering the
        materialised stream afterwards — the mask is truly streaming."""
        sampler = ClientSampler(0.4, salt=1)
        streamed = str(tmp_path / "streamed.rpt")
        stream_to_columnar(
            create_workload("stationary", seed=4),
            streamed,
            events=1_500,
            sample=sampler,
            flush_events=128,
        )
        reference = str(tmp_path / "reference.rpt")
        records = list(create_workload("stationary", seed=4).events(1_500))
        with ColumnarWriter(reference) as writer:
            for record in sampler.sample_records(records):
                writer.append(record)
        with open(streamed, "rb") as a, open(reference, "rb") as b:
            assert a.read() == b.read()


class TestGridSpec:
    def test_sample_keys_validate(self):
        spec = validate_grid_spec({"sample_rate": 0.1, "sample_salt": 4})
        assert spec["sample_rate"] == 0.1
        assert spec["sample_salt"] == 4

    def test_default_grid_has_no_sampling(self):
        assert DEFAULT_GRID["sample_rate"] is None

    def test_bad_sample_rate_fails_validation(self):
        with pytest.raises(SamplingError):
            validate_grid_spec({"sample_rate": 2.0})

    def test_unknown_key_still_fails(self):
        with pytest.raises(WorkloadError, match="unknown grid spec key"):
            validate_grid_spec({"sample_rat": 0.1})


class TestCli:
    def test_generate_workload_sample_rate(self, tmp_path, capsys):
        out = str(tmp_path / "sampled.rpt")
        code = main(
            [
                "generate",
                "--workload",
                "stationary",
                "--events",
                "2000",
                "--sample-rate",
                "0.2",
                "--sample-salt",
                "3",
                out,
            ]
        )
        assert code == 0
        sampler = ClientSampler(0.2, salt=3)
        columns = TraceColumns.load(out, use_mmap=False)
        assert 0 < len(columns) < 2_000
        assert all(sampler.keeps(c) for c in set(columns.client_table))

    def test_generate_profile_sample_rate_columnar(self, tmp_path):
        out = str(tmp_path / "profile.rpt")
        code = main(
            [
                "generate",
                "nasa-like",
                out,
                "--days",
                "2",
                "--scale",
                "0.1",
                "--sample-rate",
                "0.5",
            ]
        )
        assert code == 0
        sampler = ClientSampler(0.5)
        trace = Trace.from_columnar_file(out, use_mmap=False)
        full = generate_trace("nasa-like", days=2, seed=7, scale=0.1)
        assert trace.clients == sampler.sampled_clients(full.clients)

    def test_generate_profile_sample_rate_clf(self, tmp_path):
        out = str(tmp_path / "profile.log")
        assert (
            main(
                [
                    "generate",
                    "nasa-like",
                    out,
                    "--days",
                    "1",
                    "--scale",
                    "0.1",
                    "--sample-rate",
                    "0.5",
                ]
            )
            == 0
        )
        records = TraceGenerator(
            "nasa-like", seed=7, scale=0.1
        ).generate_records(1)
        sampler = ClientSampler(0.5)
        expected = sum(1 for r in records if sampler.keeps(r.client))
        with open(out, "r", encoding="ascii") as handle:
            assert sum(1 for _ in handle) == expected

    def test_bad_rate_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--sample-rate", "1.5", "x.rpt"])

    def test_grid_cli_sample_rate(self, tmp_path):
        out = str(tmp_path / "grid.json")
        spec = str(tmp_path / "spec.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "scenarios": [{"workload": "stationary"}],
                    "models": ["pb"],
                },
                handle,
            )
        code = main(
            [
                "grid",
                spec,
                "--events",
                "4000",
                "--sample-rate",
                "0.2",
                "--out",
                out,
            ]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            tree = json.load(handle)
        node = tree["scenarios"]["stationary"]
        assert node["sampling"]["rate"] == 0.2
        assert node["sampling"]["kept_events"] == node["generation"]["events"]
        assert node["sampling"]["kept_fraction"] < 0.5
        assert "node_count_scaled" in node["models"]["pb"]


class TestLabSampling:
    def test_sampled_lab_replays_subset(self):
        from repro.experiments.lab import WorkloadLab, clear_labs

        clear_labs()
        full = WorkloadLab("nasa-like", 2, seed=3, scale=0.1)
        sampled = WorkloadLab(
            "nasa-like", 2, seed=3, scale=0.1, sample_rate=0.4, sample_salt=2
        )
        sampler = ClientSampler(0.4, salt=2)
        assert sampled.trace.clients == sampler.sampled_clients(
            full.trace.clients
        )
        result = sampled.run("pb", 1)
        assert result.labels["sample_rate"] == 0.4

    def test_default_sampling_round_trip(self):
        from repro.experiments.lab import (
            default_sampling,
            get_lab,
            clear_labs,
            set_default_sampling,
        )

        clear_labs()
        assert default_sampling() is None
        set_default_sampling(0.5, 9)
        try:
            assert default_sampling() == (0.5, 9)
            lab = get_lab("nasa-like", 2, seed=3, scale=0.1)
            assert lab.sample_rate == 0.5
            assert lab.sample_salt == 9
            # The sampling spec is part of the cache key.
            other = get_lab(
                "nasa-like", 2, seed=3, scale=0.1, sample_rate=1.0
            )
            assert other is not lab
        finally:
            set_default_sampling(None)
            clear_labs()
        assert default_sampling() is None

    def test_env_var_sampling(self):
        from repro.experiments.lab import default_sampling

        os.environ["REPRO_SAMPLE_RATE"] = "0.2"
        os.environ["REPRO_SAMPLE_SALT"] = "5"
        try:
            assert default_sampling() == (0.2, 5)
        finally:
            del os.environ["REPRO_SAMPLE_RATE"]
            del os.environ["REPRO_SAMPLE_SALT"]

    def test_set_default_sampling_validates(self):
        from repro.experiments.lab import set_default_sampling

        with pytest.raises(SamplingError):
            set_default_sampling(3.0)
