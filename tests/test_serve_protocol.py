"""Tests for request canonicalization and response encoding."""

from dataclasses import asdict

import pytest

from repro.config import default_config
from repro.runtime import SimJob, job_key
from repro.runtime.runner import JobOutcome
from repro.serve.protocol import (
    ProtocolError,
    encode_outcome,
    parse_simulation_request,
)


class TestParse:
    def test_minimal_request_gets_defaults(self):
        job = parse_simulation_request({"dataset": "cora"})
        assert job == SimJob(dataset="cora")

    def test_cli_aliases(self):
        job = parse_simulation_request(
            {"dataset": "cora", "layers": 3, "device": "gcnax"}
        )
        assert job.num_layers == 3
        assert job.accelerator == "gcnax"

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="bogus"):
            parse_simulation_request({"dataset": "cora", "bogus": 1})

    def test_alias_duplicate_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            parse_simulation_request({"num_layers": 2, "layers": 2})

    def test_unsupported_tier_rejected(self):
        with pytest.raises(ProtocolError, match="tier"):
            parse_simulation_request({"dataset": "cora", "tier": "cycle"})

    def test_analytical_tier_accepted(self):
        job = parse_simulation_request({"dataset": "cora", "tier": "analytical"})
        assert job.dataset == "cora"

    def test_range_validation_propagates(self):
        with pytest.raises(ProtocolError):
            parse_simulation_request({"dataset": "cora", "scale": 2.0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("link_latency", -5),
            ("bypass_segment_latency", -50),
            ("bypass_links_per_row", -1),
        ],
    )
    def test_out_of_range_noc_config_rejected(self, field, value):
        """A bad ``config.noc`` field fails the request, not the simulation."""
        config = asdict(default_config())
        config["noc"][field] = value
        with pytest.raises(ProtocolError, match=">="):
            parse_simulation_request({"dataset": "cora", "config": config})

    def test_bad_type_rejected(self):
        with pytest.raises(ProtocolError, match="hidden"):
            parse_simulation_request({"dataset": "cora", "hidden": "many"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            parse_simulation_request([1, 2])  # type: ignore[arg-type]


class TestCanonicalization:
    def test_equivalent_spellings_hash_identically(self):
        """JSON ``1`` vs ``1.0`` must land on the same cache entry."""
        a = parse_simulation_request({"dataset": "cora", "scale": 1})
        b = parse_simulation_request({"dataset": "cora", "scale": 1.0})
        assert job_key(a) == job_key(b)

    def test_alias_and_canonical_name_hash_identically(self):
        a = parse_simulation_request({"dataset": "cora", "layers": 3})
        b = parse_simulation_request({"dataset": "cora", "num_layers": 3})
        assert job_key(a) == job_key(b)

    def test_roundtrips_simjob_wire_form(self):
        job = SimJob(dataset="pubmed", scale=0.5, hidden=32)
        assert parse_simulation_request(job.as_dict()) == job


class TestEncode:
    def test_encodes_error_free_outcome_without_result(self):
        job = SimJob(dataset="cora")
        outcome = JobOutcome(job, job_key(job), None, cached=True, seconds=0.5)
        payload = encode_outcome(outcome, joined=True, latency_seconds=0.25)
        assert payload["cached"] is True
        assert payload["joined"] is True
        assert payload["seconds"] == 0.5
        assert payload["latency_seconds"] == 0.25
        assert payload["result"] is None
        assert payload["key"] == job_key(job)
