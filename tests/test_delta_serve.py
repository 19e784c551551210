"""The incremental-simulation surface: ``{base, mutations}`` request
canonicalization, tile-reuse counters in responses and ``/stats``, and
the ``repro mutate`` / ``repro cache stats`` CLI paths.
"""

import json

import pytest

from repro.cli import main
from repro.graphs.datasets import load_dataset
from repro.graphs.delta import EdgeDelta, rewire_delta
from repro.runtime import ResultCache, SimJob, job_key, run_jobs
from repro.runtime.jobs import ENV_TILE_CACHE_DIR
from repro.runtime.runner import JobOutcome
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ProtocolError,
    encode_outcome,
    parse_simulation_request,
)
from repro.serve.server import ServerThread, SimulationService

SMALL = {"dataset": "cora", "scale": 0.1, "hidden": 8, "layers": 1}


def _small_delta() -> EdgeDelta:
    graph = load_dataset("cora", scale=0.1, seed=7)
    return rewire_delta(graph, [0, 5], seed=3)


class TestRequestCanonicalization:
    def test_incremental_form_equals_flat_form(self):
        delta = _small_delta()
        flat = dict(SMALL, mutations=[delta.as_dict()])
        nested = {"base": dict(SMALL), "mutations": [delta.as_dict()]}
        a = parse_simulation_request(flat)
        b = parse_simulation_request(nested)
        assert a == b
        assert job_key(a) == job_key(b)
        assert a.mutations is not None

    def test_dict_and_object_mutation_spellings_hash_identically(self):
        delta = _small_delta()
        parsed = parse_simulation_request(
            {"base": dict(SMALL), "mutations": [delta.as_dict()]}
        )
        direct = SimJob(
            dataset="cora", scale=0.1, hidden=8, num_layers=1,
            mutations=(delta,),
        )
        assert job_key(parsed) == job_key(direct)

    def test_empty_mutation_chain_canonicalizes_to_none(self):
        job = parse_simulation_request({"base": dict(SMALL), "mutations": []})
        assert job.mutations is None
        assert job_key(job) == job_key(parse_simulation_request(dict(SMALL)))

    def test_base_without_mutations_is_plain_job(self):
        job = parse_simulation_request({"base": dict(SMALL)})
        assert job.mutations is None


class TestProtocolRejections:
    def test_extra_field_beside_base(self):
        with pytest.raises(ProtocolError, match="only 'base' and 'mutations'"):
            parse_simulation_request(
                {"base": dict(SMALL), "mutations": [], "hidden": 8}
            )

    def test_base_must_be_object(self):
        with pytest.raises(ProtocolError, match="'base' must be a JSON object"):
            parse_simulation_request({"base": [1, 2]})

    def test_mutations_inside_base_rejected(self):
        with pytest.raises(ProtocolError, match="beside 'base'"):
            parse_simulation_request(
                {"base": dict(SMALL, mutations=[])}
            )

    def test_malformed_mutation_entry_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_simulation_request(
                {"base": dict(SMALL), "mutations": [{"bogus": 1}]}
            )


class TestEncodeOutcome:
    def _outcome(self, exec_meta):
        job = SimJob(dataset="cora", scale=0.1)
        return JobOutcome(
            job=job, key=job.key, result=None, seconds=0.1,
            exec_meta=exec_meta,
        )

    def test_tile_counters_present_with_exec_meta(self):
        meta = {"tiles": 5, "tiles_reused": 3, "tiles_recomputed": 2}
        payload = encode_outcome(
            self._outcome(meta), joined=False, latency_seconds=0.2
        )
        assert payload["tiles_reused"] == 3
        assert payload["tiles_recomputed"] == 2

    def test_tile_counters_absent_without_exec_meta(self):
        payload = encode_outcome(
            self._outcome(None), joined=False, latency_seconds=0.2
        )
        assert "tiles_reused" not in payload
        assert "tiles_recomputed" not in payload


class TestServiceStats:
    def test_no_tile_cache_and_zero_counters_reports_none(self):
        service = SimulationService()
        assert service.stats()["tile_cache"] is None

    def test_counters_alone_surface_without_tile_cache(self):
        service = SimulationService()
        service.events.labels(event="tile_reused").inc(4)
        section = service.stats()["tile_cache"]
        assert section == {"tiles_reused": 4, "tiles_recomputed": 0}

    def test_tile_cache_adds_stats_entries_bytes(self, tmp_path):
        tile_cache = ResultCache(tmp_path / "tiles")
        tile_cache.store("k0", {"tiles": []})
        service = SimulationService(tile_cache=tile_cache)
        section = service.stats()["tile_cache"]
        assert section["tiles_reused"] == 0
        assert section["tiles_recomputed"] == 0
        assert section["entries"] == 1
        assert section["bytes"] > 0
        assert "stats" in section


class TestServedTileReuse:
    """Responses and /stats carry per-tile reuse through a live server."""

    def test_counters_accumulate_across_requests(self, tmp_path, monkeypatch):
        from repro.perf.bench import clear_hot_path_caches

        root = tmp_path / "tiles"
        monkeypatch.setenv(ENV_TILE_CACHE_DIR, str(root))
        clear_hot_path_caches()

        async def runner(jobs):
            import asyncio

            return await asyncio.to_thread(lambda: run_jobs(jobs))

        service = SimulationService(
            runner=runner, batch_window=0.0, tile_cache=ResultCache(root)
        )
        with ServerThread(service) as thread:
            client = ServeClient(*thread.address, timeout=60.0)
            first = client.simulate(SMALL)
            assert first["tiles_recomputed"] > 0
            assert first["tiles_reused"] == 0
            second = client.simulate(dict(SMALL, hidden=16))
            assert second["tiles_reused"] > 0
            assert second["tiles_recomputed"] == 0

            section = service.stats()["tile_cache"]
            assert section["tiles_recomputed"] == first["tiles_recomputed"]
            assert section["tiles_reused"] == second["tiles_reused"]
            assert section["entries"] > 0
        clear_hot_path_caches()


class TestMutateCLI:
    def test_json_payload_round_trips_through_protocol(self, capsys):
        rc = main([
            "mutate", "--dataset", "cora", "--scale", "0.2", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"base", "mutations"}
        job = parse_simulation_request(payload)
        assert job.dataset == "cora"
        assert job.mutations is not None
        assert job.mutations[0].num_edits > 0

    def test_output_file_matches_stdout_payload(self, tmp_path, capsys):
        out = tmp_path / "req.json"
        rc = main([
            "mutate", "--dataset", "cora", "--scale", "0.2",
            "--json", "--output", str(out),
        ])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed

    def test_human_summary_lines(self, capsys):
        rc = main(["mutate", "--dataset", "cora", "--scale", "0.2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "dataset" in text
        assert "tiles" in text
        assert "delta key" in text

    def test_bad_dirty_fraction_is_usage_error(self, capsys):
        rc = main([
            "mutate", "--dataset", "cora", "--dirty-fraction", "1.5",
        ])
        assert rc == 2
        assert "dirty-fraction" in capsys.readouterr().err


class TestCacheStatsCLI:
    def test_tiles_sub_cache_section(self, tmp_path, capsys):
        root = tmp_path / "cache"
        ResultCache(root)  # materialize the main cache root
        tiles = ResultCache(root / "tiles")
        tiles.store("k0", {"tiles": []})
        rc = main(["cache", "--dir", str(root), "stats"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "tiles sub-cache" in text
        assert "entries   : 1" in text

    def test_no_tiles_section_without_sub_cache(self, tmp_path, capsys):
        root = tmp_path / "cache"
        ResultCache(root)
        rc = main(["cache", "--dir", str(root), "stats"])
        assert rc == 0
        assert "tiles sub-cache" not in capsys.readouterr().out
