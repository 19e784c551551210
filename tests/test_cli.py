"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.model == "gcn"
        assert args.dataset == "cora"
        assert args.device == "aurora"

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--model", "bert"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--dataset", "ogbn"])

    def test_compare_runtime_flags_default_off(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 1
        assert args.cache is False

    def test_sweep_cache_defaults_on(self):
        args = build_parser().parse_args(["sweep"])
        assert args.cache is True
        args = build_parser().parse_args(["sweep", "--no-cache", "--jobs", "4"])
        assert args.cache is False
        assert args.jobs == 4

    def test_experiment_accepts_jobs_flag(self):
        args = build_parser().parse_args(["experiment", "E1", "--jobs", "2"])
        assert args.jobs == 2

    def test_dse_accepts_jobs_flag(self):
        args = build_parser().parse_args(["dse", "--jobs", "2"])
        assert args.jobs == 2

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_serving_commands_reject_jobs(self, command, capsys):
        # A serve batch always runs in-thread; serving scales out with
        # ``repro cluster --replicas N``, not a pool per batch.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_rejects_nonpositive_jobs(self):
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--jobs", bad])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.queue_depth == 64
        assert args.cache is True
        assert args.timeout is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--queue-depth", "4", "--no-cache",
             "--batch-window", "0.05", "--max-batch", "8"]
        )
        assert args.port == 0
        assert args.queue_depth == 4
        assert args.cache is False
        assert args.batch_window == 0.05
        assert args.max_batch == 8

    def test_request_defaults(self):
        args = build_parser().parse_args(["request"])
        assert args.model == "gcn"
        assert args.port == 8765
        assert args.deadline is None

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_prune_requires_a_bound(self, capsys):
        # Both bounds are optional flags; giving neither is a usage error.
        args = build_parser().parse_args(["cache", "prune"])
        assert args.max_age is None
        assert args.max_bytes is None
        assert main(["cache", "prune"]) == 2
        assert "--max-age and/or --max-bytes" in capsys.readouterr().err

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.replicas == 2
        assert args.vnodes == 64
        assert args.max_inflight == 16
        assert args.port == 8765

    def test_serve_replica_id(self):
        args = build_parser().parse_args(["serve", "--replica-id", "3"])
        assert args.replica_id == "3"


class TestParseAge:
    def test_units(self):
        from repro.cli import parse_age

        assert parse_age("900") == 900.0
        assert parse_age("30m") == 1800.0
        assert parse_age("36h") == 36 * 3600.0
        assert parse_age("7d") == 7 * 86400.0
        assert parse_age("1.5h") == 5400.0

    def test_rejects_garbage(self):
        from repro.cli import parse_age

        for bad in ("soon", "h", "-1d"):
            with pytest.raises(ValueError):
                parse_age(bad)


class TestParseSize:
    def test_units(self):
        from repro.cli import parse_size

        assert parse_size("50000000") == 50_000_000
        assert parse_size("64k") == 64 * 1024
        assert parse_size("100m") == 100 * (1 << 20)
        assert parse_size("2g") == 2 * (1 << 30)
        assert parse_size("1.5K") == 1536

    def test_rejects_garbage(self):
        from repro.cli import parse_size

        for bad in ("big", "k", "-1m"):
            with pytest.raises(ValueError):
                parse_size(bad)


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cora", "citeseer", "pubmed", "nell", "reddit"):
            assert name in out
        assert "2,708" in out  # Cora's published vertex count

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gcn" in out and "edgeconv-5" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "32x32" in out
        assert "700 MHz" in out
        assert "63 cycles" in out

    def test_simulate_aurora(self, capsys):
        rc = main(["simulate", "--dataset", "cora", "--scale", "0.2",
                   "--hidden", "16", "--layers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "device          : aurora" in out
        assert "execution time" in out

    def test_simulate_baseline(self, capsys):
        rc = main(["simulate", "--dataset", "cora", "--scale", "0.2",
                   "--device", "gcnax", "--hidden", "16", "--layers", "1"])
        assert rc == 0
        assert "gcnax" in capsys.readouterr().out

    def test_simulate_unsupported_warns(self, capsys):
        rc = main(["simulate", "--dataset", "cora", "--scale", "0.2",
                   "--device", "hygcn", "--model", "ggcn",
                   "--hidden", "8", "--layers", "1"])
        assert rc == 0
        assert "does not support" in capsys.readouterr().err

    def test_simulate_hashing_mapping(self, capsys):
        rc = main(["simulate", "--dataset", "cora", "--scale", "0.2",
                   "--mapping", "hashing", "--hidden", "8", "--layers", "1"])
        assert rc == 0
        assert "aurora-hashing" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--datasets", "cora", "--metric", "energy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aurora" in out and "hygcn" in out

    def test_sweep_cold_then_warm(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "--datasets", "cora", "--metric", "energy"]) == 0
        out = capsys.readouterr().out
        assert "aurora" in out
        assert "6 executed" in out
        assert "cache 0 hit / 6 miss" in out
        # Warm rerun: every grid point served from the cache.
        assert main(["sweep", "--datasets", "cora", "--metric", "energy"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        assert "cache 6 hit / 0 miss" in out

    def test_sweep_no_cache(self, capsys):
        rc = main(["sweep", "--datasets", "cora", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 executed" in out
        assert "cache 0 hit / 0 miss" in out

    def test_compare_with_jobs_flag(self, capsys):
        rc = main(["compare", "--datasets", "cora", "--jobs", "2",
                   "--metric", "energy"])
        assert rc == 0
        assert "aurora" in capsys.readouterr().out

    def test_experiment(self, capsys):
        assert main(["experiment", "E1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_with_runtime_flags(self, capsys):
        assert main(["experiment", "E1", "--jobs", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "error" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_empty(self, capsys, tmp_path):
        assert main(["cache", "--dir", str(tmp_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries     : 0" in out
        assert str(tmp_path) in out

    def test_stats_clear_roundtrip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(["sweep", "--datasets", "cora", "--metric", "energy"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "entries     : 6" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 6" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries     : 0" in capsys.readouterr().out

    def test_prune_by_age(self, capsys, tmp_path):
        import os
        import time

        from repro.runtime import ResultCache

        cache = ResultCache(tmp_path)
        cache.store("ab" + "0" * 62, {"x": 1})
        cache.store("cd" + "0" * 62, {"x": 2})
        old = time.time() - 3 * 86400
        os.utime(cache.path_for("ab" + "0" * 62), (old, old))
        assert main(["cache", "--dir", str(tmp_path), "prune",
                     "--max-age", "1d"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert len(cache) == 1

    def test_prune_rejects_bad_age(self, capsys, tmp_path):
        assert main(["cache", "--dir", str(tmp_path), "prune",
                     "--max-age", "soon"]) == 2
        assert "invalid age" in capsys.readouterr().err

    def test_prune_by_bytes(self, capsys, tmp_path):
        import os
        import time

        from repro.runtime import ResultCache

        cache = ResultCache(tmp_path)
        for i, key in enumerate(("ab" + "0" * 62, "cd" + "0" * 62)):
            cache.store(key, {"x": i, "pad": "y" * 200})
            # Distinct mtimes make the oldest-first order deterministic.
            stamp = time.time() - (10 - i)
            os.utime(cache.path_for(key), (stamp, stamp))
        budget = cache.path_for("cd" + "0" * 62).stat().st_size
        assert main(["cache", "--dir", str(tmp_path), "prune",
                     "--max-bytes", str(budget)]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert len(cache) == 1
        assert cache.load("cd" + "0" * 62) is not None  # newest survived

    def test_prune_by_age_and_bytes_together(self, capsys, tmp_path):
        from repro.runtime import ResultCache

        cache = ResultCache(tmp_path)
        cache.store("ab" + "0" * 62, {"x": 1})
        assert main(["cache", "--dir", str(tmp_path), "prune",
                     "--max-age", "1d", "--max-bytes", "1g"]) == 0
        out = capsys.readouterr().out
        assert "pruned 0" in out
        assert "evicted 0" in out
        assert len(cache) == 1

    def test_prune_rejects_bad_size(self, capsys, tmp_path):
        assert main(["cache", "--dir", str(tmp_path), "prune",
                     "--max-bytes", "big"]) == 2
        assert "invalid size" in capsys.readouterr().err

    def test_request_against_dead_server_fails_cleanly(self, capsys):
        # Port 1 is never listening; the client retries then reports.
        assert main(["request", "--port", "1", "--retries", "0",
                     "--dataset", "cora"]) == 1
        assert "error" in capsys.readouterr().err


class TestDSECommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.space == "aurora-core"
        assert args.optimizer == "random"
        assert args.objective == "latency"
        assert args.budget == 200
        assert args.cache is True

    def test_parser_rejects_unknown_space(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--space", "nonesuch"])

    def test_parser_accepts_adversarial_dataset(self):
        args = build_parser().parse_args(["dse", "--dataset", "adv-star"])
        assert args.dataset == "adv-star"

    def test_search_writes_trajectory(self, capsys, tmp_path):
        rc = main([
            "dse", "--space", "aurora-mini", "--budget", "8", "--batch", "4",
            "--dataset", "cora", "--scale", "0.1", "--hidden", "8",
            "--layers", "1", "--no-cache",
            "--trajectory", str(tmp_path / "t.jsonl"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 evaluations" in out
        assert "best latency" in out
        assert (tmp_path / "t.jsonl").exists()

    def test_malformed_option_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="malformed"):
            main([
                "dse", "--space", "aurora-mini", "--budget", "4",
                "--option", "oops",
                "--trajectory", str(tmp_path / "t.jsonl"),
            ])

    def test_paper_sweep_grid(self, capsys, tmp_path):
        rc = main([
            "dse", "--grid", "paper-sweep", "--datasets", "cora",
            "--scale", "0.1", "--hidden", "8", "--layers", "1", "--no-cache",
            "--trajectory", str(tmp_path / "grid.jsonl"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 evaluations" in out
        assert "accelerator" in out

    def test_json_output(self, capsys, tmp_path):
        import json

        rc = main([
            "dse", "--space", "aurora-mini", "--budget", "4", "--batch", "4",
            "--dataset", "cora", "--scale", "0.1", "--hidden", "8",
            "--layers", "1", "--no-cache", "--json",
            "--trajectory", str(tmp_path / "t.jsonl"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluations"] == 4
        assert payload["spec"]["space"] == "aurora-mini"
