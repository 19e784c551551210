"""Tests for the cycle-tier calibration sweep (repro.eval.calibration)."""

import pytest

from repro.eval.calibration import (
    CalibrationJob,
    run_calibration_job,
    run_calibration_sweep,
)
from repro.runtime.cache import ResultCache


@pytest.fixture
def small_job():
    # Tiny tile so each execution stays fast.
    return CalibrationJob(num_vertices=40, num_edges=120, seed=1)


class TestCalibrationJob:
    def test_key_is_content_addressed(self, small_job):
        same = CalibrationJob(num_vertices=40, num_edges=120, seed=1)
        other = CalibrationJob(num_vertices=40, num_edges=120, seed=2)
        assert small_job.key == same.key
        assert small_job.key != other.key
        assert len(small_job.key) == 64  # hex sha256

    def test_key_covers_engine_choice(self, small_job):
        ref = CalibrationJob(
            num_vertices=40, num_edges=120, seed=1, noc_engine="reference"
        )
        assert small_job.key != ref.key

    def test_as_dict_round_trips_to_json(self, small_job):
        import json

        blob = json.dumps(small_job.as_dict(), sort_keys=True)
        assert json.loads(blob)["num_vertices"] == 40

    def test_validation(self):
        with pytest.raises(ValueError, match="array_k"):
            CalibrationJob(array_k=32)

    @pytest.mark.parametrize("name", ["warp-drive", "fused", "numba", "auto"])
    def test_unknown_engine_rejected(self, name):
        with pytest.raises(ValueError, match="noc_engine"):
            CalibrationJob(noc_engine=name)


class TestRunCalibrationJob:
    def test_payload_shape(self, small_job):
        payload = run_calibration_job(small_job)
        assert payload["measured"] > 0
        assert payload["predicted"] > 0
        assert payload["ratio"] == payload["predicted"] / payload["measured"]
        assert payload["packets"] > 0

    def test_engines_agree(self, small_job):
        """Event and reference engines measure the same tile identically."""
        ref_job = CalibrationJob(
            num_vertices=40, num_edges=120, seed=1, noc_engine="reference"
        )
        a = run_calibration_job(small_job)
        b = run_calibration_job(ref_job)
        for field in ("measured", "predicted", "packets", "flits", "stall_events"):
            assert a[field] == b[field]


class TestRunCalibrationSweep:
    def test_dedupes_identical_points(self, small_job):
        report = run_calibration_sweep([small_job, small_job], cache=None)
        assert report.executed == 1
        assert len(report.outcomes) == 2
        assert report.outcomes[0].result == report.outcomes[1].result
        report.raise_on_error()

    def test_cache_reuse_across_sweeps(self, small_job, tmp_path):
        cache = ResultCache(root=tmp_path)
        first = run_calibration_sweep([small_job], cache=cache)
        assert first.executed == 1 and first.cache_hits == 0
        second = run_calibration_sweep([small_job], cache=cache)
        assert second.executed == 0 and second.cache_hits == 1
        assert second.outcomes[0].cached
        assert second.outcomes[0].result == first.outcomes[0].result

    def test_errors_are_isolated(self, small_job, monkeypatch):
        """One failing point cannot kill the sweep."""
        bad = CalibrationJob(num_vertices=40, num_edges=120, seed=99)
        import repro.eval.calibration as cal

        real = cal.run_calibration_job

        def flaky(job):
            if job.seed == 99:
                raise RuntimeError("boom")
            return real(job)

        from repro.runtime.executor import SerialExecutor

        class Flaky(SerialExecutor):
            def run(self, jobs, fn=None):
                return super().run(jobs, fn=flaky)

        report = run_calibration_sweep(
            [small_job, bad], executor=Flaky(), cache=None
        )
        assert report.outcomes[0].ok
        assert not report.outcomes[1].ok
        assert "boom" in report.outcomes[1].error
        with pytest.raises(RuntimeError, match="calibration job"):
            report.raise_on_error()

    def test_summary_line(self, small_job):
        report = run_calibration_sweep([small_job], cache=None)
        assert "1 points" in report.summary()
        assert "1 executed" in report.summary()
