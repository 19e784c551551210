"""One scope per stage name: no span nests inside a span of its own name.

Every span times its stage into ``repro_stage_seconds``, so a span
nested in a same-named ancestor would count that time twice.  This runs
the analytical path, the cycle path and a served cold request plus its
warm hit with tracing on, then checks the recorded trees and that every
stage and span name the benchmark attributes time to was recorded.
"""

import pytest

from repro.eval.calibration import CalibrationJob, run_calibration_job
from repro.perf import PERF
from repro.perf.bench import clear_hot_path_caches
from repro.runtime import ResultCache, SimJob, run_jobs
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread, SimulationService
from repro.telemetry import TRACER

#: Stage names whose ``repro_stage_seconds`` totals perfbench reads.
BENCH_STAGES = (
    "partition",
    "tiling",
    "mapping",
    "traffic",
    "noc",
    "dram",
    "compute_count",
    "runtime.job",
    "cycle.noc",
    "cycle.inject",
    "cycle.routes",
    "cycle.pe",
    "cycle.map",
    "cycle.configure",
)
#: Span names whose trace durations perfbench reads.
BENCH_SPANS = (
    "simulate_layer",
    "run_jobs",
    "cache.probe",
    "http",
    "admission",
    "batcher",
    "batch",
)

SMALL = {"model": "gcn", "dataset": "cora", "scale": 0.2, "hidden": 16}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Spans and stage timings of the three paths, traced."""
    clear_hot_path_caches()
    PERF.reset()
    saved = TRACER.buffer.maxlen
    TRACER.configure(buffer_size=100_000)
    try:
        with TRACER.session(enabled=True, sample_rate=1.0):
            run_jobs([SimJob(model="gcn", dataset="citeseer", scale=0.3, hidden=16)])
            run_calibration_job(CalibrationJob())
            service = SimulationService(
                cache=ResultCache(tmp_path_factory.mktemp("scope-cache"))
            )
            with ServerThread(service) as thread:
                client = ServeClient(*thread.address, timeout=60.0)
                client.simulate(SMALL)
                client.simulate(SMALL)
        spans = TRACER.buffer.spans()
        assert TRACER.buffer.stats()["dropped"] == 0
        yield spans, PERF.stages
    finally:
        TRACER.configure(buffer_size=saved)


def test_no_span_nests_in_a_span_of_its_name(recorded):
    spans, _ = recorded
    by_id = {s.span_id: s for s in spans}
    nested = set()
    for span in spans:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == span.name:
                nested.add(span.name)
                break
            parent = by_id.get(parent.parent_id)
    assert nested == set()


def test_every_bench_stage_is_timed(recorded):
    spans, stages = recorded
    span_names = {s.name for s in spans}
    assert set(BENCH_STAGES) <= span_names
    assert set(BENCH_SPANS) <= span_names
    for name in BENCH_STAGES + BENCH_SPANS:
        assert stages[name].calls >= 1, name


def test_stage_totals_match_span_durations(recorded):
    """Traced, a stage's histogram holds exactly its spans' durations."""
    spans, stages = recorded
    for name in ("partition", "traffic", "noc", "cycle.noc", "http"):
        mine = [s.duration for s in spans if s.name == name]
        assert stages[name].calls == len(mine)
        assert stages[name].seconds == pytest.approx(sum(mine))
