"""cycle-calibrate: E14-style matched tiles through the flit-level engine.

One pass runs the fixed corpus of :data:`accuracy.CORPUS_SHAPES` (three
sizes × two seeds × k=8 and 16, ``event`` NoC engine) through
``run_calibration_job`` in a seed-shuffled order.  The flit-level engine
does almost all the work and no other workload touches it; the pass
also yields the analytical-vs-flit drain error.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from . import accuracy, layers
from .common import PassResult, import_probe, rng_for
from .common import Workload as BaseWorkload

NAME = "cycle-calibrate"
MODULES = ("repro.eval.calibration", "repro.core.cycle_engine", "repro.arch.noc.network")
#: Flit-level counts that must repeat exactly, pass after pass.
COUNTS = ("measured", "predicted", "packets", "flits", "stall_events", "tile_cycles")
CYCLE_STAGES = ("cycle.noc", "cycle.inject", "cycle.routes", "cycle.pe", "cycle.map", "cycle.configure")
#: The analytical prediction's own stages inside a calibration point.
PREDICTION_STAGES = ("mapping", "traffic", "noc")


def pass_inputs(seed: int, index: int) -> list:
    """The pass's corpus order (indices into :func:`accuracy.corpus`)."""
    order = list(range(len(accuracy.CORPUS_SHAPES)))
    rng_for(seed, NAME, index).shuffle(order)
    return order


class Workload(BaseWorkload):
    op = "calibration point"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reference: dict = {}
        self.errors: set = set()

    def setup(self) -> None:
        import_probe(MODULES)
        from repro.perf.bench import clear_hot_path_caches

        clear_hot_path_caches()
        self.corpus = accuracy.corpus()

    def run_pass(self, index: int, traced: bool) -> PassResult:
        from repro.eval.calibration import run_calibration_job

        order = pass_inputs(self.seed, index)
        payloads: dict = {}
        latencies = []
        failed = 0
        raw: dict = {}
        with layers.traced_pass(raw) if traced else nullcontext():
            for i in order:
                self.probe()
                t0 = time.perf_counter()
                payloads[i] = run_calibration_job(self.corpus[i])
                latencies.append((time.perf_counter() - t0) * 1e3)
        wall = sum(latencies) / 1e3
        low, high = accuracy.RATIO_BAND
        for i, payload in payloads.items():
            counts = tuple(payload[k] for k in COUNTS)
            expected = self.reference.setdefault(i, counts)
            if counts != expected or not low < payload["ratio"] < high:
                failed += 1
        self.errors.add(accuracy.drain_err_pct(payloads.values()))
        if traced:
            raw.update(
                ops=len(order),
                wall=wall,
                flits=sum(p["flits"] for p in payloads.values()),
                packets=sum(p["packets"] for p in payloads.values()),
                sim_cycles=sum(p["measured"] for p in payloads.values()),
                stalls=sum(p["stall_events"] for p in payloads.values()),
                passes=1,
            )
        parts = list(zip(order, latencies))
        return PassResult(wall, len(order), failed, [], raw or None, parts)

    def accuracy(self) -> tuple:
        return (
            accuracy.ledger_paper_gap(),
            min(self.errors, default=0.0),
            {"drain_err_pct": len(self.errors) == 1},
        )

    def layer_metrics(self, raw: dict) -> dict:
        out = layers.common_layers(raw)
        stages, spans = raw["stages"], raw["spans"]
        passes = raw["passes"]
        # Counts are per corpus pass (identical every pass).
        out["arch.noc.flits"] = raw["flits"] / passes
        out["arch.noc.packets"] = raw["packets"] / passes
        out["arch.noc.sim_cycles"] = raw["sim_cycles"] / passes
        out["arch.noc.stalls"] = raw["stalls"] / passes
        out["arch.noc.ns_per_flit"] = stages.get("cycle.noc", 0.0) / raw["flits"] * 1e9
        attributed = (
            sum(stages.get(s, 0.0) for s in CYCLE_STAGES + PREDICTION_STAGES)
            + spans.get("graphs.generate", 0.0)
        )
        out["unattributed_frac"] = 1.0 - attributed / raw["wall"]
        return out
