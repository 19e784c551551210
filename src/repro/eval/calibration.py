"""Parallel, cached calibration sweeps for the cycle tier.

E14 validates the analytical NoC model against the flit-level engine on
matched tiles.  Each calibration point is deterministic in its spec —
synthetic-graph parameters, tile dimensioning, array size, mapping
policy, NoC engine — so, exactly like :class:`repro.runtime.jobs.SimJob`,
a point can be content-addressed and its result reused across sweeps.
This module packages one point as a frozen :class:`CalibrationJob` and
fans batches out through the existing :mod:`repro.runtime` executors
with :class:`~repro.runtime.cache.ResultCache` reuse (``run_jobs`` is
``SimJob``-specific, so the sweep loop here mirrors it for calibration
payloads).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from ..runtime.cache import ResultCache, as_cache
from ..runtime.executor import SerialExecutor, get_executor

__all__ = [
    "CalibrationJob",
    "CalibrationOutcome",
    "CalibrationReport",
    "run_calibration_job",
    "run_calibration_sweep",
]

#: Bump when the calibration payload or its semantics change in a way
#: that must invalidate previously cached results.
CALIBRATION_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CalibrationJob:
    """One analytical-vs-cycle calibration point, as pure data.

    The workload is a synthetic power-law tile (the same family E14
    uses); both tiers run the identical tile and the payload records
    their drain cycles plus the ratio the calibration tracks.
    """

    model: str = "gin"
    num_vertices: int = 120
    num_edges: int = 700
    exponent: float = 2.0
    locality: float = 0.5
    num_features: int = 16
    seed: int = 1
    array_k: int = 8
    in_features: int = 16
    out_features: int = 8
    mapping_policy: str = "degree-aware"
    noc_engine: str = "event"

    def __post_init__(self) -> None:
        if self.array_k < 2 or self.array_k > 16:
            raise ValueError("array_k must be in [2, 16] for the cycle tier")
        if self.num_vertices < 1 or self.num_edges < 0:
            raise ValueError("graph must have >= 1 vertex and >= 0 edges")
        from ..core.cycle_engine import CycleTileEngine

        CycleTileEngine.check_noc_engine(self.noc_engine)

    def as_dict(self) -> dict:
        """Canonical JSON-encodable form (basis of :attr:`key`)."""
        return {
            "model": self.model,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "exponent": self.exponent,
            "locality": self.locality,
            "num_features": self.num_features,
            "seed": self.seed,
            "array_k": self.array_k,
            "in_features": self.in_features,
            "out_features": self.out_features,
            "mapping_policy": self.mapping_policy,
            "noc_engine": self.noc_engine,
        }

    @property
    def key(self) -> str:
        """Content hash: sha256 of the canonical sorted-key JSON form."""
        payload = {
            "version": CALIBRATION_SCHEMA_VERSION,
            "kind": "calibration",
            **self.as_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        return (
            f"{self.model}/v{self.num_vertices}e{self.num_edges}"
            f"/seed{self.seed}/k{self.array_k}"
        )


def run_calibration_job(job: CalibrationJob) -> dict:
    """Execute one calibration point; returns a JSON-encodable payload.

    Module-level (not a closure) so ``ProcessPoolExecutor`` workers can
    pickle it by reference.  Imports are deferred for the same reason
    worker startup should not drag the whole evaluation stack in before
    it is needed.
    """
    from ..arch.noc.analytical import AnalyticalNoCModel
    from ..arch.noc.topology import FlexibleMeshTopology
    from ..config import small_config
    from ..core.cycle_engine import CycleTileEngine
    from ..graphs.generators import power_law_graph
    from ..mapping.base import PERegion
    from ..mapping.degree_aware import degree_aware_map
    from ..mapping.traffic import multicast_flows
    from ..models.workload import LayerDims
    from ..models.zoo import get_model

    k = job.array_k
    cfg = small_config(k)
    graph = power_law_graph(
        job.num_vertices,
        job.num_edges,
        exponent=job.exponent,
        locality=job.locality,
        num_features=job.num_features,
        seed=job.seed,
    )
    engine = CycleTileEngine(
        cfg, mapping_policy=job.mapping_policy, noc_engine=job.noc_engine
    )
    measured = engine.run_tile(
        get_model(job.model), graph, LayerDims(job.in_features, job.out_features)
    )

    region = PERegion(0, 0, k, k // 2, k)
    cap = max(1, -(-graph.num_vertices // region.num_pes))
    mapping = degree_aware_map(graph, region, pe_vertex_capacity=cap)
    mc = multicast_flows(graph, mapping, job.in_features * cfg.bytes_per_value)
    topo = FlexibleMeshTopology(k)
    for seg in mapping.bypass_segments:
        try:
            topo.add_bypass_segment(seg)
        except ValueError:
            continue
    eject, inject = mc.port_flits(cfg.noc.flit_bytes)
    predicted = AnalyticalNoCModel(topo, cfg.noc).evaluate(
        mc.matrix(cfg.noc.flit_bytes, k),
        boost_nodes=mapping.s_pe_nodes,
        boost_factor=4.0,
        eject_flits=eject,
        inject_flits=inject,
    ).drain_cycles

    return {
        "measured": int(measured.noc_cycles),
        "predicted": int(predicted),
        "ratio": predicted / max(measured.noc_cycles, 1),
        "packets": int(measured.packets),
        "flits": int(measured.flits),
        "stall_events": int(measured.stall_events),
        "tile_cycles": int(measured.tile_cycles),
    }


@dataclass
class CalibrationOutcome:
    """One calibration point's payload (or error) plus provenance."""

    job: CalibrationJob
    key: str
    result: dict | None
    error: str | None = None
    seconds: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CalibrationReport:
    """Outcomes in request order plus sweep counters."""

    outcomes: list[CalibrationOutcome]
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0

    def results(self) -> list[dict | None]:
        return [o.result for o in self.outcomes]

    def raise_on_error(self) -> None:
        failed = [o for o in self.outcomes if not o.ok]
        if failed:
            lines = ", ".join(
                f"{o.job.label()}: {o.error}" for o in failed[:5]
            )
            more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
            raise RuntimeError(
                f"{len(failed)} calibration job(s) failed — {lines}{more}"
            )

    def summary(self) -> str:
        return (
            f"calibration: {len(self.outcomes)} points | "
            f"{self.executed} executed | "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss | "
            f"wall {self.wall_seconds:.2f}s"
        )


def run_calibration_sweep(
    jobs,
    *,
    executor=None,
    jobs_n: int | None = None,
    cache: ResultCache | bool | None = None,
) -> CalibrationReport:
    """Run calibration points through cache lookup + executor fan-out.

    Identical points (same content hash) execute once; with a cache,
    warm points skip execution entirely and fresh payloads are written
    back so the next sweep starts warm.  ``jobs_n`` builds a default
    executor (serial for 1, a process pool otherwise) when ``executor``
    is not given.
    """
    start = time.perf_counter()
    job_list = list(jobs)
    if executor is None:
        executor = get_executor(jobs_n) if jobs_n else SerialExecutor()
    store = as_cache(cache)

    keys = [job.key for job in job_list]
    report = CalibrationReport(outcomes=[None] * len(job_list))  # type: ignore[list-item]

    # Cache pass + dedupe: first position per cold key executes.
    cold: dict[str, int] = {}
    for i, (job, key) in enumerate(zip(job_list, keys)):
        cached_payload = store.load(key) if store is not None else None
        if cached_payload is not None:
            report.cache_hits += 1
            report.outcomes[i] = CalibrationOutcome(
                job, key, cached_payload, cached=True
            )
        else:
            if store is not None:
                report.cache_misses += 1
            cold.setdefault(key, i)

    cold_jobs = [job_list[i] for i in cold.values()]
    records = executor.run(cold_jobs, fn=run_calibration_job) if cold_jobs else []
    by_key: dict[str, CalibrationOutcome] = {}
    for (key, _i), record in zip(cold.items(), records):
        outcome = CalibrationOutcome(
            record.job, key, record.payload, record.error, record.seconds
        )
        by_key[key] = outcome
        report.executed += 1
        if store is not None and record.ok and record.payload is not None:
            store.store(key, record.payload, job=record.job)

    for i, key in enumerate(keys):
        if report.outcomes[i] is None:
            src = by_key[key]
            report.outcomes[i] = CalibrationOutcome(
                src.job, key, src.result, src.error, src.seconds
            )

    report.wall_seconds = time.perf_counter() - start
    return report
