"""Cycle-tier tile execution engine.

The analytical simulator (:mod:`repro.core.simulator`) *counts*; this
engine *executes*: it instantiates the PE grid, installs the
configuration plan on a real :class:`FlexibleMeshTopology`, injects the
tile's aggregation traffic into the flit-level :class:`NoCSimulator`
packet by packet, and runs each PE's datapath through
:meth:`PE.execute`.  It is the microarchitectural ground truth the
analytical tier is calibrated against (see
``tests/test_cycle_engine.py`` and experiment E14).

Scope: one tile, one layer, practical sizes (≤16×16 arrays, thousands of
packets).  The full-dataset sweeps stay on the analytical tier — the
same trade the paper makes by deriving time from counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.noc._reference import ReferenceNoCSimulator
from ..arch.noc.drain import NoCDeadlockError
from ..arch.noc.network import NoCSimulator
from ..arch.pe import PE, PEConfig, PEDatapath, datapath_for_op
from ..config import AcceleratorConfig
from ..graphs.csr import CSRGraph
from ..mapping.base import MappingResult, PERegion
from ..mapping.memo import map_tile
from ..mapping.traffic import multicast_flows
from ..models.base import GNNModel, OpKind, Phase
from ..models.workload import LayerDims, extract_workload
from ..telemetry import TRACER
from .configuration import ConfigurationUnit
from .controller import AdaptiveWorkflowGenerator

__all__ = ["CycleTileResult", "CycleTileEngine"]


@dataclass
class CycleTileResult:
    """Measured execution of one tile at cycle granularity."""

    noc_cycles: int
    compute_cycles_a: int  # max over region-A PEs (edge update + aggregation)
    compute_cycles_b: int  # max over region-B PEs (vertex update)
    reconfig_cycles: int
    packets: int
    flits: int
    avg_packet_latency: float
    mesh_flit_hops: int
    bypass_flit_hops: int
    pe_busy_cycles: np.ndarray  # per-PE busy histogram
    stall_events: int

    @property
    def tile_cycles(self) -> int:
        """Tile latency: communication overlaps A compute; B follows in the
        pipeline, so the tile interval is the slowest stage."""
        stage_a = max(self.noc_cycles, self.compute_cycles_a)
        return max(stage_a, self.compute_cycles_b) + self.reconfig_cycles

    @property
    def busy_imbalance(self) -> float:
        busy = self.pe_busy_cycles[self.pe_busy_cycles > 0]
        if busy.size == 0:
            return 1.0
        return float(busy.max() / busy.mean())

    # JSON round-trip: the layer runner caches per-tile results on disk
    # (repro.core.cycle_layer).
    def to_payload(self) -> dict:
        return {
            "noc_cycles": self.noc_cycles,
            "compute_cycles_a": self.compute_cycles_a,
            "compute_cycles_b": self.compute_cycles_b,
            "reconfig_cycles": self.reconfig_cycles,
            "packets": self.packets,
            "flits": self.flits,
            "avg_packet_latency": self.avg_packet_latency,
            "mesh_flit_hops": self.mesh_flit_hops,
            "bypass_flit_hops": self.bypass_flit_hops,
            "pe_busy_cycles": [int(v) for v in self.pe_busy_cycles],
            "stall_events": self.stall_events,
        }

    @staticmethod
    def from_payload(data: dict) -> "CycleTileResult":
        return CycleTileResult(
            noc_cycles=int(data["noc_cycles"]),
            compute_cycles_a=int(data["compute_cycles_a"]),
            compute_cycles_b=int(data["compute_cycles_b"]),
            reconfig_cycles=int(data["reconfig_cycles"]),
            packets=int(data["packets"]),
            flits=int(data["flits"]),
            avg_packet_latency=float(data["avg_packet_latency"]),
            mesh_flit_hops=int(data["mesh_flit_hops"]),
            bypass_flit_hops=int(data["bypass_flit_hops"]),
            pe_busy_cycles=np.asarray(data["pe_busy_cycles"], dtype=np.int64),
            stall_events=int(data["stall_events"]),
        )


class CycleTileEngine:
    """Executes one tile of one layer at flit/PE cycle granularity."""

    #: Cap on injected packets per run; beyond this the flit simulation
    #: stops being the right tool (use the analytical tier).
    MAX_PACKETS = 200_000

    #: Selectable flit simulators: the batched event engine (default)
    #: and the retained original implementation it is property-tested
    #: against.  The two are pinned bit-identical by
    #: ``tests/test_noc_equivalence.py``.
    NOC_ENGINES = {
        "event": NoCSimulator,
        "reference": ReferenceNoCSimulator,
    }

    @classmethod
    def check_noc_engine(cls, noc_engine: str) -> None:
        """Raise ``ValueError`` unless ``noc_engine`` names a registered
        simulator.  Callers that may never build an engine (every tile a
        cache hit) call this up front."""
        if noc_engine not in cls.NOC_ENGINES:
            raise ValueError(
                f"noc_engine must be one of {sorted(cls.NOC_ENGINES)}, "
                f"got {noc_engine!r}"
            )

    def __init__(
        self,
        config: AcceleratorConfig,
        *,
        mapping_policy: str = "degree-aware",
        noc_engine: str = "event",
    ) -> None:
        if config.array_k > 16:
            raise ValueError(
                "cycle tier supports arrays up to 16x16; use the analytical "
                "tier (AuroraSimulator) for larger configurations"
            )
        if mapping_policy not in ("degree-aware", "hashing"):
            raise ValueError("mapping_policy must be 'degree-aware' or 'hashing'")
        self.check_noc_engine(noc_engine)
        self.config = config
        self.mapping_policy = mapping_policy
        self.noc_engine = noc_engine

    # ------------------------------------------------------------------
    def _build_pes(self) -> list[PE]:
        k = self.config.array_k
        return [PE(n % k, n // k, self.config) for n in range(k * k)]

    def _map(self, sub: CSRGraph, region: PERegion) -> MappingResult:
        # Shared content-keyed memo: calibration runs replay the same
        # tiles the analytical tier maps, so both tiers hit one cache.
        return map_tile(sub, region, self.mapping_policy)

    # ------------------------------------------------------------------
    def run_tile(
        self,
        model: GNNModel,
        sub: CSRGraph,
        dims: LayerDims,
        *,
        region_a: PERegion | None = None,
        region_b: PERegion | None = None,
    ) -> CycleTileResult:
        """Execute one tile: map, configure, inject, run, execute.

        ``region_a`` defaults to the top half of the array and
        ``region_b`` to the bottom half (models with no vertex update get
        the whole array as A).
        """
        with TRACER.span(
            "cycle.run_tile",
            {
                "model": model.name,
                "vertices": sub.num_vertices,
                "edges": sub.num_edges,
                "noc_engine": self.noc_engine,
            },
        ):
            return self._run_tile(
                model, sub, dims, region_a=region_a, region_b=region_b
            )

    def _run_tile(
        self,
        model: GNNModel,
        sub: CSRGraph,
        dims: LayerDims,
        *,
        region_a: PERegion | None = None,
        region_b: PERegion | None = None,
    ) -> CycleTileResult:
        cfg = self.config
        k = cfg.array_k
        workflow = AdaptiveWorkflowGenerator().generate(model)
        wl = extract_workload(model, sub, dims)

        if region_a is None:
            if model.has_vertex_update:
                region_a = PERegion(0, 0, k, k // 2, k)
                region_b = PERegion(0, k // 2, k, k, k)
            else:
                region_a = PERegion(0, 0, k, k, k)
                region_b = None

        with TRACER.span("cycle.map"):
            mapping = self._map(sub, region_a)
        with TRACER.span("cycle.configure"):
            plan = ConfigurationUnit(cfg).configure(
                workflow, mapping, region_a, region_b
            )

        # ---- PE configuration ------------------------------------------
        pes = self._build_pes()
        reconfig_cycles = plan.reconfiguration_cycles
        for node in region_a.node_ids():
            for pe_cfg in plan.pe_configs_a[:1] or (PEConfig(PEDatapath.ADD_ONLY),):
                pes[node].configure(pe_cfg)
        if region_b is not None:
            for node in region_b.node_ids():
                for pe_cfg in plan.pe_configs_b[:1] or (
                    PEConfig(PEDatapath.MAC_CHAIN),
                ):
                    pes[node].configure(pe_cfg)

        # ---- NoC: inject the aggregation feature distribution -----------
        payload = dims.in_features * cfg.bytes_per_value
        mc = multicast_flows(sub, mapping, payload)
        flows = mc.flows  # derived on access: read it once
        sim = self.NOC_ENGINES[self.noc_engine](plan.topology, cfg.noc)
        n_packets = flows.shape[0]
        if n_packets > self.MAX_PACKETS:
            raise ValueError(
                f"tile generates {n_packets} packets; exceed the cycle-tier "
                f"budget of {self.MAX_PACKETS} — shrink the tile or use the "
                "analytical tier"
            )
        # Route derivation is hoisted out of the inject loop: the tile's
        # aggregated flow pairs are routed in one batch, and every packet
        # then finds its route in the simulator's table (the reference
        # engine routes each packet at injection instead).
        if n_packets and isinstance(sim, NoCSimulator):
            with TRACER.span("cycle.routes"):
                sim.route_pairs(mc.pairs[:, :2])
        # Every packet is injected at the current cycle.
        with TRACER.span("cycle.inject"):
            for src, dst, nbytes in flows.tolist():
                sim.inject(int(src), int(dst), int(nbytes), cycle=None)
        try:
            with TRACER.span("cycle.noc", {"packets": n_packets}):
                stats = sim.run(max_cycles=5_000_000) if n_packets else sim.stats
        except NoCDeadlockError as err:
            raise err.with_context(
                tile_nodes=sub.num_vertices,
                tile_edges=sub.num_edges,
                array_k=k,
                mapping_policy=self.mapping_policy,
                noc_engine=self.noc_engine,
                packets_injected=n_packets,
            ) from err

        # ---- PE execution ------------------------------------------------
        # Region A: per-PE work proportional to the messages it handles
        # (source sends + received merges), charged through PE.execute so
        # datapath legality and throughput are enforced.
        if sub.num_edges:
            per_edge_ue = wl.O_ue / sub.num_edges
            per_edge_agg = wl.O_a / sub.num_edges
        else:
            per_edge_ue = per_edge_agg = 0.0
        with TRACER.span("cycle.pe"):
            loads = mapping.communication_loads(sub.degrees)
            for node in region_a.node_ids():
                edges_here = int(loads[node])
                if edges_here == 0:
                    continue
                pe = pes[node]
                for spec in (model.edge_update, model.aggregation):
                    for op in spec.ops:
                        if op.kind.is_ppu:
                            continue
                        ops = int(
                            edges_here
                            * (per_edge_ue if spec.phase is Phase.EDGE_UPDATE else per_edge_agg)
                        )
                        if ops <= 0:
                            continue
                        pe.configure(PEConfig(datapath_for_op(op.kind)))
                        pe.execute(op.kind, ops)
                        break  # charge the phase once at its dominant op

            compute_a = max(
                (pes[n].busy_cycles for n in region_a.node_ids()), default=0
            )

            compute_b = 0
            if region_b is not None and wl.O_uv > 0:
                per_pe_ops = -(-wl.O_uv // region_b.num_pes)
                for node in region_b.node_ids():
                    pe = pes[node]
                    pe.configure(PEConfig(PEDatapath.MAC_CHAIN))
                    pe.execute(OpKind.MATRIX_VECTOR, per_pe_ops)
                compute_b = max(pes[n].busy_cycles for n in region_b.node_ids())

        busy = np.array([pe.busy_cycles for pe in pes], dtype=np.int64)
        return CycleTileResult(
            noc_cycles=stats.cycles,
            compute_cycles_a=int(compute_a),
            compute_cycles_b=int(compute_b),
            reconfig_cycles=reconfig_cycles,
            packets=stats.packets_delivered,
            flits=stats.flits_delivered,
            avg_packet_latency=stats.avg_packet_latency,
            mesh_flit_hops=stats.mesh_flit_hops,
            bypass_flit_hops=stats.bypass_flit_hops,
            pe_busy_cycles=busy,
            stall_events=stats.stall_events,
        )
