"""The Aurora accelerator simulator (analytical tier).

Reproduces the paper's simulator methodology (§VI-A): computation time
from counted arithmetic operations, on-chip communication time from the
NoC model over counted messages, off-package time from the DRAM model
over counted accesses, combined with the overlap the architecture
provides (A/B pipeline, DRAM prefetch, overlapped mapping/partition/
reconfiguration).

Per layer the simulator:

1. extracts the workload and runs the partition algorithm (Algorithm 2)
   to split the array into sub-accelerators A and B;
2. tiles the graph to the on-chip capacity of region A;
3. per tile, maps vertices (degree-aware by default, hashing for the
   ablation), configures the NoC (bypass segments + rings), and evaluates
   compute / NoC / DRAM times;
4. composes tiles through the two-stage A→B pipeline;
5. accumulates the event counters the energy model consumes.

Compute time is **imbalance-aware**: sub-accelerator A's time is governed
by its most-loaded PE (messages of the vertices it hosts), which is what
makes the mapping policy matter — exactly the paper's §VI-C argument.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from ..arch.dram import AccessPattern, DRAMModel
from ..arch.energy import EnergyCounters, EnergyModel, EnergyTable
from ..arch.noc.analytical import AnalyticalNoCModel
from ..arch.pe import PECycleModel
from ..config import AcceleratorConfig, default_config
from ..graphs.csr import CSRGraph
from ..graphs.tiling import tile_graph
from ..mapping.base import MappingResult, PERegion
from ..mapping.degree_aware import ALGORITHM_CYCLES, _zorder_nodes_cached
from ..mapping.memo import map_tile
from ..mapping.traffic import batched_multicast_flows
from ..models.base import GNNModel
from ..perf import PERF
from ..telemetry import TRACER
from ..models.workload import (
    LayerDims,
    combination_first_eligible,
    extract_workload,
)
from ..partition.algorithm import PARTITION_CYCLES, partition
from .configuration import ConfigurationUnit
from .controller import AdaptiveWorkflowGenerator
from .pipeline import overlapped_time, pipeline_time
from .results import PhaseBreakdown, SimulationResult

__all__ = ["AuroraSimulator", "clear_partition_sample_cache"]

# Fraction of the distributed buffer usable for graph data: the other half
# backs the double buffer that lets the next tile prefetch overlap.
_BUFFER_UTIL = 0.5

#: Content-keyed placement-sample statistics for the partition scan
#: (Algorithm 2's communication-aware refinement).  Keyed by
#: ``(graph.content_key, array_k)``; a graph produced by
#: :func:`repro.graphs.delta.apply_delta` carries its parent's content
#: key, and when the row pointers are unchanged (degree-preserving
#: deltas) the per-candidate remote/hop sums are updated only at the
#: sampled positions whose destination changed — exact integer
#: adjustments, so the scan's result is bit-identical to a full pass.
_SAMPLE_STATS_MAX = 8

_SAMPLE_STATS: "OrderedDict[tuple[str, int], dict]" = OrderedDict()


def clear_partition_sample_cache() -> None:
    """Drop the partition placement-sample memo (tests, cold benches)."""
    _SAMPLE_STATS.clear()


@lru_cache(maxsize=8)
def _placement_tables(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-slot PE coordinates under every candidate A-row count.

    Entry ``i`` holds ``(x, y)`` tables over the ``(i + 1) * k`` slots of
    the ``(i + 1)``-row region A, in the mapper's Z-order sequential
    fill — the placement model the partition scan scores.  Coordinates
    are int16 unless a hop count (at most ``2 * (k - 1)``) could
    overflow it.
    """
    dtype = np.int16 if k < 1 << 14 else np.int32
    tables = []
    for rows in range(1, k):
        order = np.asarray(_zorder_nodes_cached(PERegion(0, 0, k, rows, k)))
        tables.append(((order % k).astype(dtype), (order // k).astype(dtype)))
    return tuple(tables)


def _placement_scores(
    src: np.ndarray, dst: np.ndarray, k: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate ``(remote count, hop sum)`` of the ``src -> dst``
    vertex pairs.

    Candidate ``i`` fills ``vpp = ceil(n / a)`` vertices per slot of its
    ``a = (i + 1) * k``-slot region; ``(n - 1) // vpp <= a - 1``, so every
    vertex id indexes a slot.  A pair is remote exactly when its hop
    count is non-zero: both ends on one PE.
    """
    rcount = np.zeros(k - 1, dtype=np.int64)
    hsum = np.zeros(k - 1, dtype=np.int64)
    for i, (xs, ys) in enumerate(_placement_tables(k)):
        vpp = max(1, -(-n // xs.size))
        slot_s = src // vpp
        slot_d = dst // vpp
        hops = np.abs(xs.take(slot_s) - xs.take(slot_d))
        hops += np.abs(ys.take(slot_s) - ys.take(slot_d))
        rcount[i] = np.count_nonzero(hops)
        hsum[i] = hops.sum(dtype=np.int64)
    return rcount, hsum


def _tile_outcome(
    sub: CSRGraph,
    boundary_edges: int,
    external_vertices: int,
    mapping: MappingResult,
    mc,
    *,
    config: AcceleratorConfig,
    model: GNNModel,
    dims: LayerDims,
    policy: str,
    region_a: PERegion,
    region_b: PERegion | None,
    width_ratio: float,
    msg_width: int,
    density: float,
    workflow,
    cfg_unit: ConfigurationUnit,
) -> dict:
    """Evaluate one tile; returns a JSON-serializable outcome.

    This is the ``_simulate_layer`` loop body, extracted so tiles can be
    cached per tile (:mod:`repro.runtime.shards`).  It is a pure function
    of its arguments: stateful models (DRAM, energy counters) are
    instantiated locally and their activity is returned as *deltas* the
    caller applies in tile order, so cached and computed outcomes
    accumulate bit-identical results.
    """
    cfg = config
    freq = cfg.frequency_hz
    dram = DRAMModel(cfg.dram)
    counters = EnergyCounters()

    with TRACER.span("compute_count"):
        wl = extract_workload(model, sub, dims)
    n_t, m_t = sub.num_vertices, sub.num_edges
    conf = cfg_unit.configure(workflow, mapping, region_a, region_b)

    # ---- Sub-accelerator A compute --------------------------------------
    if m_t > 0:
        # Source-side partials + degree-aware hub spreading keep the MAC
        # work near-balanced; the residual imbalance is policy-dependent
        # (hashing scatters hubs onto shared rows and has no partial
        # pre-reduction support).
        comm_loads = mapping.communication_loads(sub.degrees)
        active = comm_loads[comm_loads > 0]
        raw_imb = float(active.max() / active.mean()) if active.size else 1.0
        sens = 0.05 if policy == "degree-aware" else 0.5
        imb = 1.0 + (raw_imb - 1.0) * sens
        ideal = (
            wl.O_ue * width_ratio / (2 * cfg.macs_per_pe)
            + wl.O_a * width_ratio / cfg.macs_per_pe
        ) / region_a.num_pes
        a_cycles = ideal * imb
        a_cycles += wl.edge_update.ppu_ops / (cfg.ppu_lanes * region_a.num_pes)
        a_cycles += conf.num_datapath_switches * PECycleModel.SWITCH_PENALTY
        a_cycles += PECycleModel.PIPELINE_FILL
    else:
        a_cycles = 0.0

    # ---- Sub-accelerator A communication (analytical NoC) ---------------
    # Feature distribution is tree-multicast: each vertex's vector is
    # injected once and replicated toward every PE that hosts one of its
    # neighbors (reuse FIFOs forward copies).
    noc_flit_hops = 0
    if mc.pairs.shape[0]:
        with TRACER.span("traffic"):
            traffic = mc.matrix(cfg.noc.flit_bytes, cfg.array_k)
            eject_flits, inject_flits = mc.port_flits(cfg.noc.flit_bytes)
        noc_res = AnalyticalNoCModel(conf.topology, cfg.noc).evaluate(
            traffic,
            boost_nodes=mapping.s_pe_nodes,
            boost_factor=max(3.0, region_a.width / 2),
            eject_flits=eject_flits,
            inject_flits=inject_flits,
        )
        noc_cycles = noc_res.drain_cycles
        noc_flit_hops = noc_res.total_flit_hops
        mesh_hops = noc_res.total_flit_hops - noc_res.bypass_flit_hops
        counters.link_byte_hops += mesh_hops * cfg.noc.flit_bytes
        counters.router_flits += mesh_hops
        counters.bypass_bytes += noc_res.bypass_flit_hops * cfg.noc.flit_bytes
    else:
        noc_cycles = 0

    # ---- Sub-accelerator B: balanced weight-stationary rings ------------
    if region_b is not None and wl.O_uv > 0:
        b_cycles = wl.O_uv / (region_b.num_pes * 2 * cfg.macs_per_pe)
        b_cycles += wl.vertex_update.ppu_ops / (cfg.ppu_lanes * region_b.num_pes)
        b_cycles += PECycleModel.PIPELINE_FILL
        # Ring traffic: partial outputs circulate within each row ring;
        # latency hides under the systolic schedule, energy does not.
        ring_hops = max(region_b.width - 1, 0)
        ring_bytes_hops = (
            n_t * dims.out_features * cfg.bytes_per_value * ring_hops // 2
        )
        counters.link_byte_hops += ring_bytes_hops
        counters.router_flits += ring_bytes_hops // cfg.noc.flit_bytes
        # A→B forwarding via reuse FIFOs (no DRAM round trip).
        counters.reuse_fifo_bytes += n_t * msg_width * cfg.bytes_per_value
    else:
        b_cycles = 0.0

    # ---- DRAM: tile load + boundary gathers + writeback -----------------
    with TRACER.span("dram"):
        tile_dram_s = dram.access(
            int(n_t * dims.in_features * cfg.bytes_per_value * density),
            pattern=AccessPattern.SEQUENTIAL,
        )
        if external_vertices:
            # Remote-feature fetches: distinct out-of-tile neighbors are
            # pulled once *if they can be cached on chip for the tile's
            # lifetime*.  The cacheable share is bounded by the buffer
            # headroom; the rest is re-fetched per edge (this is why
            # dense-feature Reddit sees the smallest gains — paper §VI-D).
            vec_bytes = dims.in_features * cfg.bytes_per_value * density
            unique_bytes = external_vertices * vec_bytes
            cache_budget = cfg.onchip_bytes * 0.1
            cache_frac = min(1.0, cache_budget / max(unique_bytes, 1.0))
            fetch_bytes = (
                unique_bytes * cache_frac
                + boundary_edges * vec_bytes * (1.0 - cache_frac)
            )
            tile_dram_s += dram.access(
                int(fetch_bytes), pattern=AccessPattern.RANDOM
            )
        tile_dram_s += dram.access(
            n_t * dims.out_features * cfg.bytes_per_value,
            pattern=AccessPattern.SEQUENTIAL,
            write=True,
        )

    # ---- Compose the tile ------------------------------------------------
    a_seconds = max(a_cycles, noc_cycles) / freq
    # The next tile's DRAM prefetch overlaps this tile's compute; charge
    # the non-hidden remainder to stage A.
    a_seconds = overlapped_time(a_seconds, tile_dram_s)
    b_seconds = b_cycles / freq

    # ---- Event counters ---------------------------------------------------
    counters.mac_ops += int(wl.O_ue * width_ratio) + wl.O_uv
    counters.add_ops += int(wl.O_a * width_ratio)
    counters.ppu_ops += (
        wl.edge_update.ppu_ops
        + wl.aggregation.ppu_ops
        + wl.vertex_update.ppu_ops
    )
    counters.sram_bytes += (
        wl.total_mac_ops * cfg.bytes_per_value
        + n_t * dims.in_features * cfg.bytes_per_value
    )
    counters.reconfig_events_pe += cfg.num_pes

    st = dram.stats
    return {
        "a_seconds": a_seconds,
        "b_seconds": b_seconds,
        "a_cycles": a_cycles,
        "b_cycles": b_cycles,
        "noc_cycles": noc_cycles,
        "noc_flit_hops": noc_flit_hops,
        "tile_dram_seconds": tile_dram_s,
        "counters": counters.as_dict(),
        "dram": {
            "reads_bytes": st.reads_bytes,
            "writes_bytes": st.writes_bytes,
            "bursts": st.bursts,
            "row_hits": st.row_hits,
            "row_misses": st.row_misses,
            "busy_seconds": st.busy_seconds,
        },
    }


class AuroraSimulator:
    """Analytical performance/energy simulator for the Aurora accelerator."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        energy_table: EnergyTable | None = None,
        *,
        mapping_policy: str = "degree-aware",
        enable_combination_first: bool = False,
        tile_cache=None,
    ) -> None:
        if mapping_policy not in ("degree-aware", "hashing"):
            raise ValueError("mapping_policy must be 'degree-aware' or 'hashing'")
        self.config = config or default_config()
        self.energy_model = EnergyModel(energy_table)
        self.mapping_policy = mapping_policy
        # With a ResultCache in ``tile_cache``, per-tile results are
        # content-addressed so a dirty tile recomputes alone; cached and
        # uncached runs are bit-identical (tests/test_tile_fanout.py).
        self.tile_cache = tile_cache
        # Running reuse counters (read+reset via take_tile_stats): how
        # many tile outcomes were served from the per-tile cache vs
        # recomputed since the last snapshot.
        self._tile_stats = {"tiles": 0, "reused": 0, "recomputed": 0}
        # Combination-first reordering is a valid algebraic optimisation
        # for linear C-GNN layers, but the paper scales every accelerator
        # to identical per-layer MAC counts ("the amount of MACs of each
        # layer is the same"), so the default evaluation keeps the
        # aggregation-first message-passing order; the ablation benches
        # flip this on.
        self.enable_combination_first = enable_combination_first
        self._pe_model = PECycleModel(self.config)

    # ------------------------------------------------------------------
    def take_tile_stats(self) -> dict:
        """Snapshot and reset the per-tile reuse counters.

        ``reused`` counts tile outcomes served from ``tile_cache``;
        ``recomputed`` counts tiles actually evaluated.  Incremental
        re-simulation surfaces these as ``tiles_reused`` /
        ``tiles_recomputed`` in job and serve responses.
        """
        stats = dict(self._tile_stats)
        self._tile_stats = {"tiles": 0, "reused": 0, "recomputed": 0}
        return stats

    # ------------------------------------------------------------------
    def _map_tile(
        self, sub: CSRGraph, region: PERegion, policy: str
    ) -> MappingResult:
        return map_tile(sub, region, policy)

    def _sampled_edge_ids(self, graph: CSRGraph, limit: int = 20000):
        """A deterministic sample of (src, dst) vertex ids for hop estimates."""
        m = graph.num_edges
        if m == 0:
            return None
        step = max(1, m // limit)
        eids = np.arange(0, m, step, dtype=np.int64)
        dst = graph.indices[eids]
        src = np.searchsorted(graph.indptr, eids, side="right") - 1
        return src, dst

    def _placement_sample_stats(
        self, graph: CSRGraph, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate ``(avg_hops, remote_frac)`` over the edge sample.

        The expensive part of the communication-aware scan — scoring the
        sampled edge set under every candidate placement — depends only
        on the graph and the array size, not on the layer workload, so
        it is cached by content key across layers and requests.  A graph
        derived by a row-pointer-preserving edge delta reuses its
        parent's remote/hop sums, adjusting only the sampled positions
        whose destination changed: pure integer arithmetic, so the
        resulting split is bit-identical to a from-scratch scan.
        """
        key = (graph.content_key, k)
        hit = _SAMPLE_STATS.get(key)
        if hit is not None:
            _SAMPLE_STATS.move_to_end(key)
            PERF.incr("partition.sample_cache_hit")
            return hit["avg_hops"], hit["remote_frac"]
        sample = self._sampled_edge_ids(graph)
        if sample is None:
            zeros = np.zeros(k - 1)
            return zeros, zeros
        src, dst = sample
        n = graph.num_vertices
        parent = None
        if graph.derived_from is not None:
            parent = _SAMPLE_STATS.get((graph.derived_from, k))
        if parent is not None and np.array_equal(
            parent["indptr"], graph.indptr
        ):
            PERF.incr("partition.sample_incremental")
            rcount = parent["rcount"].copy()
            hsum = parent["hsum"].copy()
            changed = np.nonzero(dst != parent["dst"])[0]
            if changed.size:
                r_new, h_new = _placement_scores(src[changed], dst[changed], k, n)
                r_old, h_old = _placement_scores(
                    src[changed], parent["dst"][changed], k, n
                )
                rcount += r_new - r_old
                hsum += h_new - h_old
        else:
            PERF.incr("partition.sample_full")
            rcount, hsum = _placement_scores(src, dst, k, n)
        avg_hops = np.where(rcount > 0, hsum / np.maximum(rcount, 1), 0.0)
        remote_frac = np.where(rcount > 0, rcount / src.size, 0.0)
        _SAMPLE_STATS[key] = {
            "indptr": graph.indptr,
            "dst": dst,
            "rcount": rcount,
            "hsum": hsum,
            "avg_hops": avg_hops,
            "remote_frac": remote_frac,
        }
        while len(_SAMPLE_STATS) > _SAMPLE_STATS_MAX:
            _SAMPLE_STATS.popitem(last=False)
        return avg_hops, remote_frac

    def _communication_aware_rows(
        self, wl, strategy, graph: CSRGraph, msg_width: int
    ) -> int:
        """Row count of region A balancing *full* phase times.

        Algorithm 2 balances op counts; sub-accelerator A's phase time is
        additionally bounded by its mesh bandwidth, so the realised split
        scans row counts and picks the one minimising the pipeline
        interval max(T_A, T_B).  Hop counts are estimated from a sampled
        edge set under the sequential-fill placement.
        """
        cfg = self.config
        k = cfg.array_k
        if strategy.b == 0 or wl.O_uv == 0:
            return k
        macs = cfg.macs_per_pe
        flit_per_msg = max(
            1, -(-(msg_width * cfg.bytes_per_value) // cfg.noc.flit_bytes)
        )
        # Multicast feature distribution injects each vertex's vector once
        # and shares tree prefixes; 1.5x covers branch duplication.
        flows = int(graph.num_vertices * 1.5)
        # Hotspot margin: the most-loaded link carries roughly twice the
        # mean link load under power-law traffic (checked against the
        # analytical model's max-link output).
        hotspot = 2.0

        rows_arr = np.arange(1, k, dtype=np.int64)
        a_arr = rows_arr * k
        b_arr = (k - rows_arr) * k
        avg_hops, remote_frac = self._placement_sample_stats(graph, k)
        # Each link moves one flit per cycle; drain is bounded by total
        # flit-hops over the region's link count, with the hotspot margin.
        links = rows_arr * (k - 1) * 2 + np.maximum(rows_arr - 1, 0) * k * 2
        t_a_comm = (
            hotspot
            * flows
            * remote_frac
            * flit_per_msg
            * np.maximum(avg_hops, 1.0)
            / np.maximum(links, 1)
        )
        t_a_comp = wl.O_ue / (a_arr * 2 * macs) + wl.O_a / (a_arr * macs)
        t_a = np.maximum(t_a_comp, t_a_comm)
        t_b = wl.O_uv / (b_arr * 2 * macs)
        score = np.maximum(t_a, t_b)
        return int(rows_arr[np.argmin(score)])  # first min, like the scan

    def _regions_from_rows(
        self, a_rows: int, strategy
    ) -> tuple[PERegion, PERegion | None]:
        k = self.config.array_k
        if a_rows >= k:
            return PERegion(0, 0, k, k, k), None
        return (
            PERegion(0, 0, k, a_rows, k),
            PERegion(0, a_rows, k, k, k),
        )

    # ------------------------------------------------------------------
    def _tile_outcomes(
        self,
        model: GNNModel,
        dims: LayerDims,
        policy: str,
        tiles,
        *,
        region_a: PERegion,
        region_b: PERegion | None,
        width_ratio: float,
        msg_width: int,
        density: float,
        workflow,
        cfg_unit: ConfigurationUnit,
        payload_bytes: int,
        tiling_signature: dict,
    ) -> list[dict]:
        """Per-tile outcomes in tile order, served from ``tile_cache`` when set.

        Tile payload construction (content-memoized mapping + batched
        multicast traffic extraction) happens *after* the per-tile cache
        probe and only for cold tiles: an incremental re-simulation over
        a mostly-clean graph pays for its dirty tiles alone.  Batched
        traffic extraction over any tile subset is bit-identical to the
        per-tile path (``tests/test_traffic_batched.py``), so cold-only
        batches reproduce the full-batch results exactly.
        """
        # Deferred import: repro.runtime imports this module.
        from ..runtime.shards import run_tile_shards, tile_sub_keys

        def evaluate_cold(cold):
            mappings = [
                self._map_tile(t.subgraph, region_a, policy) for t in cold.payloads
            ]
            mcs = batched_multicast_flows(
                [t.subgraph for t in cold.payloads], mappings, payload_bytes
            )
            outcomes = [
                _tile_outcome(
                    t.subgraph,
                    t.boundary_edges,
                    t.external_vertices,
                    m,
                    mc,
                    config=self.config,
                    model=model,
                    dims=dims,
                    policy=policy,
                    region_a=region_a,
                    region_b=region_b,
                    width_ratio=width_ratio,
                    msg_width=msg_width,
                    density=density,
                    workflow=workflow,
                    cfg_unit=cfg_unit,
                )
                for t, m, mc in zip(cold.payloads, mappings, mcs)
            ]
            return {"tiles": outcomes}

        keys = None
        if self.tile_cache is not None:
            base = {
                "model": model.name,
                "dims": [dims.in_features, dims.out_features, dims.hidden],
                "config": asdict(self.config),
                "policy": policy,
                "density": density,
                "msg_width": msg_width,
                "region_a": asdict(region_a),
                "region_b": asdict(region_b) if region_b else None,
                # Partition/tiling parameters: entries cached under one
                # tiling configuration must never satisfy another.
                "tiling": tiling_signature,
            }
            keys = tile_sub_keys(
                "analytical-tile",
                base,
                [
                    {
                        "graph": tile.subgraph.content_key,
                        "boundary": [tile.boundary_edges, tile.external_vertices],
                    }
                    for tile in tiles
                ],
            )
        run = run_tile_shards(
            tiles,
            evaluate_cold,
            kind="analytical",
            tile_keys=keys,
            cache=self.tile_cache,
        )
        stats = run.stats
        self._tile_stats["tiles"] += stats["tiles"]
        self._tile_stats["reused"] += stats["cache_hits"]
        self._tile_stats["recomputed"] += stats["tiles"] - stats["cache_hits"]
        return run.payloads

    # ------------------------------------------------------------------
    def simulate_layer(
        self,
        model: GNNModel,
        graph: CSRGraph,
        dims: LayerDims,
        *,
        input_density: float | None = None,
        mapping_policy: str | None = None,
    ) -> SimulationResult:
        """Simulate one GNN layer end to end.

        ``input_density`` overrides the feature density of the layer input
        (1.0 for hidden layers whose inputs are dense activations);
        defaults to the graph's dataset density.
        """
        with TRACER.span(
            "simulate_layer",
            {
                "model": model.name,
                "graph": graph.name,
                "in_features": dims.in_features,
                "out_features": dims.out_features,
            },
        ):
            return self._simulate_layer(
                model,
                graph,
                dims,
                input_density=input_density,
                mapping_policy=mapping_policy,
            )

    def _simulate_layer(
        self,
        model: GNNModel,
        graph: CSRGraph,
        dims: LayerDims,
        *,
        input_density: float | None = None,
        mapping_policy: str | None = None,
    ) -> SimulationResult:
        cfg = self.config
        policy = mapping_policy or self.mapping_policy
        density = graph.feature_density if input_density is None else input_density
        freq = cfg.frequency_hz
        flops_pe_cycle = cfg.flops_per_pe_per_cycle

        workflow = AdaptiveWorkflowGenerator().generate(model)
        full_wl = extract_workload(model, graph, dims)

        # Adaptive workflow: combination-first reordering for linear
        # C-GNN layers (W Σ c_u x_u == Σ c_u W x_u) shrinks aggregated and
        # communicated vectors from F_in to F_out lanes.
        comb_first = (
            self.enable_combination_first
            and combination_first_eligible(model)
            and dims.out_features < dims.in_features
        )
        msg_width = dims.out_features if comb_first else dims.in_features
        width_ratio = msg_width / dims.in_features

        # -- Algorithm 2: partition the array -----------------------------
        with TRACER.span("partition"):
            strategy = partition(
                full_wl, cfg.num_pes, flops_pe_cycle * freq
            )
            # Realise the split at row granularity, refined with the
            # phase-time estimate that includes sub-accelerator A's
            # communication: the algorithm's goal is minimal inter-phase
            # stall (§V), and A's phase time is bounded by its mesh
            # bandwidth as well as its op count.
            a_rows = self._communication_aware_rows(
                full_wl, strategy, graph, msg_width
            )
        region_a, region_b = self._regions_from_rows(a_rows, strategy)

        # -- Tile to the distributed-buffer capacity ----------------------
        # Aurora uses the *whole* array's distributed buffers for graph
        # data (the §VI-B "fully utilise the on-chip buffer capacity"
        # claim): region B's banks stage features/weights while region A
        # computes on them through the NoC.
        capacity = int(cfg.onchip_bytes * _BUFFER_UTIL)
        plan = tile_graph(graph, capacity, bytes_per_value=cfg.bytes_per_value)

        dram = DRAMModel(cfg.dram)
        counters = EnergyCounters()
        cfg_unit = ConfigurationUnit(cfg)

        # Weights stream in once per layer (stationary thereafter; never
        # duplicated across PEs — each region holds one copy, §VI-B).
        weight_bytes = (
            full_wl.edge_update.weight_bytes
            + full_wl.aggregation.weight_bytes
            + full_wl.vertex_update.weight_bytes
        )
        weights_s = dram.access(weight_bytes, pattern=AccessPattern.SEQUENTIAL)

        stage_a: list[float] = []
        stage_b: list[float] = []
        noc_cycles_total = 0
        noc_volume_total = 0  # total flit-hop busy cycles (Fig. 8 metric)
        compute_s_total = 0.0
        noc_s_total = 0.0
        dram_s_total = weights_s
        payload = msg_width * cfg.bytes_per_value

        # Each tile's evaluation is a pure function of the tile
        # (see _tile_outcome), so a cached outcome stands in for a
        # computed one; outcomes apply in tile order, keeping every
        # accumulation bit-identical to an uncached run.  Tile mapping
        # and batched traffic extraction are deferred into
        # _tile_outcomes so they run only for tiles the per-tile cache
        # cannot serve.
        tiles = list(plan)
        outcomes = self._tile_outcomes(
            model,
            dims,
            policy,
            tiles,
            region_a=region_a,
            region_b=region_b,
            width_ratio=width_ratio,
            msg_width=msg_width,
            density=density,
            workflow=workflow,
            cfg_unit=cfg_unit,
            payload_bytes=payload,
            tiling_signature={
                "capacity_bytes": plan.capacity_bytes,
                "bytes_per_value": plan.bytes_per_value,
            },
        )
        dram_stats = dram.stats
        for outcome in outcomes:
            stage_a.append(outcome["a_seconds"])
            stage_b.append(outcome["b_seconds"])
            noc_cycles_total += outcome["noc_cycles"]
            noc_volume_total += outcome["noc_flit_hops"]
            compute_s_total += (outcome["a_cycles"] + outcome["b_cycles"]) / freq
            noc_s_total += outcome["noc_cycles"] / freq
            dram_s_total += outcome["tile_dram_seconds"]
            counters = counters.merge(
                EnergyCounters.from_dict(outcome["counters"])
            )
            for name, delta in outcome["dram"].items():
                setattr(dram_stats, name, getattr(dram_stats, name) + delta)

        # -- Total time: A/B pipeline + one-time overheads -----------------
        total_s = pipeline_time(stage_a, stage_b)
        # First tile's mapping + partition + reconfiguration cannot hide
        # under previous work (there is none); later ones overlap (§VI-D).
        startup_cycles = (
            ALGORITHM_CYCLES + PARTITION_CYCLES + cfg.reconfiguration_cycles
        )
        total_s += startup_cycles / freq
        total_s += weights_s  # first weight fill precedes tile 0

        counters.dram_bytes += dram.stats.total_bytes
        counters.active_cycles += int(total_s * freq)
        energy = self.energy_model.evaluate(counters)

        return SimulationResult(
            accelerator="aurora"
            if policy == "degree-aware"
            else "aurora-hashing",
            model_name=model.name,
            graph_name=graph.name,
            total_seconds=total_s,
            breakdown=PhaseBreakdown(
                compute_seconds=compute_s_total,
                noc_seconds=noc_s_total,
                dram_seconds=dram_s_total,
            ),
            dram_bytes=dram.stats.total_bytes,
            onchip_comm_cycles=noc_volume_total,
            energy=energy,
            counters=counters,
            num_tiles=plan.num_tiles,
            frequency_hz=freq,
            notes={
                "partition_a": strategy.a,
                "partition_b": strategy.b,
                "mapping_policy": policy,
                "a_rows": a_rows,
                "combination_first": comb_first,
                "stage_a_seconds": stage_a,
                "stage_b_seconds": stage_b,
            },
        )

    # ------------------------------------------------------------------
    def simulate(
        self,
        model: GNNModel,
        graph: CSRGraph,
        layer_dims: list[LayerDims],
    ) -> SimulationResult:
        """Simulate a multi-layer model; layer 0 reads the sparse dataset
        features, later layers read dense activations."""
        if not layer_dims:
            raise ValueError("need at least one layer")
        results = []
        for i, dims in enumerate(layer_dims):
            density = graph.feature_density if i == 0 else 1.0
            results.append(
                self.simulate_layer(model, graph, dims, input_density=density)
            )
        return SimulationResult.combine(results)
