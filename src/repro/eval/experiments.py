"""Experiment registry: one entry per paper table/figure (DESIGN.md E1–E12).

Each experiment is a callable returning an :class:`ExperimentResult` with
structured data plus rendered text matching the paper's artifact.  The
benchmark suite invokes these; examples and tests reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..arch.area import AreaModel
from ..baselines import BASELINE_TRAITS
from ..config import AcceleratorConfig, default_config
from ..core.simulator import AuroraSimulator
from ..graphs.datasets import dataset_profile, load_dataset
from ..mapping.degree_aware import ALGORITHM_CYCLES
from ..models.base import Phase
from ..models.workload import LayerDims, extract_workload
from ..models.zoo import MODEL_ZOO, get_model
from ..partition.algorithm import PARTITION_CYCLES, partition
from .harness import ComparisonResults, run_comparison
from .report import (
    format_table,
    render_headline_summary,
    render_normalized_figure,
    render_table1_coverage,
    render_table2_operations,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "list_experiments",
    "set_sweep_options",
]


@dataclass
class ExperimentResult:
    """One regenerated paper artifact."""

    experiment_id: str
    title: str
    text: str  # rendered table, printable next to the paper's figure
    data: dict[str, Any] = field(default_factory=dict)


# Cache the expensive five-dataset sweep across experiments in one run.
_SWEEP_CACHE: dict[tuple, ComparisonResults] = {}

# Execution-layer options for the shared sweep (set from the CLI's
# ``--jobs``/``--cache`` flags); pure performance knobs — results are
# identical whichever executor/cache drains the grid.
_SWEEP_OPTIONS: dict[str, Any] = {"jobs": 1, "cache": None}


def set_sweep_options(*, jobs: int | None = None, cache: Any = None) -> None:
    """Configure how experiment sweeps execute (parallelism + caching).

    ``jobs`` is a worker count (1 = serial); ``cache`` accepts anything
    :func:`repro.runtime.as_cache` does (``True``, ``None``, or a
    :class:`repro.runtime.ResultCache`).
    """
    if jobs is not None:
        _SWEEP_OPTIONS["jobs"] = jobs
    if cache is not None:
        _SWEEP_OPTIONS["cache"] = cache


def _sweep(model: str = "gcn") -> ComparisonResults:
    key = (model,)
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = run_comparison(
            model=model,
            jobs=_SWEEP_OPTIONS["jobs"],
            cache=_SWEEP_OPTIONS["cache"],
        )
    return _SWEEP_CACHE[key]


def table1_coverage() -> ExperimentResult:
    """E1 — Table I: GNN coverage and features per accelerator."""
    text = render_table1_coverage()
    data = {
        t.name: {
            "c_gnn": t.supports_c_gnn,
            "a_gnn": t.supports_a_gnn,
            "mp_gnn": t.supports_mp_gnn,
            "flexible_noc": t.flexible_noc,
            "message_passing": t.message_passing,
        }
        for t in BASELINE_TRAITS
    }
    data["aurora"] = {
        "c_gnn": True,
        "a_gnn": True,
        "mp_gnn": True,
        "flexible_noc": True,
        "message_passing": True,
    }
    return ExperimentResult("E1", "Table I: coverage", text, data)


def table2_operations() -> ExperimentResult:
    """E2 — Table II: required operations per phase per model."""
    text = render_table2_operations()
    data = {
        name: {
            phase.value: [op.value for op in model.phase_spec(phase).op_kinds()]
            for phase in Phase
        }
        for name, model in MODEL_ZOO.items()
    }
    return ExperimentResult("E2", "Table II: operations", text, data)


def _figure(metric: str, eid: str, title: str) -> ExperimentResult:
    comp = _sweep()
    text = render_normalized_figure(comp, metric, title=title)
    return ExperimentResult(
        eid,
        title,
        text,
        data={
            "normalized": comp.normalized_grid(metric),
            "per_dataset_reduction_percent": {
                ds: comp.per_dataset_reduction(metric, ds) for ds in comp.datasets
            },
        },
    )


def fig7_dram() -> ExperimentResult:
    """E3 — Fig. 7: normalized DRAM accesses."""
    return _figure("dram_accesses", "E3", "Fig. 7: normalized DRAM accesses")


def fig8_onchip() -> ExperimentResult:
    """E4 — Fig. 8: on-chip communication latency."""
    return _figure("onchip_latency", "E4", "Fig. 8: on-chip communication latency")


def fig9_time() -> ExperimentResult:
    """E5 — Fig. 9: normalized execution time."""
    return _figure("execution_time", "E5", "Fig. 9: normalized execution time")


def fig10_energy() -> ExperimentResult:
    """E6 — Fig. 10: normalized energy consumption."""
    return _figure("energy", "E6", "Fig. 10: normalized energy consumption")


def area_breakdown() -> ExperimentResult:
    """E7 — §VI-F: area breakdown of the 32×32 configuration."""
    cfg = default_config()
    model = AreaModel()
    pe = model.pe_breakdown(cfg)
    chip = model.chip_breakdown(cfg)
    rows = [
        ["PE: MAC array", f"{100 * pe.fraction('mac_array'):.1f}%", "7.1%"],
        ["PE: memory (SMB/IDMB/ODMB)", f"{100 * pe.fraction('memory'):.1f}%", "82.9%"],
        [
            "PE: control + switches",
            f"{100 * pe.fraction('control_and_switches'):.1f}%",
            "3.7%",
        ],
        ["chip: PE array", f"{100 * chip.fraction('pe_array'):.1f}%", "62.74%"],
        [
            "chip: flexible interconnect",
            f"{100 * chip.fraction('flexible_interconnect'):.1f}%",
            "5.2%",
        ],
        ["chip: controller", f"{100 * chip.fraction('controller'):.1f}%", "0.9%"],
    ]
    text = format_table(
        ["component", "measured", "paper"], rows, title="Area breakdown (§VI-F)"
    )
    return ExperimentResult(
        "E7",
        "Area breakdown",
        text,
        data={"pe": pe, "chip": chip},
    )


def reconfiguration_overhead() -> ExperimentResult:
    """E8 — §VI-D: reconfiguration and mapping/partition overheads."""
    cfg = default_config()
    graph = load_dataset("cora", scale=0.2)
    wl = extract_workload(
        get_model("gcn"), graph, LayerDims(graph.num_features, 64)
    )
    strat = partition(wl, cfg.num_pes, cfg.flops_per_pe_per_cycle * cfg.frequency_hz)
    rows = [
        ["reconfiguration (2K−1)", str(cfg.reconfiguration_cycles), "63"],
        ["mapping algorithm", str(ALGORITHM_CYCLES), "~100"],
        ["partition algorithm", str(PARTITION_CYCLES), "~100"],
    ]
    text = format_table(
        ["overhead", "measured cycles", "paper"],
        rows,
        title="Reconfiguration/mapping overhead (§VI-D)",
    )
    return ExperimentResult(
        "E8",
        "Reconfiguration overhead",
        text,
        data={
            "reconfiguration_cycles": cfg.reconfiguration_cycles,
            "partition": strat,
        },
    )


def ablation_mapping() -> ExperimentResult:
    """E9 — degree-aware vs hashing mapping (the CGRA-ME comparison)."""
    rows = []
    data = {}
    for ds in ("cora", "citeseer", "pubmed"):
        graph = load_dataset(ds, scale=0.5 if ds == "pubmed" else 1.0)
        dims = LayerDims(graph.num_features, 64)
        aware = AuroraSimulator(mapping_policy="degree-aware").simulate_layer(
            get_model("gcn"), graph, dims
        )
        hashed = AuroraSimulator(mapping_policy="hashing").simulate_layer(
            get_model("gcn"), graph, dims
        )
        speedup = hashed.total_seconds / aware.total_seconds
        rows.append([ds, f"{speedup:.2f}x"])
        data[ds] = {
            "degree_aware_s": aware.total_seconds,
            "hashing_s": hashed.total_seconds,
            "speedup": speedup,
        }
    text = format_table(
        ["dataset", "degree-aware speedup over hashing"],
        rows,
        title="Ablation: degree-aware vs hashing mapping",
    )
    return ExperimentResult("E9", "Mapping ablation", text, data=data)


def ablation_partition() -> ExperimentResult:
    """E10 — Algorithm 2's balanced split vs naive fixed splits."""
    cfg = default_config()
    flops = cfg.flops_per_pe_per_cycle * cfg.frequency_hz
    rows = []
    data = {}
    graph = load_dataset("cora")
    for model_name in ("gcn", "ggcn", "graphsage-pool"):
        model = get_model(model_name)
        wl = extract_workload(model, graph, LayerDims(graph.num_features, 64))
        best = partition(wl, cfg.num_pes, flops)
        # Naive halves split.
        half_a = cfg.num_pes // 2
        from ..partition.algorithm import _t_a, _t_b  # internal comparators

        t_half = max(_t_a(wl, half_a, flops), _t_b(wl, cfg.num_pes - half_a, flops))
        gain = t_half / best.pipeline_interval if best.pipeline_interval else 1.0
        rows.append(
            [model_name, str(best.a), f"{best.imbalance:.3f}", f"{gain:.2f}x"]
        )
        data[model_name] = {
            "a": best.a,
            "imbalance": best.imbalance,
            "gain_vs_half_split": gain,
        }
    text = format_table(
        ["model", "chosen a", "|T_A-T_B| rel.", "gain vs 50/50 split"],
        rows,
        title="Ablation: partition algorithm vs fixed split",
    )
    return ExperimentResult("E10", "Partition ablation", text, data=data)


def ablation_bypass() -> ExperimentResult:
    """E11 — bypass links on/off under hub-heavy traffic."""
    from ..arch.noc.analytical import AnalyticalNoCModel
    from ..arch.noc.topology import BypassSegment, FlexibleMeshTopology
    from ..mapping.base import PERegion
    from ..mapping.degree_aware import degree_aware_map
    from ..mapping.traffic import multicast_flows

    cfg = default_config()
    graph = load_dataset("cora")
    region = PERegion(0, 0, cfg.array_k, 8, cfg.array_k)
    cap = max(1, -(-graph.num_vertices // region.num_pes))
    mapping = degree_aware_map(graph, region, pe_vertex_capacity=cap)
    mc = multicast_flows(graph, mapping, graph.num_features * 8)
    traffic = mc.matrix(cfg.noc.flit_bytes, cfg.array_k)
    eject, inject = mc.port_flits(cfg.noc.flit_bytes)

    plain = FlexibleMeshTopology(cfg.array_k)
    with_bypass = FlexibleMeshTopology(cfg.array_k)
    for seg in mapping.bypass_segments:
        try:
            with_bypass.add_bypass_segment(seg)
        except ValueError:
            continue
    res_plain = AnalyticalNoCModel(plain, cfg.noc).evaluate(
        traffic, eject_flits=eject, inject_flits=inject
    )
    res_bypass = AnalyticalNoCModel(with_bypass, cfg.noc).evaluate(
        traffic,
        boost_nodes=mapping.s_pe_nodes,
        boost_factor=max(3.0, region.width / 2),
        eject_flits=eject,
        inject_flits=inject,
    )
    gain = res_plain.drain_cycles / max(res_bypass.drain_cycles, 1)
    rows = [
        ["plain mesh", f"{res_plain.drain_cycles:,}", f"{res_plain.avg_hops:.2f}"],
        [
            "mesh + bypass",
            f"{res_bypass.drain_cycles:,}",
            f"{res_bypass.avg_hops:.2f}",
        ],
        ["drain speedup", f"{gain:.2f}x", ""],
    ]
    text = format_table(
        ["configuration", "drain cycles", "avg hops"],
        rows,
        title="Ablation: bypass links on/off",
    )
    return ExperimentResult(
        "E11",
        "Bypass ablation",
        text,
        data={
            "plain": res_plain,
            "bypass": res_bypass,
            "speedup": gain,
        },
    )


def headline_summary() -> ExperimentResult:
    """E12 — the abstract's headline reductions."""
    comp = _sweep()
    text = render_headline_summary(comp)
    data = {
        base: {
            "time_reduction_percent": comp.average_reduction_vs(
                "execution_time", base
            ),
            "energy_reduction_percent": comp.average_reduction_vs("energy", base),
            "speedup_range": comp.speedup_range_vs("execution_time", base),
        }
        for base in comp.accelerators
        if base != "aurora"
    }
    return ExperimentResult("E12", "Headline summary", text, data=data)


def versatility_sweep() -> ExperimentResult:
    """E13 (extension) — Aurora runs every Table-II model on one device.

    Quantifies Table I's versatility claim: Aurora executes all ten
    models; each C-GNN-only baseline aborts on six of them and even
    non-strict execution pays the scalarisation fallback penalty.
    """
    from ..baselines import make_baseline, UnsupportedModelError

    graph = load_dataset("cora", scale=0.3)
    dims = LayerDims(graph.num_features, 32)
    rows = []
    data: dict[str, Any] = {}
    sim = AuroraSimulator()
    hygcn = make_baseline("hygcn")
    for name in MODEL_ZOO:
        model = get_model(name)
        aurora = sim.simulate_layer(model, graph, dims)
        try:
            hygcn.simulate_layer(model, graph, dims)
            hygcn_status = "runs"
        except UnsupportedModelError:
            forced = hygcn.simulate_layer(model, graph, dims, strict=False)
            hygcn_status = f"unsupported ({forced.total_seconds / aurora.total_seconds:.1f}x penalty)"
        rows.append(
            [
                name,
                model.category.value,
                f"{aurora.total_cycles:,.0f}",
                str(aurora.notes["partition_a"]),
                hygcn_status,
            ]
        )
        data[name] = {
            "aurora_cycles": aurora.total_cycles,
            "partition_a": aurora.notes["partition_a"],
            "hygcn": hygcn_status,
        }
    text = format_table(
        ["model", "category", "aurora cycles", "a (PEs)", "hygcn"],
        rows,
        title="Versatility: every Table-II model on one Aurora device",
    )
    return ExperimentResult("E13", "Versatility sweep", text, data=data)


def cycle_validation() -> ExperimentResult:
    """E14 (extension) — analytical tier vs cycle tier on matched tiles.

    Runs the flit-level engine and the counting model on identical
    workloads and reports the drain-cycle ratio — the calibration check
    behind using the analytical tier for full-dataset sweeps.  Points
    fan out through :func:`repro.eval.calibration.run_calibration_sweep`
    (executor parallelism + content-addressed result reuse).
    """
    from .calibration import CalibrationJob, run_calibration_sweep

    seeds = (1, 2, 3)
    jobs = [CalibrationJob(seed=seed) for seed in seeds]
    report = run_calibration_sweep(jobs, cache=True)
    report.raise_on_error()

    rows = []
    data = {}
    for seed, outcome in zip(seeds, report.outcomes):
        payload = outcome.result
        rows.append(
            [
                f"seed {seed}",
                f"{payload['measured']:,}",
                f"{payload['predicted']:,}",
                f"{payload['ratio']:.2f}",
            ]
        )
        data[seed] = {
            "measured": payload["measured"],
            "predicted": payload["predicted"],
            "ratio": payload["ratio"],
        }
    text = format_table(
        ["workload", "cycle-tier drain", "analytical drain", "ratio"],
        rows,
        title="Validation: analytical vs flit-level NoC drain",
    )
    return ExperimentResult("E14", "Cycle validation", text, data=data)


EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "E1": table1_coverage,
    "E2": table2_operations,
    "E3": fig7_dram,
    "E4": fig8_onchip,
    "E5": fig9_time,
    "E6": fig10_energy,
    "E7": area_breakdown,
    "E8": reconfiguration_overhead,
    "E9": ablation_mapping,
    "E10": ablation_partition,
    "E11": ablation_bypass,
    "E12": headline_summary,
    "E13": versatility_sweep,
    "E14": cycle_validation,
}


def list_experiments() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"E5"``)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]()
