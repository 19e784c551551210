"""NoC and PE configuration unit (paper Fig. 3, unit 6).

Takes the partition strategy (regions) and mapping result (bypass
segments) and realises them on a :class:`FlexibleMeshTopology`, plus
derives the per-region PE datapath programs.  Reconfiguration costs
``2K−1`` cycles (63 for the 32×32 array) and overlaps with the previous
subgraph's computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.noc.topology import FlexibleMeshTopology, RingConfig
from ..arch.pe import PEConfig, PEDatapath, datapath_for_op
from ..config import AcceleratorConfig
from ..mapping.base import MappingResult, PERegion
from ..models.base import OpKind
from .controller import Workflow

__all__ = ["ConfigurationPlan", "ConfigurationUnit"]


@dataclass(frozen=True)
class ConfigurationPlan:
    """Everything the configuration unit installs for one tile."""

    topology: FlexibleMeshTopology
    region_a: PERegion
    region_b: PERegion | None
    pe_configs_a: tuple[PEConfig, ...]  # datapath sequence for A's phases
    pe_configs_b: tuple[PEConfig, ...]
    reconfiguration_cycles: int
    ring_rows: int  # rings configured in region B

    @property
    def num_datapath_switches(self) -> int:
        """Datapath changes a PE performs across the tile's phases."""
        switches = max(len(self.pe_configs_a) - 1, 0)
        switches += max(len(self.pe_configs_b) - 1, 0)
        return switches


def _datapath_sequence(op_kinds: tuple[OpKind, ...]) -> tuple[PEConfig, ...]:
    """Collapse a phase-op sequence into the distinct datapaths it needs."""
    configs: list[PEConfig] = []
    for kind in op_kinds:
        dp = datapath_for_op(kind)
        if dp is PEDatapath.IDLE:
            continue  # PPU ops need no MAC-array reconfiguration
        if not configs or configs[-1].datapath is not dp:
            configs.append(PEConfig(dp))
    return tuple(configs)


class ConfigurationUnit:
    """Builds :class:`ConfigurationPlan` objects from the decisions."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    def configure(
        self,
        workflow: Workflow,
        mapping: MappingResult,
        region_a: PERegion,
        region_b: PERegion | None,
    ) -> ConfigurationPlan:
        """Install bypass segments for A and rings for B on a fresh topology."""
        k = self.config.array_k
        topo = FlexibleMeshTopology(k)

        # Sub-accelerator A: bypass segments from the degree-aware mapping.
        for seg in mapping.bypass_segments:
            try:
                topo.add_bypass_segment(seg)
            except ValueError:
                # A row/column wire already claimed (e.g. by a ring span) —
                # the link controller simply leaves that segment unbridged.
                continue

        # Sub-accelerator B: each row becomes a weight-stationary ring.
        ring_rows = 0
        if region_b is not None and region_b.width > 1:
            ring = RingConfig(region_b.x0, region_b.y0, region_b.x1, region_b.y1)
            try:
                topo.add_ring_region(ring)
                ring_rows = region_b.height
            except ValueError:
                ring_rows = 0  # wires unavailable; B falls back to mesh

        a_ops: tuple[OpKind, ...] = ()
        b_ops: tuple[OpKind, ...] = ()
        for step in workflow.steps:
            if step.sub_accelerator == "A":
                a_ops = a_ops + step.op_kinds
            else:
                b_ops = b_ops + step.op_kinds

        return ConfigurationPlan(
            topology=topo,
            region_a=region_a,
            region_b=region_b,
            pe_configs_a=_datapath_sequence(a_ops),
            pe_configs_b=_datapath_sequence(b_ops),
            reconfiguration_cycles=self.config.reconfiguration_cycles,
            ring_rows=ring_rows,
        )
