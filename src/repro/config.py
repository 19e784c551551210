"""Central hardware configuration for Aurora and the scaled baselines.

Defaults follow the paper's §VI-A accelerator modeling: a 32×32 PE array at
700 MHz, 100 KB of distributed bank buffer per PE (≈100 MB on-chip), double
precision throughout, and baselines scaled to the same multiplier count,
DRAM bandwidth, and on-chip storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["AcceleratorConfig", "NoCConfig", "DRAMConfig", "default_config", "small_config"]


@dataclass(frozen=True)
class NoCConfig:
    """Flexible NoC parameters (paper §III-B/C)."""

    flit_bytes: int = 16  # link width per cycle
    vcs_per_port: int = 2  # virtual channels per input port
    vc_depth: int = 4  # flits per VC buffer
    router_pipeline_stages: int = 2  # two-stage switch design
    link_latency: int = 1  # cycles per mesh hop link traversal
    bypass_links_per_row: int = 1  # one bi-directional bypass per row
    bypass_links_per_col: int = 1  # and per column
    bypass_segment_latency: int = 1  # cycles to traverse one bypass segment

    def __post_init__(self) -> None:
        if self.flit_bytes < 1:
            raise ValueError("flit_bytes must be >= 1")
        if self.vcs_per_port < 1 or self.vc_depth < 1:
            raise ValueError("VC parameters must be >= 1")
        if self.router_pipeline_stages < 1:
            raise ValueError("router pipeline must have >= 1 stage")
        if self.link_latency < 1 or self.bypass_segment_latency < 1:
            raise ValueError("link and bypass segment latencies must be >= 1")
        if self.bypass_links_per_row < 0 or self.bypass_links_per_col < 0:
            raise ValueError("bypass link counts must be >= 0")


@dataclass(frozen=True)
class DRAMConfig:
    """Off-package memory model parameters (DRAMSim2 substitute)."""

    bandwidth_bytes_per_sec: float = 256e9  # aggregate (HBM-class, as HyGCN)
    channels: int = 8
    banks_per_channel: int = 8
    row_buffer_bytes: int = 2048
    t_row_hit_ns: float = 15.0  # CAS latency for an open-row access
    t_row_miss_ns: float = 45.0  # precharge + activate + CAS
    burst_bytes: int = 64

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.channels < 1 or self.banks_per_channel < 1:
            raise ValueError("channel/bank counts must be >= 1")
        if self.burst_bytes < 1 or self.row_buffer_bytes < self.burst_bytes:
            raise ValueError("row buffer must hold at least one burst")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Top-level accelerator parameters shared by Aurora and baselines."""

    array_k: int = 32  # K×K PE array
    frequency_hz: float = 700e6
    macs_per_pe: int = 16  # flexible MAC units per PE (Fig. 5)
    pe_buffer_bytes: int = 100 * 1024  # distributed bank buffer per PE
    reuse_fifo_bytes: int = 2 * 1024  # inter-PE reuse FIFO (double buffer)
    ppu_lanes: int = 8  # post-processing unit lanes per PE
    bytes_per_value: int = 8  # uniform double precision
    noc: NoCConfig = field(default_factory=NoCConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def __post_init__(self) -> None:
        if self.array_k < 2:
            raise ValueError("array_k must be >= 2")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.macs_per_pe < 1:
            raise ValueError("macs_per_pe must be >= 1")
        if self.pe_buffer_bytes < 1024:
            raise ValueError("pe_buffer_bytes must be >= 1 KiB")
        if self.bytes_per_value not in (4, 8):
            raise ValueError("bytes_per_value must be 4 (fp32) or 8 (fp64)")

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return self.array_k * self.array_k

    @property
    def total_multipliers(self) -> int:
        """Multiplier budget used to scale baselines fairly."""
        return self.num_pes * self.macs_per_pe

    @property
    def onchip_bytes(self) -> int:
        """Aggregate distributed-buffer capacity (≈100 MB at defaults)."""
        return self.num_pes * self.pe_buffer_bytes

    @property
    def flops_per_pe_per_cycle(self) -> int:
        """Peak ops/cycle of one PE (multiply + add per MAC)."""
        return 2 * self.macs_per_pe

    @property
    def peak_flops(self) -> float:
        """Peak ops/sec of the whole array (Algorithm 2's P × Flops)."""
        return self.num_pes * self.flops_per_pe_per_cycle * self.frequency_hz

    @property
    def reconfiguration_cycles(self) -> int:
        """Array reconfiguration latency: 2K−1 cycles (63 for K=32, §VI-D)."""
        return 2 * self.array_k - 1

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.frequency_hz

    def scaled(self, **overrides) -> "AcceleratorConfig":
        """Copy with overridden fields (baseline scaling helper)."""
        return replace(self, **overrides)


def default_config() -> AcceleratorConfig:
    """The paper's evaluated configuration (32×32 PEs, 700 MHz)."""
    return AcceleratorConfig()


def small_config(array_k: int = 8) -> AcceleratorConfig:
    """A small array for cycle-tier tests and fast examples."""
    return AcceleratorConfig(array_k=array_k, pe_buffer_bytes=16 * 1024)
