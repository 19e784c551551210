"""Energy model derived from the Horowitz energy tables.

The paper estimates energy from the counted on/off-chip communications and
computations "according to [Horowitz's] energy table" (§VI-A).  We do the
same: a table of per-event energies (scaled from the published 45 nm
figures to double precision) applied to the simulator's event counters.

The absolute joule values matter less than their *ratios* — DRAM access is
two orders of magnitude costlier than an SRAM access, which is an order
costlier than a MAC — because every reported result is normalised to
Aurora.  The ratios here follow Horowitz (ISSCC 2014): 32-bit DRAM access
≈ 640 pJ vs ≈ 5 pJ for an 8 KB SRAM read vs ≈ 4.6 pJ for an fp32 MAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["EnergyTable", "EnergyCounters", "EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energies in picojoules (fp64-scaled Horowitz figures)."""

    mac_pj: float = 17.0  # fp64 multiply (≈15 pJ) + add (≈2 pJ)
    add_pj: float = 2.0  # fp64 add only (reduction configs)
    ppu_op_pj: float = 1.0  # activation/concat lane op
    sram_pj_per_byte: float = 1.2  # distributed bank buffer access
    global_buffer_pj_per_byte: float = 12.0  # large monolithic buffer (baselines)
    reuse_fifo_pj_per_byte: float = 0.4  # small FIFO access
    link_pj_per_byte_per_hop: float = 0.6  # NoC wire traversal
    router_pj_per_flit: float = 1.5  # buffering + allocation + crossbar
    bypass_pj_per_byte: float = 0.25  # segmented wire, no router pipeline
    dram_pj_per_byte: float = 160.0  # ≈640 pJ / 4 B, Horowitz DRAM figure
    reconfig_pj_per_pe: float = 5.0  # datapath switch reprogramming
    control_pj_per_cycle: float = 30.0  # dispatcher + control units static/dyn

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")


@dataclass
class EnergyCounters:
    """Event counts a simulation run accumulates."""

    mac_ops: int = 0
    add_ops: int = 0
    ppu_ops: int = 0
    sram_bytes: int = 0
    global_buffer_bytes: int = 0
    reuse_fifo_bytes: int = 0
    link_byte_hops: int = 0
    router_flits: int = 0
    bypass_bytes: int = 0
    dram_bytes: int = 0
    reconfig_events_pe: int = 0
    active_cycles: int = 0

    def merge(self, other: "EnergyCounters") -> "EnergyCounters":
        """Element-wise sum (combining per-phase or per-tile counters)."""
        return EnergyCounters(
            *[getattr(self, n) + getattr(other, n) for n in _COUNTER_FIELDS]
        )

    def as_dict(self) -> dict[str, int]:
        return {n: getattr(self, n) for n in _COUNTER_FIELDS}

    @staticmethod
    def from_dict(data: dict) -> "EnergyCounters":
        return EnergyCounters(
            **{k: v for k, v in data.items() if k in _COUNTER_FIELDS}
        )


#: Field names in declaration order, computed once: ``dataclasses.fields``
#: per call was a measurable share of merging per-tile counters and of
#: decoding every cached result.
_COUNTER_FIELDS = tuple(f.name for f in fields(EnergyCounters))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component, in joules."""

    compute: float
    sram: float
    noc: float
    dram: float
    control: float
    reconfiguration: float

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.sram
            + self.noc
            + self.dram
            + self.control
            + self.reconfiguration
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "compute": self.compute,
            "sram": self.sram,
            "noc": self.noc,
            "dram": self.dram,
            "control": self.control,
            "reconfiguration": self.reconfiguration,
            "total": self.total,
        }

    @staticmethod
    def from_dict(data: dict) -> "EnergyBreakdown":
        """Inverse of :meth:`as_dict` (``total`` is derived, so ignored)."""
        return EnergyBreakdown(
            **{f.name: data[f.name] for f in fields(EnergyBreakdown)}
        )


class EnergyModel:
    """Applies an :class:`EnergyTable` to run counters."""

    def __init__(self, table: EnergyTable | None = None) -> None:
        self.table = table or EnergyTable()

    def evaluate(self, c: EnergyCounters) -> EnergyBreakdown:
        """Total system energy of a run, per component."""
        t = self.table
        pj = 1e-12
        compute = (
            c.mac_ops * t.mac_pj + c.add_ops * t.add_pj + c.ppu_ops * t.ppu_op_pj
        ) * pj
        sram = (
            c.sram_bytes * t.sram_pj_per_byte
            + c.global_buffer_bytes * t.global_buffer_pj_per_byte
            + c.reuse_fifo_bytes * t.reuse_fifo_pj_per_byte
        ) * pj
        noc = (
            c.link_byte_hops * t.link_pj_per_byte_per_hop
            + c.router_flits * t.router_pj_per_flit
            + c.bypass_bytes * t.bypass_pj_per_byte
        ) * pj
        dram = c.dram_bytes * t.dram_pj_per_byte * pj
        control = c.active_cycles * t.control_pj_per_cycle * pj
        reconfig = c.reconfig_events_pe * t.reconfig_pj_per_pe * pj
        return EnergyBreakdown(
            compute=compute,
            sram=sram,
            noc=noc,
            dram=dram,
            control=control,
            reconfiguration=reconfig,
        )
