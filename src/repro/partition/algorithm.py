"""Resource partitioning — the paper's Algorithm 2.

Splits the PE array into sub-accelerator A (edge update + aggregation;
irregular, message-passing communication) and sub-accelerator B (vertex
update; regular weight-stationary dataflow), choosing the split ``a`` that
balances their estimated execution times to maximise pipeline efficiency:

* ``T_A(a) = max(AComp1, AComp2) + AComp3`` with
  ``AComp1 = O_ue / (a·Flops)``,
  ``AComp2 = (O_a − E_f·m) / (a·Flops)``,
  ``AComp3 = E_f·m / (a·Flops)``;
* ``T_B(a) = O_uv / ((P−a)·Flops)``;
* pick ``a`` minimising ``|T_A − T_B|``.

If the model has no vertex update (EdgeConv), one accelerator is formed
(``a = P``); if it has no edge update (GIN), ``AComp1 = 0`` and execution
starts at aggregation.  The algorithm re-runs per subgraph / layer and its
~100-cycle latency overlaps with the previous subgraph's compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mapping.base import PERegion
from ..models.workload import LayerWorkload

__all__ = ["PartitionStrategy", "partition", "split_regions", "PARTITION_CYCLES"]

PARTITION_CYCLES = 100  # overlappable preprocessing latency (§VI-D)


@dataclass(frozen=True)
class PartitionStrategy:
    """Output of Algorithm 2: the (a, b) PE split and its time estimates."""

    a: int  # PEs for sub-accelerator A (edge update + aggregation)
    b: int  # PEs for sub-accelerator B (vertex update)
    t_a_seconds: float
    t_b_seconds: float
    single_accelerator: bool  # True when no vertex update exists

    @property
    def total_pes(self) -> int:
        return self.a + self.b

    @property
    def imbalance(self) -> float:
        """|T_A − T_B| relative to the slower side (0 = perfectly balanced)."""
        slow = max(self.t_a_seconds, self.t_b_seconds)
        if slow == 0:
            return 0.0
        return abs(self.t_a_seconds - self.t_b_seconds) / slow

    @property
    def pipeline_interval(self) -> float:
        """Steady-state initiation interval of the two-stage pipeline."""
        return max(self.t_a_seconds, self.t_b_seconds)


def _t_a(workload: LayerWorkload, a, flops: float):
    """T_A per Algorithm 2, lines 2–7 (``a`` a PE count or an array of
    them; ``inf`` where ``a == 0``)."""
    ef_m = workload.E_f * workload.num_edges
    denom = np.asarray(a) * flops
    with np.errstate(divide="ignore", invalid="ignore"):
        acomp1 = workload.O_ue / denom
        acomp2 = max(workload.O_a - ef_m, 0) / denom
        acomp3 = ef_m / denom
        t_a = np.maximum(acomp1, acomp2) + acomp3
    return np.where(denom == 0, np.inf, t_a)[()]


def _t_b(workload: LayerWorkload, b, flops: float):
    """T_B per Algorithm 2, lines 9–11 (``b`` a PE count or an array of
    them; ``inf`` where ``b == 0``)."""
    denom = np.asarray(b) * flops
    with np.errstate(divide="ignore", invalid="ignore"):
        t_b = workload.O_uv / denom
    return np.where(denom == 0, np.inf, t_b)[()]


def partition(
    workload: LayerWorkload,
    num_pes: int,
    flops_per_pe: float,
) -> PartitionStrategy:
    """Run Algorithm 2 for one layer workload.

    Parameters
    ----------
    num_pes:
        ``P`` — PEs available on the array (or the tile's region).
    flops_per_pe:
        ``Flops`` — operations per second of one PE.
    """
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    if flops_per_pe <= 0:
        raise ValueError("flops_per_pe must be positive")

    if workload.O_uv == 0:
        # No vertex update: only one accelerator is formed (paper §V).
        return PartitionStrategy(
            a=num_pes,
            b=0,
            t_a_seconds=float(_t_a(workload, num_pes, flops_per_pe)),
            t_b_seconds=0.0,
            single_accelerator=True,
        )
    if workload.O_ue == 0 and workload.O_a == 0:
        # Degenerate: vertex update only.
        return PartitionStrategy(
            a=0,
            b=num_pes,
            t_a_seconds=0.0,
            t_b_seconds=float(_t_b(workload, num_pes, flops_per_pe)),
            single_accelerator=True,
        )

    # Every split a = 1 .. P-1 at once; argmin's first minimum is the
    # first strictly-better split a left-to-right scan would keep.
    a = np.arange(1, num_pes, dtype=np.int64)
    t_a = _t_a(workload, a, flops_per_pe)
    t_b = _t_b(workload, num_pes - a, flops_per_pe)
    diff = np.abs(t_a - t_b)
    diff[np.isnan(diff)] = np.inf
    i = int(np.argmin(diff)) if diff.size else 0
    if not diff.size or diff[i] == np.inf:
        best_a, best_times = 1, (0.0, 0.0)
    else:
        best_a, best_times = int(a[i]), (float(t_a[i]), float(t_b[i]))
    return PartitionStrategy(
        a=best_a,
        b=num_pes - best_a,
        t_a_seconds=best_times[0],
        t_b_seconds=best_times[1],
        single_accelerator=False,
    )


def split_regions(
    array_k: int, strategy: PartitionStrategy
) -> tuple[PERegion, PERegion | None]:
    """Realise a partition as two horizontal bands of the K×K array.

    Sub-accelerator A takes the top rows (closest to the DRAM-interface
    crossbar feeding graph data); B takes the remainder.  Row-granular
    splitting matches the row-wise bypass wires and ring wrap-arounds.
    """
    total = array_k * array_k
    if strategy.total_pes != total:
        raise ValueError(
            f"strategy covers {strategy.total_pes} PEs, array has {total}"
        )
    if strategy.b == 0:
        return PERegion(0, 0, array_k, array_k, array_k), None
    if strategy.a == 0:
        return (
            PERegion(0, 0, array_k, array_k, array_k),
            None,
        )
    a_rows = int(round(strategy.a / array_k))
    a_rows = min(max(a_rows, 1), array_k - 1)
    region_a = PERegion(0, 0, array_k, a_rows, array_k)
    region_b = PERegion(0, a_rows, array_k, array_k, array_k)
    return region_a, region_b
