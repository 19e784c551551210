"""Benchmark fixtures: share the expensive five-dataset sweep per session."""

from __future__ import annotations

import pytest

from repro.eval import run_comparison


@pytest.fixture(scope="session")
def sweep():
    """The paper's full accelerator × dataset comparison grid (GCN)."""
    return run_comparison(model="gcn")


def emit(result_text: str) -> None:
    """Print a regenerated paper artifact so the bench log shows it."""
    print()
    print(result_text)


def tile_fields(result) -> tuple:
    """The deterministic counters of one cycle-tier tile run, compared
    across engines and execution paths by the speedup gates."""
    return (
        result.noc_cycles,
        result.stall_events,
        result.mesh_flit_hops,
        result.bypass_flit_hops,
        result.packets,
        result.flits,
        result.avg_packet_latency,
        result.compute_cycles_a,
        result.compute_cycles_b,
    )
