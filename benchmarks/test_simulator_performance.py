"""Simulator throughput bench: wall-time of the analytical tier itself.

This is the HPC-facing performance target: the analytical simulator must
sweep dataset-scale workloads in milliseconds (vectorised NumPy counting,
no per-edge Python), or the harness-level experiments would not be
tractable.  Regressions in the hot paths (tiling, mapping, traffic
extraction, link-load accumulation) show up here.

Wall-time assertions are scaled by ``$REPRO_BENCH_SLACK`` (default 1.0;
CI sets a larger factor) because shared runners are noisy — the asserts
exist to catch order-of-magnitude regressions, not to gate on machine
speed.  ``perfbench/`` is the instrument for real numbers.
"""

import os

import pytest

from repro import AuroraSimulator, LayerDims, get_model, load_dataset

#: Multiplier on every wall-time bound; CI sets e.g. REPRO_BENCH_SLACK=4.
SLACK = float(os.environ.get("REPRO_BENCH_SLACK", "1.0"))


@pytest.fixture(scope="module")
def cora():
    return load_dataset("cora")


@pytest.fixture(scope="module")
def pubmed():
    return load_dataset("pubmed", scale=0.5)


def test_simulate_layer_cora(benchmark, cora):
    sim = AuroraSimulator()
    model = get_model("gcn")
    dims = LayerDims(cora.num_features, 64)
    result = benchmark(sim.simulate_layer, model, cora, dims)
    assert result.total_seconds > 0
    # Full-Cora layer simulation stays interactive (< 0.5 s per call).
    if benchmark.enabled:
        assert benchmark.stats["mean"] < 0.5 * SLACK


def test_simulate_layer_pubmed(benchmark, pubmed):
    sim = AuroraSimulator()
    model = get_model("gcn")
    dims = LayerDims(pubmed.num_features, 64)
    result = benchmark(sim.simulate_layer, model, pubmed, dims)
    assert result.total_seconds > 0
    if benchmark.enabled:
        assert benchmark.stats["mean"] < 1.0 * SLACK


def test_mapping_throughput(benchmark, cora):
    """Algorithm 1 on full Cora: the per-subgraph preprocessing path."""
    from repro.mapping import PERegion, degree_aware_map

    region = PERegion(0, 0, 32, 16, 32)
    cap = -(-cora.num_vertices // region.num_pes)
    mapping = benchmark(
        degree_aware_map, cora, region, pe_vertex_capacity=cap
    )
    assert mapping.num_vertices == cora.num_vertices
    if benchmark.enabled:
        assert benchmark.stats["mean"] < 0.25 * SLACK
