"""Batched multicast traffic equals the per-tile definition, tile by tile.

``batched_multicast_flows`` extracts every tile of a layer in one pass;
``multicast_flows`` is its one-tile call.  Over random tiles under both
mapping policies, each tile of a many-tile batch must match the one-tile
call and a plain set-based reference of the multicast rule — flows, eject
and inject bytes, and dtypes — and each tile's aggregated pairs must
equal the per-tile aggregation of its flows.
"""

import numpy as np
import pytest

from repro.arch.noc import TrafficMatrix
from repro.graphs import from_edge_list, power_law_graph
from repro.mapping import (
    MappingResult,
    PERegion,
    aggregate_flows,
    batched_multicast_flows,
)
from repro.mapping.memo import map_tile
from repro.mapping.traffic import multicast_flows

PAYLOAD = 1433 * 4


def reference(sub, mapping, payload):
    """The multicast rule spelled out with sets.

    Each remote (source vertex, destination PE) pair is one delivery; a
    source's payload is split over its destination set; every delivery
    ejects the full payload and every sending vertex injects it once.
    Flows are ordered by (source vertex, destination PE).
    """
    k = mapping.region.array_k
    num_nodes = k * k
    pe = mapping.vertex_to_pe
    pairs = sorted(
        {
            (u, int(pe[v]))
            for u in range(sub.num_vertices)
            for v in sub.indices[sub.indptr[u] : sub.indptr[u + 1]].tolist()
            if pe[u] != pe[v]
        }
    )
    n_dst: dict = {}
    for u, _ in pairs:
        n_dst[u] = n_dst.get(u, 0) + 1
    flows = [(int(pe[u]), d, max(payload // n_dst[u], 1)) for u, d in pairs]
    eject = np.zeros(num_nodes, dtype=np.int64)
    inject = np.zeros(num_nodes, dtype=np.int64)
    for _, d, _ in flows:
        eject[d] += payload
    for u in n_dst:
        inject[pe[u]] += payload
    return np.array(flows, dtype=np.int64).reshape(-1, 3), eject, inject


def random_tiles(k: int, policy: str, count: int, seed: int):
    """``count`` random tiles mapped onto the top half of a k×k array."""
    rng = np.random.default_rng(seed)
    region = PERegion(0, 0, k, max(1, k // 2), k)
    subs, mappings = [], []
    for i in range(count):
        n = int(rng.integers(2, 160))
        m = int(rng.integers(0, min(n * n, 6 * n) + 1))
        sub = power_law_graph(
            n, m, locality=float(rng.choice([0.0, 0.5])), seed=seed * 1000 + i
        )
        subs.append(sub)
        mappings.append(map_tile(sub, region, policy))
    return subs, mappings


def assert_same(got, want_flows, want_eject, want_inject):
    assert got.flows.dtype == np.int64
    assert got.eject_bytes.dtype == np.int64
    assert got.inject_bytes.dtype == np.int64
    np.testing.assert_array_equal(got.flows, want_flows)
    np.testing.assert_array_equal(got.eject_bytes, want_eject)
    np.testing.assert_array_equal(got.inject_bytes, want_inject)


@pytest.mark.parametrize("policy", ["degree-aware", "hashing"])
@pytest.mark.parametrize("k", [4, 8, 16])
def test_batch_matches_one_tile_calls_and_reference(k, policy):
    subs, mappings = random_tiles(k, policy, count=50, seed=k)
    batch = batched_multicast_flows(subs, mappings, PAYLOAD)
    assert len(batch) == len(subs)
    for sub, mapping, got in zip(subs, mappings, batch):
        single = multicast_flows(sub, mapping, PAYLOAD)
        assert_same(got, single.flows, single.eject_bytes, single.inject_bytes)
        assert_same(got, *reference(sub, mapping, PAYLOAD))


def test_local_and_edgeless_tiles_inside_a_batch():
    """Tiles with no remote traffic get fresh empty entries and do not
    shift the slices of their neighbours."""
    region = PERegion(0, 0, 4, 4, 4)
    busy = power_law_graph(40, 160, seed=3)
    edgeless = from_edge_list(3, [])
    all_local = from_edge_list(3, [(0, 1), (1, 2)])
    subs = [busy, edgeless, all_local, busy]
    mappings = [
        map_tile(busy, region, "hashing"),
        map_tile(edgeless, region, "hashing"),
        MappingResult(policy="x", region=region, vertex_to_pe=np.zeros(3, np.int64)),
        map_tile(busy, region, "degree-aware"),
    ]
    batch = batched_multicast_flows(subs, mappings, PAYLOAD)
    for sub, mapping, got in zip(subs, mappings, batch):
        assert_same(got, *reference(sub, mapping, PAYLOAD))
    assert batch[1].flows.shape == (0, 3) and batch[2].flows.shape == (0, 3)
    batch[1].eject_bytes[0] = 1  # entries do not share buffers
    assert batch[2].eject_bytes[0] == 0


def test_mismatched_array_sizes_rejected():
    sub = power_law_graph(20, 40, seed=1)
    small = map_tile(sub, PERegion(0, 0, 4, 2, 4), "hashing")
    large = map_tile(sub, PERegion(0, 0, 8, 4, 8), "hashing")
    with pytest.raises(ValueError):
        batched_multicast_flows([sub, sub], [small, large], PAYLOAD)


def reference_pairs(flows):
    """``flows`` merged per (src PE, dst PE) with a dict, sorted by pair."""
    sums: dict = {}
    for s, d, b in flows.tolist():
        sums[(s, d)] = sums.get((s, d), 0) + b
    return np.array(
        [(s, d, b) for (s, d), b in sorted(sums.items())], dtype=np.int64
    ).reshape(-1, 3)


def assert_same_matrix(got, want):
    for name in ("src_x", "src_y", "dst_x", "dst_y", "flits"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int64, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("policy", ["degree-aware", "hashing"])
@pytest.mark.parametrize("k", [4, 8, 16, 32])
def test_aggregated_pairs_match_per_tile_aggregation(k, policy):
    """The kernel's one layer-wide grouping gives each tile the pairs,
    traffic matrix and port flits the per-tile path derived from its
    flows, around empty tiles and tiles with no remote edge."""
    subs, mappings = random_tiles(k, policy, count=20, seed=100 + k)
    region = mappings[0].region
    all_local = from_edge_list(3, [(0, 1), (1, 2)])
    local_map = MappingResult(
        policy="x",
        region=region,
        vertex_to_pe=np.full(3, region.node_ids()[0], np.int64),
    )
    edgeless = from_edge_list(4, [])
    subs[5:5] = [edgeless, all_local]
    mappings[5:5] = [map_tile(edgeless, region, policy), local_map]
    subs.append(edgeless)
    mappings.append(map_tile(edgeless, region, policy))
    flit_bytes = 16
    batch = batched_multicast_flows(subs, mappings, PAYLOAD)
    for sub, mapping, got in zip(subs, mappings, batch):
        _, want_eject, want_inject = reference(sub, mapping, PAYLOAD)
        assert got.pairs.dtype == np.int64
        np.testing.assert_array_equal(got.pairs, reference_pairs(got.flows))
        np.testing.assert_array_equal(
            got.pairs, aggregate_flows(got.flows, k * k)
        )
        assert_same_matrix(
            got.matrix(flit_bytes, k),
            TrafficMatrix.from_flows(
                aggregate_flows(got.flows, k * k), flit_bytes, k
            ),
        )
        eject, inject = got.port_flits(flit_bytes)
        np.testing.assert_array_equal(eject, -(-want_eject // flit_bytes))
        np.testing.assert_array_equal(inject, -(-want_inject // flit_bytes))
        np.testing.assert_array_equal(got.eject_bytes, want_eject)
        np.testing.assert_array_equal(got.inject_bytes, want_inject)
    for empty in (batch[5], batch[6], batch[-1]):
        assert empty.pairs.shape == (0, 3)
        assert empty.matrix(flit_bytes, k).num_flows == 0
