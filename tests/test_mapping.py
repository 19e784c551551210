"""Tests for degree-aware/hashing mapping and traffic extraction."""

import numpy as np
import pytest

from repro.graphs import from_edge_list, power_law_graph, star_graph
from repro.mapping import (
    MappingResult,
    PERegion,
    aggregate_flows,
    batched_multicast_flows,
    degree_aware_map,
    edge_flows,
    hashing_map,
)
from repro.mapping.traffic import _check_key_bound, multicast_flows


@pytest.fixture
def region():
    return PERegion(0, 0, 8, 4, 8)  # 4 rows x 8 cols of an 8x8 array


class TestPERegion:
    def test_geometry(self, region):
        assert region.width == 8
        assert region.height == 4
        assert region.num_pes == 32

    def test_node_ids_row_major(self, region):
        ids = region.node_ids()
        assert ids[0] == 0
        assert ids[8] == 8  # second row starts at node 8 in an 8-wide array

    def test_local_to_node(self, region):
        assert region.local_to_node(0) == 0
        assert region.local_to_node(9) == 9

    def test_local_out_of_range(self, region):
        with pytest.raises(IndexError):
            region.local_to_node(32)

    def test_contains(self, region):
        assert region.contains_node(0)
        assert not region.contains_node(63)

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            PERegion(0, 0, 9, 4, 8)


class TestMappingResultBounds:
    """A mapping may only place vertices on its own region's PEs."""

    @pytest.fixture
    def inner(self):
        return PERegion(2, 1, 6, 3, 8)  # columns 2-5, rows 1-2 of 8x8

    def test_every_region_node_accepted(self, inner):
        for dtype in (np.int64, np.int32, np.uint16, np.float64):
            v2p = inner.node_ids().astype(dtype)
            MappingResult(policy="x", region=inner, vertex_to_pe=v2p)
        MappingResult(
            policy="x", region=inner, vertex_to_pe=np.zeros(0, np.int64)
        )

    @pytest.mark.parametrize(
        "node", [1 * 8 + 1, 1 * 8 + 6, 0 * 8 + 3, 3 * 8 + 3, -1, 64, 200, 10.5]
    )
    def test_outside_node_rejected(self, inner, node):
        v2p = np.append(inner.node_ids(), node)
        with pytest.raises(ValueError, match="outside its region"):
            MappingResult(policy="x", region=inner, vertex_to_pe=v2p)

    def test_matches_the_set_definition(self, inner):
        rng = np.random.default_rng(0)
        allowed = set(inner.node_ids().tolist())
        for _ in range(200):
            v2p = rng.integers(-3, 70, int(rng.integers(1, 6)))
            inside = set(v2p.tolist()) <= allowed
            try:
                MappingResult(policy="x", region=inner, vertex_to_pe=v2p)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == inside


class TestDegreeAware:
    def test_all_vertices_mapped_in_region(self, medium_graph, region):
        cap = -(-medium_graph.num_vertices // region.num_pes)
        m = degree_aware_map(medium_graph, region, pe_vertex_capacity=cap)
        assert m.vertex_to_pe.size == medium_graph.num_vertices
        nodes = set(region.node_ids().tolist())
        assert set(np.unique(m.vertex_to_pe).tolist()) <= nodes

    def test_capacity_respected(self, medium_graph, region):
        cap = -(-medium_graph.num_vertices // region.num_pes) + 1
        m = degree_aware_map(medium_graph, region, pe_vertex_capacity=cap)
        assert m.pe_loads().max() <= cap

    def test_over_capacity_rejected(self, medium_graph, region):
        with pytest.raises(ValueError, match="capacity"):
            degree_aware_map(medium_graph, region, pe_vertex_capacity=1)

    def test_hubs_on_s_pes(self, region):
        g = star_graph(40, num_features=4)  # vertex 0 is the hub
        m = degree_aware_map(g, region, pe_vertex_capacity=3)
        assert m.vertex_to_pe[0] in m.s_pe_nodes
        assert 0 in m.high_degree_vertices

    def test_hub_selection_counts_in_degree(self, region):
        """A pure sink (no out-edges, many in-edges) must still be a hub."""
        edges = [(i, 0) for i in range(1, 30)]
        g = from_edge_list(30, edges, num_features=4)
        m = degree_aware_map(g, region, pe_vertex_capacity=2)
        assert 0 in m.high_degree_vertices

    def test_s_pes_distinct_rows_columns(self, medium_graph, region):
        cap = -(-medium_graph.num_vertices // region.num_pes)
        m = degree_aware_map(medium_graph, region, pe_vertex_capacity=cap)
        k = region.array_k
        rows = [n // k for n in m.s_pe_nodes]
        cols = [n % k for n in m.s_pe_nodes]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    def test_bypass_segments_configured(self, medium_graph, region):
        cap = -(-medium_graph.num_vertices // region.num_pes)
        m = degree_aware_map(medium_graph, region, pe_vertex_capacity=cap)
        assert len(m.bypass_segments) > 0
        # At most one row segment per row (single physical wire).
        rows = [s.line for s in m.bypass_segments if s.axis == "row"]
        assert len(rows) == len(set(rows))

    def test_deterministic(self, medium_graph, region):
        cap = -(-medium_graph.num_vertices // region.num_pes)
        a = degree_aware_map(medium_graph, region, pe_vertex_capacity=cap)
        b = degree_aware_map(medium_graph, region, pe_vertex_capacity=cap)
        assert np.array_equal(a.vertex_to_pe, b.vertex_to_pe)

    def test_id_locality_preserved(self, region):
        """Consecutive low-degree ids should land on the same or a nearby PE."""
        g = power_law_graph(120, 300, locality=0.5, seed=2)
        cap = -(-120 // region.num_pes)
        m = degree_aware_map(g, region, pe_vertex_capacity=cap)
        low = [v for v in range(120) if v not in m.high_degree_vertices]
        same_pe = sum(
            m.vertex_to_pe[a] == m.vertex_to_pe[b]
            for a, b in zip(low, low[1:])
        )
        assert same_pe > len(low) * 0.4

    def test_empty_graph(self, region):
        g = from_edge_list(0, [])
        m = degree_aware_map(g, region, pe_vertex_capacity=4)
        assert m.num_vertices == 0

    def test_backtracking_mode(self, medium_graph, region):
        cap = -(-medium_graph.num_vertices // region.num_pes)
        m = degree_aware_map(
            medium_graph, region, pe_vertex_capacity=cap, use_backtracking=True
        )
        assert m.vertex_to_pe.size == medium_graph.num_vertices

    def test_beats_hashing_on_drain(self, region):
        """Degree-aware mapping (with its bypass boost) should drain a
        hub-heavy traffic pattern faster than hashing on a plain mesh.

        Note the comparison is end-to-end: degree-aware *concentrates*
        hubs on boosted S_PEs (raw load imbalance may be higher), and the
        bypass bandwidth is what turns that into a win.
        """
        from repro.arch.noc import AnalyticalNoCModel, FlexibleMeshTopology, TrafficMatrix
        from repro.config import NoCConfig

        g = power_law_graph(180, 1400, exponent=1.8, seed=5)
        cap = -(-180 // region.num_pes)
        k = region.array_k

        def drain(mapping, boost):
            mc = multicast_flows(g, mapping, g.num_features * 8)
            topo = FlexibleMeshTopology(k)
            for seg in mapping.bypass_segments:
                try:
                    topo.add_bypass_segment(seg)
                except ValueError:
                    continue
            res = AnalyticalNoCModel(topo, NoCConfig()).evaluate(
                TrafficMatrix.from_flows(
                    aggregate_flows(mc.flows, k * k), 16, k
                ),
                boost_nodes=mapping.s_pe_nodes,
                boost_factor=boost,
                eject_flits=mc.eject_bytes // 16,
                inject_flits=mc.inject_bytes // 16,
            )
            return res.drain_cycles

        aware = degree_aware_map(g, region, pe_vertex_capacity=cap)
        hashed = hashing_map(g, region)
        assert drain(aware, boost=region.width / 2) < drain(hashed, boost=1.0)


class TestHashing:
    def test_modulo_layout(self, region):
        g = from_edge_list(5, [(0, 1)], num_features=2)
        m = hashing_map(g, region)
        nodes = region.node_ids()
        assert m.vertex_to_pe.tolist() == nodes[:5].tolist()

    def test_no_degree_awareness(self, medium_graph, region):
        m = hashing_map(medium_graph, region)
        assert m.s_pe_nodes == ()
        assert m.bypass_segments == ()

    def test_capacity_check(self, medium_graph, region):
        with pytest.raises(ValueError, match="capacity"):
            hashing_map(medium_graph, region, pe_vertex_capacity=1)

    def test_stride(self, region):
        g = from_edge_list(4, [(0, 1)], num_features=2)
        m = hashing_map(g, region, stride=3)
        nodes = region.node_ids()
        assert m.vertex_to_pe[1] == nodes[3]


class TestEdgeFlows:
    def test_local_edges_dropped(self, region):
        g = from_edge_list(2, [(0, 1)], num_features=2)
        v2p = np.array([0, 0])
        m = MappingResult(policy="x", region=region, vertex_to_pe=v2p)
        assert edge_flows(g, m, 16).shape[0] == 0

    def test_remote_edge_counted(self, region):
        g = from_edge_list(2, [(0, 1)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 1])
        )
        flows = edge_flows(g, m, 16)
        assert flows.tolist() == [[0, 1, 16]]

    def test_multicast_dedup(self, region):
        """Two edges from one vertex to vertices on the same PE: one message."""
        g = from_edge_list(3, [(0, 1), (0, 2)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 5, 5])
        )
        assert edge_flows(g, m, 16, dedup_per_pe=True).shape[0] == 1
        assert edge_flows(g, m, 16, dedup_per_pe=False).shape[0] == 2

    def test_reduction_dedup(self, region):
        """Two edges from one PE to the same destination vertex: one partial."""
        g = from_edge_list(3, [(0, 2), (1, 2)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 0, 5])
        )
        assert edge_flows(g, m, 16, reduction_dedup=True).shape[0] == 1

    def test_aggregate_flows(self):
        flows = np.array([[0, 1, 16], [0, 1, 16], [2, 3, 8]])
        agg = aggregate_flows(flows, 64)
        assert agg.shape[0] == 2
        assert agg[0].tolist() == [0, 1, 32]

    def test_mapping_size_mismatch(self, region):
        g = from_edge_list(3, [(0, 1)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 1])
        )
        with pytest.raises(ValueError, match="cover"):
            edge_flows(g, m, 16)


class TestMulticastFlows:
    def test_inject_once_per_vertex(self, region):
        """A vertex with neighbors on 3 PEs injects one payload."""
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 1, 2, 3])
        )
        mc = multicast_flows(g, m, 100)
        assert mc.inject_bytes[0] == 100
        assert mc.inject_bytes.sum() == 100

    def test_eject_full_payload_each(self, region):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 1, 2, 3])
        )
        mc = multicast_flows(g, m, 100)
        assert mc.eject_bytes[1] == 100
        assert mc.eject_bytes.sum() == 300

    def test_link_bytes_tree_shared(self, region):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)], num_features=2)
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 1, 2, 3])
        )
        mc = multicast_flows(g, m, 99)
        # Payload split across the 3 destinations: 33 bytes per branch.
        assert mc.flows[:, 2].tolist() == [33, 33, 33]

    def test_empty_graph(self, region):
        g = from_edge_list(2, [])
        m = MappingResult(
            policy="x", region=region, vertex_to_pe=np.array([0, 1])
        )
        mc = multicast_flows(g, m, 10)
        assert mc.flows.shape[0] == 0
        assert mc.eject_bytes.sum() == 0

    def test_fused_key_bound_at_the_boundary(self):
        """A layer's keys pack (tile, src PE, dst PE, source vertex) into
        one int64, so ``tiles·N²·V`` must stay below 2**63."""
        nodes = 2**30  # N² = 2**60
        _check_key_bound(1, nodes, 7)
        _check_key_bound(7, nodes, 1)
        for tiles, verts in ((1, 8), (8, 1), (2, 4)):
            with pytest.raises(ValueError, match=r"2\*\*63"):
                _check_key_bound(tiles, nodes, verts)
        _check_key_bound(3, 2**10, (2**63 - 1) // (3 * 2**20))
        with pytest.raises(ValueError, match=r"2\*\*63"):
            _check_key_bound(3, 2**10, -(-(2**63) // (3 * 2**20)))

    def test_oversized_layer_raises_before_building_keys(self):
        # N = 1449² nodes and V = 2**21 vertices: N²·V just passes 2**63,
        # while every array the kernel would build stays tens of MB.
        k, n = 1449, 2**21
        assert (k * k) ** 2 * n >= 2**63
        g = from_edge_list(n, [(0, 1), (2, 3)])
        m = MappingResult(
            policy="x",
            region=PERegion(0, 0, 2, 1, k),
            vertex_to_pe=np.arange(n, dtype=np.int64) % 2,
        )
        with pytest.raises(ValueError, match=r"2\*\*63"):
            batched_multicast_flows([g], [m], 10)
