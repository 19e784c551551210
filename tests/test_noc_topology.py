"""Unit tests for the flexible NoC topology."""

import pytest

from repro.arch.noc import BypassSegment, FlexibleMeshTopology, RingConfig


@pytest.fixture
def mesh8():
    return FlexibleMeshTopology(8)


class TestCoordinates:
    def test_node_id_roundtrip(self, mesh8):
        for node in (0, 7, 8, 63):
            x, y = mesh8.coords(node)
            assert mesh8.node_id(x, y) == node

    def test_out_of_range(self, mesh8):
        with pytest.raises(ValueError):
            mesh8.node_id(8, 0)
        with pytest.raises(ValueError):
            mesh8.coords(64)

    def test_num_nodes(self, mesh8):
        assert mesh8.num_nodes == 64

    def test_min_dimension(self):
        with pytest.raises(ValueError):
            FlexibleMeshTopology(1)

    def test_manhattan(self, mesh8):
        assert mesh8.manhattan(0, 63) == 14
        assert mesh8.manhattan(5, 5) == 0


class TestMeshNeighbors:
    def test_corner_has_two(self, mesh8):
        assert len(mesh8.mesh_neighbors(0)) == 2

    def test_edge_has_three(self, mesh8):
        assert len(mesh8.mesh_neighbors(1)) == 3

    def test_interior_has_four(self, mesh8):
        assert len(mesh8.mesh_neighbors(9)) == 4

    def test_symmetry(self, mesh8):
        for node in range(mesh8.num_nodes):
            for nbr in mesh8.mesh_neighbors(node):
                assert node in mesh8.mesh_neighbors(nbr)


class TestBypassSegments:
    def test_add_row_segment(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 2, 0, 7))
        assert len(mesh8.bypass_segments) == 1

    def test_segment_endpoints(self, mesh8):
        seg = BypassSegment("row", 2, 1, 6)
        mesh8.add_bypass_segment(seg)
        a, b = mesh8.segment_endpoints(seg)
        assert mesh8.coords(a) == (1, 2)
        assert mesh8.coords(b) == (6, 2)

    def test_column_segment_endpoints(self, mesh8):
        seg = BypassSegment("col", 3, 0, 5)
        mesh8.add_bypass_segment(seg)
        a, b = mesh8.segment_endpoints(seg)
        assert mesh8.coords(a) == (3, 0)
        assert mesh8.coords(b) == (3, 5)

    def test_overlap_rejected_same_wire(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 2, 0, 4))
        with pytest.raises(ValueError, match="overlaps"):
            mesh8.add_bypass_segment(BypassSegment("row", 2, 3, 7))

    def test_disjoint_segments_same_wire_allowed(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 2, 0, 3))
        mesh8.add_bypass_segment(BypassSegment("row", 2, 4, 7))
        assert len(mesh8.bypass_segments) == 2

    def test_segments_keep_insertion_order_rows_first(self, mesh8):
        segs = [
            BypassSegment("col", 5, 0, 3),
            BypassSegment("row", 2, 4, 7),
            BypassSegment("col", 1, 2, 6),
            BypassSegment("row", 2, 0, 3),
            BypassSegment("row", 0, 1, 5),
        ]
        for seg in segs:
            mesh8.add_bypass_segment(seg)
        assert mesh8.bypass_segments == [segs[1], segs[3], segs[4], segs[0], segs[2]]
        with pytest.raises(ValueError) as err:
            mesh8.add_bypass_segment(BypassSegment("row", 2, 2, 5))
        assert str(err.value) == (
            f"segment {BypassSegment('row', 2, 2, 5)} overlaps configured "
            f"segment {segs[1]} on the same physical bypass link"
        )
        mesh8.clear_configuration()
        mesh8.add_bypass_segment(BypassSegment("row", 2, 2, 5))
        assert len(mesh8.bypass_segments) == 1

    def test_different_rows_never_overlap(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 1, 0, 7))
        mesh8.add_bypass_segment(BypassSegment("row", 2, 0, 7))

    def test_row_and_col_independent(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 2, 0, 7))
        mesh8.add_bypass_segment(BypassSegment("col", 2, 0, 7))

    def test_out_of_mesh_rejected(self, mesh8):
        with pytest.raises(ValueError, match="outside"):
            mesh8.add_bypass_segment(BypassSegment("row", 9, 0, 3))
        with pytest.raises(ValueError, match="outside"):
            mesh8.add_bypass_segment(BypassSegment("row", 0, 0, 9))

    def test_invalid_segment(self):
        with pytest.raises(ValueError, match="axis"):
            BypassSegment("diag", 0, 0, 3)
        with pytest.raises(ValueError, match="span"):
            BypassSegment("row", 0, 3, 3)

    def test_links_from_includes_bypass(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        links = mesh8.links_from(0)
        kinds = {kind for _, kind in links}
        assert "bypass" in kinds
        bypass_targets = [n for n, k in links if k == "bypass"]
        assert mesh8.node_id(7, 0) in bypass_targets

    def test_clear_configuration(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        mesh8.clear_configuration()
        assert mesh8.bypass_segments == []


class TestRings:
    def test_add_ring(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 4, 8, 8))
        assert len(mesh8.ring_regions) == 1
        # Ring rows consumed their bypass wires as wrap-arounds.
        assert len(mesh8.bypass_segments) == 4

    def test_ring_lookup(self, mesh8):
        ring = RingConfig(0, 4, 8, 8)
        mesh8.add_ring_region(ring)
        assert mesh8.ring_for(mesh8.node_id(3, 5)) is not None
        assert mesh8.ring_for(mesh8.node_id(3, 2)) is None

    def test_overlapping_rings_rejected(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 0, 8, 4))
        with pytest.raises(ValueError, match="overlap"):
            mesh8.add_ring_region(RingConfig(0, 3, 8, 6))

    def test_ring_outside_mesh(self, mesh8):
        with pytest.raises(ValueError, match="outside"):
            mesh8.add_ring_region(RingConfig(0, 0, 9, 2))

    def test_ring_conflicts_with_used_bypass(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 5, 2, 6))
        with pytest.raises(ValueError, match="overlaps"):
            mesh8.add_ring_region(RingConfig(0, 4, 8, 8))

    def test_invalid_ring(self):
        with pytest.raises(ValueError, match="non-empty"):
            RingConfig(2, 2, 2, 4)

    def test_ring_dimensions(self):
        ring = RingConfig(1, 2, 5, 6)
        assert ring.width == 4
        assert ring.height == 4
        assert ring.contains(1, 2)
        assert not ring.contains(5, 2)
