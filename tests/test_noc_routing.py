"""Unit tests for NoC route computation."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.noc import (
    BypassSegment,
    FlexibleMeshTopology,
    RingConfig,
    bypass_choice,
    bypass_route,
    compute_route,
    ring_route,
    xy_route,
)


@pytest.fixture
def mesh8():
    return FlexibleMeshTopology(8)


def _route_is_connected(topo, route):
    """Every consecutive pair must be a mesh neighbor or bypass endpoint."""
    pairs = {
        frozenset(topo.segment_endpoints(s)) for s in topo.bypass_segments
    }
    for a, b in zip(route, route[1:]):
        ok = b in topo.mesh_neighbors(a) or frozenset((a, b)) in pairs
        if not ok:
            return False
    return True


class TestXY:
    def test_endpoints(self, mesh8):
        r = xy_route(mesh8, 0, 63)
        assert r[0] == 0 and r[-1] == 63

    def test_length_is_manhattan(self, mesh8):
        r = xy_route(mesh8, 0, 63)
        assert len(r) - 1 == mesh8.manhattan(0, 63)

    def test_x_first(self, mesh8):
        r = xy_route(mesh8, 0, mesh8.node_id(3, 2))
        # First moves change x while y stays 0.
        xs = [mesh8.coords(n)[0] for n in r[:4]]
        ys = [mesh8.coords(n)[1] for n in r[:4]]
        assert xs == [0, 1, 2, 3]
        assert ys == [0, 0, 0, 0]

    def test_self_route(self, mesh8):
        assert xy_route(mesh8, 5, 5) == (5,)

    def test_connected(self, mesh8):
        for src, dst in [(0, 63), (7, 56), (12, 34)]:
            assert _route_is_connected(mesh8, xy_route(mesh8, src, dst))

    def test_negative_directions(self, mesh8):
        r = xy_route(mesh8, 63, 0)
        assert r[0] == 63 and r[-1] == 0
        assert len(r) - 1 == 14


class TestBypass:
    def test_bypass_shortens_long_row_route(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        src, dst = mesh8.node_id(0, 0), mesh8.node_id(7, 0)
        r = bypass_route(mesh8, src, dst)
        assert len(r) - 1 == 1  # one express hop
        assert _route_is_connected(mesh8, r)

    def test_bypass_not_taken_when_longer(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 7, 0, 7))
        src, dst = mesh8.node_id(0, 0), mesh8.node_id(1, 0)
        r = bypass_route(mesh8, src, dst)
        assert len(r) - 1 == 1  # plain XY wins

    def test_bypass_from_middle(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 2, 1, 6))
        src = mesh8.node_id(1, 2)
        dst = mesh8.node_id(6, 4)
        r = bypass_route(mesh8, src, dst)
        assert len(r) - 1 == 3  # bypass hop + 2 down
        assert _route_is_connected(mesh8, r)

    def test_column_bypass(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("col", 0, 0, 7))
        r = bypass_route(mesh8, mesh8.node_id(0, 0), mesh8.node_id(0, 7))
        assert len(r) - 1 == 1

    def test_no_segments_equals_xy(self, mesh8):
        assert bypass_route(mesh8, 0, 63) == xy_route(mesh8, 0, 63)


class TestRing:
    def test_forward_route(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 0, 8, 2))
        src, dst = mesh8.node_id(1, 0), mesh8.node_id(5, 0)
        r = ring_route(mesh8, src, dst)
        assert len(r) - 1 == 4

    def test_wraparound(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 0, 8, 2))
        src, dst = mesh8.node_id(6, 0), mesh8.node_id(1, 0)
        r = ring_route(mesh8, src, dst)
        # 6 -> 7 -> wrap to 0 -> 1: three hops, never backwards.
        assert len(r) - 1 == 3

    def test_cross_row_within_ring(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 0, 8, 2))
        src, dst = mesh8.node_id(3, 0), mesh8.node_id(2, 1)
        r = ring_route(mesh8, src, dst)
        assert r[0] == src and r[-1] == dst

    def test_requires_shared_ring(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 0, 8, 2))
        with pytest.raises(ValueError, match="ring"):
            ring_route(mesh8, mesh8.node_id(0, 0), mesh8.node_id(0, 5))


class TestComputeRoute:
    def test_dispatches_to_ring(self, mesh8):
        mesh8.add_ring_region(RingConfig(0, 0, 8, 2))
        src, dst = mesh8.node_id(6, 0), mesh8.node_id(1, 0)
        assert len(compute_route(mesh8, src, dst)) - 1 == 3

    def test_dispatches_to_bypass(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        r = compute_route(mesh8, 0, 7)
        assert len(r) - 1 == 1

    def test_allow_bypass_false(self, mesh8):
        mesh8.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        r = compute_route(mesh8, 0, 7, allow_bypass=False)
        assert len(r) - 1 == 7

    def test_self(self, mesh8):
        assert compute_route(mesh8, 3, 3) == (3,)


def _random_configuration(seed):
    """A seeded segment (and, on odd seeds, ring) configuration."""
    rng = random.Random(seed)
    k = 4 if seed < 22 else 8 if seed < 30 else 16
    topo = FlexibleMeshTopology(k)
    if seed % 2:
        x0, y0 = rng.randrange(k - 1), rng.randrange(k)
        topo.add_ring_region(
            RingConfig(x0, y0, rng.randint(x0 + 2, k), rng.randint(y0 + 1, k))
        )
    for _ in range(rng.randint(1, k + 2)):
        start, end = sorted(rng.sample(range(k), 2))
        try:
            topo.add_bypass_segment(
                BypassSegment(rng.choice(("row", "col")), rng.randrange(k), start, end)
            )
        except ValueError:
            continue  # overlaps a segment already on that wire
    return topo, seed % 5 != 4


def _route_digest(routes) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for route in routes:
        digest.update(repr(route).encode())
    return digest.hexdigest()


class TestPinnedRoutes:
    """Route digests recorded from the per-segment search ``bypass_route``
    ran before the bypass rule became one vectorised kernel.

    Every flit-level result rests on these routes, so a change to the
    rule's implementation must reproduce them for every pair.  Seeds
    0-29 (k = 4 and 8) route pair by pair; the k = 16 seeds 30-31 route
    their 65,536 pairs in one ``compute_routes`` batch, since routing
    them pair by pair takes seconds.
    """

    PINNED = {
        0: "85c0b98d854323a7", 1: "94453acf758bd904", 2: "7f643cd7c06704e7",
        3: "feeac8de4fb08b28", 4: "2e1cd50e22464c4e", 5: "5017e3f247829db8",
        6: "74fd4a1f836b506b", 7: "564f2cf858cc85ef", 8: "2e1cd50e22464c4e",
        9: "e0520f2566df65c1", 10: "85c0b98d854323a7", 11: "511069f620779ef3",
        12: "748c2e9126d3e399", 13: "2e1cd50e22464c4e", 14: "2e1cd50e22464c4e",
        15: "8b7709d975aeac54", 16: "3c5dc246f2f2851d", 17: "61a3a54894436a16",
        18: "3467fa265ba2cb4b", 19: "f0002844ccf7aba3", 20: "07fcfe3392916826",
        21: "1a39359316f35992", 22: "c10ee0b316501c10", 23: "d7f6615d8eeea6db",
        24: "99bc0e24d35f80e0", 25: "543c85b40079da6d", 26: "419bb5ece81bcb25",
        27: "a7832fec2c460de4", 28: "a6a7dfbe966e2611", 29: "21fa31b88ed4a143",
        30: "54ef693dfdf37fca", 31: "6b46088a7261999c",
    }

    @pytest.mark.parametrize("seed", range(30))
    def test_every_pair_route(self, seed):
        topo, allow_bypass = _random_configuration(seed)
        n = topo.num_nodes
        routes = (
            compute_route(topo, src, dst, allow_bypass=allow_bypass)
            for src in range(n)
            for dst in range(n)
        )
        assert _route_digest(routes) == self.PINNED[seed]

    @pytest.mark.parametrize("seed", [30, 31])
    def test_every_pair_route_batched(self, seed):
        # Imported here so the pair-by-pair pins above also run against
        # code that predates the batch API.
        from repro.arch.noc import compute_routes

        topo, allow_bypass = _random_configuration(seed)
        n = topo.num_nodes
        pairs = [(src, dst) for src in range(n) for dst in range(n)]
        routes = compute_routes(topo, pairs, allow_bypass=allow_bypass)
        assert _route_digest(routes) == self.PINNED[seed]


@st.composite
def bypass_configurations(draw):
    """A k×k mesh, 2 <= k <= 32, with random non-overlapping segments.

    An optional ring region adds its row segments first (length 1 when
    the region is two columns wide); about half the segments share one
    drawn length, so equal-length ties within a line, across lines and
    across the two axes are common.
    """
    k = draw(st.integers(2, 32))
    topo = FlexibleMeshTopology(k)
    if draw(st.booleans()):
        x0 = draw(st.integers(0, k - 2))
        y0 = draw(st.integers(0, k - 1))
        topo.add_ring_region(
            RingConfig(
                x0,
                y0,
                draw(st.integers(x0 + 2, k)),
                draw(st.integers(y0 + 1, min(k, y0 + 3))),
            )
        )
    tie = draw(st.integers(1, k - 1))
    for _ in range(draw(st.integers(0, 3 * k))):
        length = tie if draw(st.booleans()) else draw(st.integers(1, k - 1))
        start = draw(st.integers(0, k - 1 - length))
        segment = BypassSegment(
            draw(st.sampled_from(("row", "col"))),
            draw(st.integers(0, k - 1)),
            start,
            start + length,
        )
        try:
            topo.add_bypass_segment(segment)
        except ValueError:
            pass  # overlaps a segment already on that wire
    return topo


def _rule_for_one_flow(candidates, sx, sy, dx, dy):
    """The bypass rule for one flow, by plain search.

    ``candidates`` are the ``(index, segment)`` entries on the source's
    row and the destination's column, in ``bypass_segments`` order.  A
    segment is usable when it lies inside the flow's span along its
    axis; the one saving the most hops wins, the first of equals wins,
    and saving nothing (a one-hop segment) loses to plain XY.
    """
    saved, seg, direction = 0, -1, 0
    for i, s in candidates:
        a, b = (sx, dx) if s.axis == "row" else (sy, dy)
        if min(a, b) <= s.start and s.end <= max(a, b) and s.length - 1 > saved:
            saved, seg, direction = s.length - 1, i, 1 if a < b else -1
    return abs(sx - dx) + abs(sy - dy) - saved, seg, direction


class TestBypassRuleBruteForce:
    """``bypass_choice`` over every (src, dst) pair of random
    configurations equals the rule applied one flow at a time."""

    @settings(max_examples=12, deadline=None)
    @given(bypass_configurations())
    def test_every_pair_matches_the_per_flow_rule(self, topo):
        k = topo.k
        rows: dict = {}
        cols: dict = {}
        for i, s in enumerate(topo.bypass_segments):
            (rows if s.axis == "row" else cols).setdefault(s.line, []).append((i, s))
        coords = [(x, y) for y in range(k) for x in range(k)]
        want = [
            _rule_for_one_flow(rows.get(sy, []) + cols.get(dx, []), sx, sy, dx, dy)
            for sx, sy in coords
            for dx, dy in coords
        ]
        grid = np.array(coords, dtype=np.int64)
        src = np.repeat(grid, k * k, axis=0)
        dst = np.tile(grid, (k * k, 1))
        got = bypass_choice(topo, src[:, 0], src[:, 1], dst[:, 0], dst[:, 1])
        want = np.fromiter(
            itertools.chain.from_iterable(want), np.int64, 3 * len(want)
        )
        np.testing.assert_array_equal(np.column_stack(got), want.reshape(-1, 3))
