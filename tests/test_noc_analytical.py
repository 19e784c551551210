"""Tests for the analytical NoC model, incl. agreement with the flit sim."""

import numpy as np
import pytest

from repro.arch.noc import (
    AnalyticalNoCModel,
    BypassSegment,
    FlexibleMeshTopology,
    NoCSimulator,
    TrafficMatrix,
    bypass_choice,
    compute_routes,
)
from repro.config import NoCConfig

from .test_noc_routing import _random_configuration


def _traffic(flows, k, flit_bytes=16):
    return TrafficMatrix.from_flows(np.asarray(flows, dtype=np.int64), flit_bytes, k)


class TestTrafficMatrix:
    def test_from_flows_basic(self):
        tm = _traffic([[0, 3, 32], [0, 3, 32]], k=4)
        assert tm.num_flows == 1  # merged duplicates
        assert tm.flits[0] == 4  # 64 bytes / 16

    def test_drops_local_flows(self):
        tm = _traffic([[2, 2, 64]], k=4)
        assert tm.num_flows == 0

    def test_empty(self):
        tm = TrafficMatrix.from_flows(np.empty((0, 3)), 16, 4)
        assert tm.num_flows == 0
        assert tm.total_flits == 0

    def test_coordinates(self):
        tm = _traffic([[1, 14, 16]], k=4)
        assert (tm.src_x[0], tm.src_y[0]) == (1, 0)
        assert (tm.dst_x[0], tm.dst_y[0]) == (2, 3)

    def test_minimum_one_flit(self):
        tm = _traffic([[0, 1, 1]], k=4)
        assert tm.flits[0] == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="src, dst, bytes"):
            TrafficMatrix.from_flows(np.zeros((2, 2), dtype=np.int64), 16, 4)


class TestEvaluate:
    def test_empty_traffic(self):
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        res = model.evaluate(TrafficMatrix.from_flows(np.empty((0, 3)), 16, 4))
        assert res.drain_cycles == 0
        assert res.total_flits == 0

    def test_hops_match_manhattan(self):
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        res = model.evaluate(_traffic([[0, 15, 16]], k=4))
        assert res.avg_hops == pytest.approx(6.0)

    def test_flit_hops(self):
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        res = model.evaluate(_traffic([[0, 3, 64]], k=4))  # 4 flits, 3 hops
        assert res.total_flit_hops == 12

    def test_bypass_reduces_hops(self):
        topo = FlexibleMeshTopology(8)
        topo.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        model = AnalyticalNoCModel(topo)
        res = model.evaluate(_traffic([[0, 7, 64]], k=8))
        assert res.avg_hops == pytest.approx(1.0)
        assert res.bypass_flit_hops == 4

    def test_drain_monotone_in_volume(self):
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        small = model.evaluate(_traffic([[0, 15, 256]], k=4))
        large = model.evaluate(_traffic([[0, 15, 4096]], k=4))
        assert large.drain_cycles > small.drain_cycles

    def test_hotspot_dominates_drain(self):
        """Many sources converging on one node bound the drain by ejection."""
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        flows = [[s, 5, 160] for s in range(16) if s != 5]
        res = model.evaluate(_traffic(flows, k=4))
        assert res.max_ejection_load == 150  # 15 sources x 10 flits
        assert res.drain_cycles >= 150

    def test_boost_nodes_relieve_ejection(self):
        topo = FlexibleMeshTopology(4)
        model = AnalyticalNoCModel(topo)
        flows = [[s, 5, 160] for s in range(16) if s != 5]
        plain = model.evaluate(_traffic(flows, k=4))
        boosted = model.evaluate(
            _traffic(flows, k=4), boost_nodes=(5,), boost_factor=3.0
        )
        assert boosted.max_ejection_load == pytest.approx(
            plain.max_ejection_load / 3, abs=1
        )

    def test_explicit_eject_loads(self):
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        eject = np.zeros(16, dtype=np.int64)
        eject[5] = 999
        res = model.evaluate(_traffic([[0, 5, 16]], k=4), eject_flits=eject)
        assert res.max_ejection_load == 999
        assert res.drain_cycles >= 999

    def test_explicit_inject_loads(self):
        model = AnalyticalNoCModel(FlexibleMeshTopology(4))
        inject = np.zeros(16, dtype=np.int64)
        inject[0] = 500
        res = model.evaluate(_traffic([[0, 5, 16]], k=4), inject_flits=inject)
        assert res.drain_cycles >= 500


class TestAgreementWithFlitSim:
    """The counting model should track the cycle simulator within ~2x on
    matched traffic — it is the calibrated fast path of the same NoC."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_traffic_agreement(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        flows = []
        sim = NoCSimulator(FlexibleMeshTopology(k))
        for _ in range(30):
            src = int(rng.integers(0, k * k))
            dst = int(rng.integers(0, k * k))
            if src == dst:
                continue
            nbytes = int(rng.integers(16, 128))
            flows.append([src, dst, nbytes])
            sim.inject(src, dst, nbytes)
        measured = sim.run().cycles
        model = AnalyticalNoCModel(FlexibleMeshTopology(k))
        predicted = model.evaluate(_traffic(flows, k=k)).drain_cycles
        assert predicted == pytest.approx(measured, rel=1.0)
        assert predicted > measured / 4

    def test_single_flow_agreement(self):
        k = 8
        sim = NoCSimulator(FlexibleMeshTopology(k))
        sim.inject(0, k * k - 1, 256)
        measured = sim.run().cycles
        model = AnalyticalNoCModel(FlexibleMeshTopology(k))
        predicted = model.evaluate(_traffic([[0, k * k - 1, 256]], k=k)).drain_cycles
        assert predicted == pytest.approx(measured, rel=0.8)


class TestTierAgreement:
    """The analytical model counts hops by the rule the flit tier routes by."""

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_analytical_hops_match_routes(self, seed):
        topo, _ = _random_configuration(seed)
        k, n = topo.k, topo.num_nodes
        pairs = [
            (src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst
            and (topo.ring_for(src) is None or topo.ring_for(src) != topo.ring_for(dst))
        ]
        routes = compute_routes(topo, pairs)
        crosses = [
            any(topo.manhattan(a, b) > 1 for a, b in zip(route, route[1:]))
            for route in routes
        ]
        src, dst = np.array(pairs).T
        hops, seg, _ = bypass_choice(topo, src % k, src // k, dst % k, dst // k)
        assert hops.tolist() == [len(route) - 1 for route in routes]
        assert (seg >= 0).tolist() == crosses
        flows = np.column_stack([src, dst, np.full(src.size, 16)])
        result = AnalyticalNoCModel(topo).evaluate(
            TrafficMatrix.from_flows(flows, 16, k)
        )
        assert result.total_flit_hops == int(hops.sum())
        assert result.bypass_flit_hops == sum(crosses)


def _link_loads_reference(traffic, k, boost_nodes, boost_factor, eject_flits):
    """Difference arrays filled with ``np.add.at`` / ``np.subtract.at``:
    the link-load count written out flow by flow."""
    sx, sy, dx, dy, fl = (
        traffic.src_x,
        traffic.src_y,
        traffic.dst_x,
        traffic.dst_y,
        traffic.flits,
    )
    loads = []
    for line, a, b in ((sy, sx, dx), (dx, sy, dy)):
        diff = np.zeros((k, k), dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        cross = hi > lo
        np.add.at(diff, (line[cross], lo[cross]), fl[cross])
        np.subtract.at(diff, (line[cross], hi[cross]), fl[cross])
        loads.append(np.cumsum(diff, axis=1)[:, : k - 1])
    eject = np.zeros(k * k, dtype=np.float64)
    if eject_flits is None:
        np.add.at(eject, dy * k + dx, fl)
    else:
        eject += eject_flits
    if boost_nodes:
        eject[np.asarray(boost_nodes)] /= max(boost_factor, 1.0)
    max_link = int(max(loads[0].max(initial=0), loads[1].max(initial=0)))
    return max_link, int(eject.max(initial=0.0))


class TestLinkLoads:
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_bincount_loads_match_add_at_reference(self, k, seed):
        rng = np.random.default_rng(seed * 100 + k)
        n = int(rng.integers(1, 6 * k * k))
        src = rng.integers(0, k * k, n)
        dst = rng.integers(0, k * k, n)
        # Heavy flows too: sums stay exact far above int32.
        nbytes = rng.integers(1, 2**40 if seed == 3 else 4096, n)
        traffic = _traffic(np.column_stack([src, dst, nbytes]), k)
        model = AnalyticalNoCModel(FlexibleMeshTopology(k))
        boost = tuple(
            int(b) for b in rng.choice(k * k, int(rng.integers(0, 4)), False)
        )
        given_eject = rng.integers(0, 5000, k * k)
        for boost_nodes in ((), boost):
            for eject in (None, given_eject):
                for factor in (0.5, 3.0, 4.5):
                    assert model._link_loads(
                        traffic, boost_nodes, factor, eject
                    ) == _link_loads_reference(
                        traffic, k, boost_nodes, factor, eject
                    )

    def test_single_row_and_column_traffic(self):
        k = 4
        traffic = _traffic([[0, 3, 64], [3, 0, 32], [1, 13, 16], [5, 5, 16]], k)
        model = AnalyticalNoCModel(FlexibleMeshTopology(k))
        assert model._link_loads(traffic) == _link_loads_reference(
            traffic, k, (), 3.0, None
        )
