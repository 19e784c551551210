"""Tests for the flit-level NoC simulator."""

import runpy
from pathlib import Path

import pytest

from repro.arch.noc import (
    BypassSegment,
    FlexibleMeshTopology,
    NoCSimulator,
)
from repro.config import NoCConfig


@pytest.fixture
def sim4():
    return NoCSimulator(FlexibleMeshTopology(4))


class TestSinglePacket:
    def test_delivery(self, sim4):
        sim4.inject(0, 15, 16)
        stats = sim4.run()
        assert stats.packets_delivered == 1
        assert stats.flits_delivered == 1

    def test_latency_includes_hops_and_pipeline(self, sim4):
        cfg = sim4.config
        sim4.inject(0, 15, cfg.flit_bytes)
        stats = sim4.run()
        hops = 6  # manhattan distance in a 4x4 mesh corner to corner
        min_latency = hops * (cfg.router_pipeline_stages + cfg.link_latency)
        assert stats.max_packet_latency >= min_latency

    def test_multi_flit_serialisation(self, sim4):
        one = NoCSimulator(FlexibleMeshTopology(4))
        one.inject(0, 3, one.config.flit_bytes)
        lat1 = one.run().max_packet_latency

        many = NoCSimulator(FlexibleMeshTopology(4))
        many.inject(0, 3, 8 * many.config.flit_bytes)
        lat8 = many.run().max_packet_latency
        assert lat8 >= lat1 + 7  # tail flit trails by >= 7 cycles

    def test_local_packet(self, sim4):
        sim4.inject(5, 5, 16)
        stats = sim4.run()
        assert stats.packets_delivered == 1
        assert stats.total_flit_hops == 0  # never left the node

    def test_flit_hops_counted(self, sim4):
        sim4.inject(0, 3, sim4.config.flit_bytes)  # 3 hops along row
        stats = sim4.run()
        assert stats.mesh_flit_hops == 3

    def test_invalid_injection(self, sim4):
        with pytest.raises(ValueError):
            sim4.inject(0, 3, 0)
        sim4.step()
        with pytest.raises(ValueError, match="past"):
            sim4.inject(0, 3, 16, cycle=0)


class TestContention:
    def test_converging_traffic_serialises(self):
        """Two packets to the same destination share its ejection port."""
        solo = NoCSimulator(FlexibleMeshTopology(4))
        solo.inject(0, 5, solo.config.flit_bytes * 4)
        t_solo = solo.run().cycles

        pair = NoCSimulator(FlexibleMeshTopology(4))
        pair.inject(0, 5, pair.config.flit_bytes * 4)
        pair.inject(10, 5, pair.config.flit_bytes * 4)
        t_pair = pair.run().cycles
        assert t_pair > t_solo

    def test_disjoint_traffic_parallel(self):
        """Flows on disjoint rows should not slow each other down much."""
        solo = NoCSimulator(FlexibleMeshTopology(4))
        solo.inject(0, 3, solo.config.flit_bytes * 8)
        t_solo = solo.run().cycles

        pair = NoCSimulator(FlexibleMeshTopology(4))
        pair.inject(0, 3, pair.config.flit_bytes * 8)
        pair.inject(12, 15, pair.config.flit_bytes * 8)
        t_pair = pair.run().cycles
        assert t_pair <= t_solo + 2

    def test_backpressure_counted(self):
        sim = NoCSimulator(
            FlexibleMeshTopology(4), NoCConfig(vcs_per_port=1, vc_depth=1)
        )
        for src in (0, 4, 8, 12):
            sim.inject(src, 3, sim.config.flit_bytes * 16)
        stats = sim.run()
        assert stats.packets_delivered == 4
        assert stats.stall_events > 0

    def test_many_packets_all_delivered(self, rng):
        sim = NoCSimulator(FlexibleMeshTopology(4))
        n = 40
        for i in range(n):
            src = int(rng.integers(0, 16))
            dst = int(rng.integers(0, 16))
            sim.inject(src, dst, int(rng.integers(1, 64)))
        stats = sim.run()
        assert stats.packets_delivered == n


class TestBypassInSim:
    def test_bypass_reduces_latency(self):
        plain = NoCSimulator(FlexibleMeshTopology(8))
        plain.inject(0, 7, plain.config.flit_bytes * 4)
        t_plain = plain.run().max_packet_latency

        topo = FlexibleMeshTopology(8)
        topo.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        fast = NoCSimulator(topo)
        fast.inject(0, 7, fast.config.flit_bytes * 4)
        stats = fast.run()
        assert stats.max_packet_latency < t_plain
        assert stats.bypass_flit_hops > 0

    def test_refresh_configuration(self):
        topo = FlexibleMeshTopology(8)
        sim = NoCSimulator(topo)
        topo.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        sim.refresh_configuration()
        sim.inject(0, 7, sim.config.flit_bytes)
        assert sim.run().bypass_flit_hops == 1


class TestLimits:
    def test_max_cycles_guard(self, sim4):
        sim4.inject(0, 15, 1 << 20)  # enormous packet
        with pytest.raises(RuntimeError, match="did not drain"):
            sim4.run(max_cycles=10)

    def test_undelivered_count(self, sim4):
        sim4.inject(0, 15, 16)
        assert sim4.undelivered() == 1
        sim4.run()
        assert sim4.undelivered() == 0


class TestPlaygroundExample:
    def test_prints_analytical_and_lumped_columns(self, capsys):
        """``examples/noc_playground.py`` runs end to end on both tiers."""
        root = Path(__file__).resolve().parents[1]
        example = root / "examples" / "noc_playground.py"
        runpy.run_path(str(example), run_name="__main__")
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "configuration" in line)
        assert "analytical" in header
        assert "lumped flit" in header
        assert "plain mesh" in out and "mesh + hub bypass" in out
