"""Property tests: the event-driven NoC engine is bit-identical to the
retained reference simulator, and failed drains raise the structured
:class:`NoCDeadlockError`.

The reference (``repro.arch.noc._reference``) is a verbatim copy of the
original per-cycle object-graph simulator; the rebuilt engine in
``network.py`` must reproduce its cycle counts and stats exactly across
random topologies, bypass/ring configurations, VC shapes, packet sizes,
and interleaved inject/step traffic.
"""

import random

import pytest

from repro.arch.noc import NoCDeadlockError, NoCSimulator
from repro.arch.noc._reference import ReferenceNoCSimulator
from repro.arch.noc.topology import BypassSegment, FlexibleMeshTopology, RingConfig
from repro.config import NoCConfig

#: The production flit engine, pinned bit-identical to the reference.
ENGINES = [pytest.param(NoCSimulator, id="event")]


def _random_topology(rng: random.Random) -> FlexibleMeshTopology:
    k = rng.choice([3, 4, 5])
    topo = FlexibleMeshTopology(k)
    if rng.random() < 0.5 and k >= 4:
        topo.add_ring_region(
            RingConfig(0, 0, rng.randint(2, k), rng.randint(2, k))
        )
    return topo


class TestEventEngineEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(30))
    def test_stats_identical_to_reference(self, seed, engine):
        """Random topologies + interleaved traffic: full-stats identity."""
        rng = random.Random(seed)
        topo = _random_topology(rng)
        n = topo.num_nodes
        cfg = NoCConfig(
            vcs_per_port=rng.choice([1, 2]), vc_depth=rng.choice([2, 4])
        )
        event = engine(topo, cfg)
        reference = ReferenceNoCSimulator(topo, cfg)
        for _ in range(rng.randint(1, 4)):
            for _ in range(rng.randint(0, 15)):
                src, dst = rng.randrange(n), rng.randrange(n)
                size = rng.randint(1, 300)
                bypass = rng.random() < 0.8
                future = rng.choice([None, event.cycle + rng.randint(1, 30)])
                event.inject(src, dst, size, cycle=future, allow_bypass=bypass)
                reference.inject(
                    src, dst, size, cycle=future, allow_bypass=bypass
                )
            for _ in range(rng.randint(0, 20)):
                event.step()
                reference.step()
            # Mid-run drain accounting must agree too (the event engine
            # replaced the reference's dict scan with O(1) counters).
            assert event.undelivered() == reference.undelivered()
            assert event.all_delivered() == reference.all_delivered()
        assert event.run(max_cycles=100_000) == reference.run(max_cycles=100_000)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_idle_fast_forward_matches_spin(self, engine):
        """A lone far packet spends most cycles mid-link; the jump in
        run() must land on exactly the reference's cycle count."""
        topo = FlexibleMeshTopology(8)
        event = engine(topo)
        reference = ReferenceNoCSimulator(topo)
        event.inject(0, 63, 64)
        reference.inject(0, 63, 64)
        # Future injections keep the network idle for long stretches.
        event.inject(63, 0, 32, cycle=500)
        reference.inject(63, 0, 32, cycle=500)
        assert event.run() == reference.run()
        assert event.cycle == reference.cycle

    @pytest.mark.parametrize("engine", ENGINES)
    def test_refresh_configuration_mid_run(self, engine):
        """Adding a ring region mid-run re-routes new packets only."""
        topo_a = FlexibleMeshTopology(4)
        topo_b = FlexibleMeshTopology(4)
        event = engine(topo_a)
        reference = ReferenceNoCSimulator(topo_b)
        for sim in (event, reference):
            sim.inject(0, 15, 96)
        for _ in range(5):
            event.step()
            reference.step()
        topo_a.add_ring_region(RingConfig(0, 0, 2, 2))
        topo_b.add_ring_region(RingConfig(0, 0, 2, 2))
        event.refresh_configuration()
        reference.refresh_configuration()
        for sim in (event, reference):
            sim.inject(5, 10, 64)
        assert event.run() == reference.run()


class TestRouteState:
    def test_route_does_not_depend_on_process_history(self):
        """A simulator whose topology gains a segment after construction
        (no ``refresh_configuration``) routes over it, as the reference
        does, even after another simulator routed the same pair on the
        plain mesh."""
        plain = NoCSimulator(FlexibleMeshTopology(8))
        plain.inject(0, 7, 64)
        plain.run()
        topo = FlexibleMeshTopology(8)
        event = NoCSimulator(topo)
        reference = ReferenceNoCSimulator(topo)
        topo.add_bypass_segment(BypassSegment("row", 0, 0, 7))
        for sim in (event, reference):
            sim.inject(0, 7, 64)
        assert event.run() == reference.run()
        assert event.cycle == reference.cycle == 7


class TestDeadlockRegression:
    def _wedged_simulator(self, engine=NoCSimulator) -> NoCSimulator:
        # Mis-segmented on purpose: a ring region spanning the top half
        # with single-VC, single-slot buffers, and circular half-way
        # traffic — every buffer in the cycle fills with flits that are
        # at least two hops from ejecting, so nothing can ever move.
        topo = FlexibleMeshTopology(4)
        topo.add_ring_region(RingConfig(0, 0, 4, 2))
        sim = engine(topo, NoCConfig(vcs_per_port=1, vc_depth=1))
        ring = [0, 1, 2, 3, 7, 6, 5, 4]
        for i, src in enumerate(ring):
            dst = ring[(i + 4) % 8]
            for _ in range(6):
                sim.inject(src, dst, 128)
        return sim

    @pytest.mark.parametrize("engine", ENGINES)
    def test_structured_error_fields(self, engine):
        sim = self._wedged_simulator(engine)
        with pytest.raises(NoCDeadlockError, match="did not drain") as info:
            sim.run(max_cycles=5_000)
        err = info.value
        assert err.cycle == 5_000
        assert err.outstanding_packets == 48
        # Every ring router is wedged with a non-empty queue.
        assert set(err.queue_depths) == set(range(8))
        assert all(depth > 0 for depth in err.queue_depths.values())

    def test_is_a_runtime_error(self):
        """Existing ``except RuntimeError`` call sites keep working."""
        sim = self._wedged_simulator()
        with pytest.raises(RuntimeError, match="did not drain"):
            sim.run(max_cycles=2_000)
