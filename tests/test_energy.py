"""Unit tests for the energy model."""

import dataclasses

import pytest

from repro.arch import EnergyCounters, EnergyModel, EnergyTable


class TestTable:
    def test_defaults_valid(self):
        EnergyTable()  # must not raise

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyTable(mac_pj=-1)

    def test_horowitz_ordering(self):
        """DRAM >> global buffer > bank buffer > FIFO; MAC > add."""
        t = EnergyTable()
        assert t.dram_pj_per_byte > 10 * t.global_buffer_pj_per_byte
        assert t.global_buffer_pj_per_byte > t.sram_pj_per_byte
        assert t.sram_pj_per_byte > t.reuse_fifo_pj_per_byte
        assert t.mac_pj > t.add_pj


class TestCounters:
    def test_merge_adds(self):
        a = EnergyCounters(mac_ops=5, dram_bytes=100)
        b = EnergyCounters(mac_ops=3, sram_bytes=7)
        c = a.merge(b)
        assert c.mac_ops == 8
        assert c.dram_bytes == 100
        assert c.sram_bytes == 7

    def test_merge_is_the_fieldwise_sum_over_every_field(self):
        fields = [f.name for f in dataclasses.fields(EnergyCounters)]
        a = EnergyCounters(**{n: i + 1 for i, n in enumerate(fields)})
        b = EnergyCounters(**{n: 100 * (i + 1) for i, n in enumerate(fields)})
        merged = a.merge(b)
        for name in fields:
            assert getattr(merged, name) == getattr(a, name) + getattr(b, name)
        assert EnergyCounters.from_dict(merged.as_dict()) == merged
        assert list(merged.as_dict()) == fields

    def test_merge_does_not_mutate(self):
        a = EnergyCounters(mac_ops=5)
        a.merge(EnergyCounters(mac_ops=3))
        assert a.mac_ops == 5


class TestModel:
    def test_zero_counters_zero_energy(self):
        assert EnergyModel().evaluate(EnergyCounters()).total == 0.0

    def test_compute_component(self):
        table = EnergyTable()
        e = EnergyModel(table).evaluate(EnergyCounters(mac_ops=1_000_000))
        assert e.compute == pytest.approx(1_000_000 * table.mac_pj * 1e-12)
        assert e.dram == 0.0

    def test_dram_component(self):
        table = EnergyTable()
        e = EnergyModel(table).evaluate(EnergyCounters(dram_bytes=1_000_000))
        assert e.dram == pytest.approx(1_000_000 * table.dram_pj_per_byte * 1e-12)

    def test_total_is_sum(self):
        c = EnergyCounters(
            mac_ops=10,
            add_ops=20,
            ppu_ops=5,
            sram_bytes=100,
            global_buffer_bytes=50,
            reuse_fifo_bytes=10,
            link_byte_hops=30,
            router_flits=4,
            bypass_bytes=8,
            dram_bytes=1000,
            reconfig_events_pe=2,
            active_cycles=100,
        )
        e = EnergyModel().evaluate(c)
        assert e.total == pytest.approx(
            e.compute + e.sram + e.noc + e.dram + e.control + e.reconfiguration
        )

    def test_as_dict(self):
        d = EnergyModel().evaluate(EnergyCounters(mac_ops=1)).as_dict()
        assert set(d) == {
            "compute",
            "sram",
            "noc",
            "dram",
            "control",
            "reconfiguration",
            "total",
        }

    def test_bypass_cheaper_than_routed(self):
        """Moving a byte over a bypass wire costs less than link+router."""
        t = EnergyTable()
        routed = t.link_pj_per_byte_per_hop
        assert t.bypass_pj_per_byte < routed

    def test_custom_table(self):
        t = EnergyTable(mac_pj=100.0)
        e = EnergyModel(t).evaluate(EnergyCounters(mac_ops=1))
        assert e.compute == pytest.approx(100e-12)
