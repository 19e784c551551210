"""Unit tests for the hardware configuration."""

import pytest

from repro.config import (
    AcceleratorConfig,
    DRAMConfig,
    NoCConfig,
    default_config,
    small_config,
)


class TestDefaults:
    def test_paper_configuration(self):
        cfg = default_config()
        assert cfg.array_k == 32
        assert cfg.num_pes == 1024
        assert cfg.frequency_hz == 700e6
        assert cfg.pe_buffer_bytes == 100 * 1024

    def test_onchip_capacity_about_100mb(self):
        cfg = default_config()
        assert cfg.onchip_bytes == 1024 * 100 * 1024  # 100 MiB

    def test_reconfiguration_cycles(self):
        assert default_config().reconfiguration_cycles == 63  # 2*32-1
        assert small_config(8).reconfiguration_cycles == 15

    def test_peak_flops(self):
        cfg = default_config()
        assert cfg.peak_flops == 1024 * 32 * 700e6

    def test_total_multipliers(self):
        assert default_config().total_multipliers == 1024 * 16


class TestValidation:
    def test_array_k(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(array_k=1)

    def test_frequency(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(frequency_hz=0)

    def test_buffer_floor(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(pe_buffer_bytes=512)

    def test_precision(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(bytes_per_value=2)

    def test_noc_validation(self):
        with pytest.raises(ValueError):
            NoCConfig(flit_bytes=0)
        with pytest.raises(ValueError):
            NoCConfig(vc_depth=0)
        with pytest.raises(ValueError):
            NoCConfig(link_latency=0)
        with pytest.raises(ValueError):
            NoCConfig(bypass_segment_latency=0)
        with pytest.raises(ValueError):
            NoCConfig(bypass_links_per_row=-1)
        with pytest.raises(ValueError):
            NoCConfig(bypass_links_per_col=-1)
        NoCConfig(bypass_links_per_row=0, bypass_links_per_col=0)

    def test_dram_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(bandwidth_bytes_per_sec=0)
        with pytest.raises(ValueError):
            DRAMConfig(row_buffer_bytes=32, burst_bytes=64)


class TestHelpers:
    def test_cycle_time_roundtrip(self):
        cfg = default_config()
        assert cfg.seconds_to_cycles(cfg.cycles_to_seconds(1234)) == pytest.approx(
            1234
        )

    def test_scaled_copy(self):
        cfg = default_config().scaled(array_k=16)
        assert cfg.array_k == 16
        assert cfg.frequency_hz == 700e6  # untouched fields preserved
        assert default_config().array_k == 32  # original immutable

    def test_small_config(self):
        cfg = small_config(8)
        assert cfg.num_pes == 64
