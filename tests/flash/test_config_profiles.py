"""Tests for SSDConfig validation and the SSD1/SSD2/SSD3 profiles."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.flash.config import SSDConfig
from repro.flash.profiles import (
    PROFILES,
    SSD1_ENTERPRISE,
    SSD2_CONSUMER,
    SSD3_OPTANE,
    get_profile,
    scale_profile,
)
from repro.units import MIB


class TestConfigValidation:
    def test_negative_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SSDConfig(nblocks=0)
        with pytest.raises(ConfigError):
            SSDConfig(page_size=-1)

    def test_overprovision_bounds(self):
        with pytest.raises(ConfigError):
            SSDConfig(hw_overprovision=1.0)
        with pytest.raises(ConfigError):
            SSDConfig(hw_overprovision=-0.1)

    def test_watermark_ordering(self):
        with pytest.raises(ConfigError):
            SSDConfig(gc_low_watermark=0.2, gc_high_watermark=0.1)

    def test_channels_and_latencies(self):
        with pytest.raises(ConfigError):
            SSDConfig(channels=0)
        with pytest.raises(ConfigError):  # NaN passes `x < 0`
            SSDConfig(program_time=math.nan)

    def test_logical_capacity_excludes_op(self):
        config = SSDConfig(nblocks=100, pages_per_block=100, hw_overprovision=0.25)
        assert config.total_pages == 10_000
        assert config.logical_pages == 8_000
        assert config.logical_bytes == 8_000 * config.page_size

    def test_sustained_rate_positive(self):
        config = SSDConfig()
        assert config.sustained_program_rate > 0
        assert config.cache_drain_window > 0


class TestProfiles:
    def test_three_profiles_exist(self):
        assert set(PROFILES) == {"ssd1", "ssd2", "ssd3"}

    def test_nominal_capacities_match(self):
        for profile in (SSD1_ENTERPRISE, SSD2_CONSUMER, SSD3_OPTANE):
            assert profile.logical_bytes == pytest.approx(400 * MIB, rel=0.02)

    def test_architectural_contrasts(self):
        """The contrasts §4.7 relies on must hold structurally."""
        # SSD2 has the big cache but the slow flash.
        assert SSD2_CONSUMER.write_cache_bytes > 4 * SSD1_ENTERPRISE.write_cache_bytes
        assert SSD2_CONSUMER.sustained_program_rate < SSD1_ENTERPRISE.sustained_program_rate
        # SSD3 is the low-latency, GC-free device.
        assert SSD3_OPTANE.byte_addressable
        assert SSD3_OPTANE.read_latency < SSD2_CONSUMER.read_latency
        assert SSD3_OPTANE.read_latency < SSD1_ENTERPRISE.read_latency
        # SSD1 is the enterprise drive: most hardware OP.
        assert SSD1_ENTERPRISE.hw_overprovision > SSD2_CONSUMER.hw_overprovision

    def test_get_profile_unknown(self):
        with pytest.raises(ConfigError):
            get_profile("ssd9")

    def test_scale_preserves_op_ratio(self):
        scaled = scale_profile(SSD1_ENTERPRISE, 128 * MIB)
        assert scaled.logical_bytes == pytest.approx(128 * MIB, rel=0.05)
        assert scaled.hw_overprovision == pytest.approx(
            SSD1_ENTERPRISE.hw_overprovision, abs=0.02
        )

    def test_scale_enforces_minimum_spare(self):
        """Tiny devices still need the FTL's minimum spare blocks."""
        scaled = scale_profile(SSD2_CONSUMER, 8 * MIB)
        spare = (scaled.total_pages - scaled.logical_pages) // scaled.pages_per_block
        assert spare >= 5

    def test_scale_shrinks_cache_proportionally(self):
        scaled = scale_profile(SSD2_CONSUMER, 40 * MIB)
        ratio_original = SSD2_CONSUMER.write_cache_bytes / SSD2_CONSUMER.logical_bytes
        ratio_scaled = scaled.write_cache_bytes / scaled.logical_bytes
        assert ratio_scaled == pytest.approx(ratio_original, rel=0.2)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            scale_profile(SSD1_ENTERPRISE, 0)
