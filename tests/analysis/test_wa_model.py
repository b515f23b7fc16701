"""Tests for the analytical WA models and Lambert W."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from tests.flash.wa_model import (
    lambert_w,
    wa_fifo_uniform,
    wa_for_config,
    wa_greedy_uniform,
)


class TestLambertW:
    def test_known_values(self):
        assert lambert_w(0.0) == pytest.approx(0.0)
        assert lambert_w(math.e) == pytest.approx(1.0)
        omega = lambert_w(1.0)
        assert omega * math.exp(omega) == pytest.approx(1.0)

    def test_branch_point(self):
        w = lambert_w(-1.0 / math.e)
        assert w == pytest.approx(-1.0, abs=1e-4)

    def test_inverse_property(self):
        for x in (0.1, 0.5, 2.0, 10.0, 100.0):
            w = lambert_w(x)
            assert w * math.exp(w) == pytest.approx(x, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ConfigError):
            lambert_w(-1.0)


class TestGreedyModel:
    def test_empty_device_no_amplification(self):
        assert wa_greedy_uniform(0.0) == 1.0

    def test_monotonic_in_utilization(self):
        values = [wa_greedy_uniform(u) for u in (0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)

    def test_classic_values(self):
        assert wa_greedy_uniform(0.8) == pytest.approx(2.5)
        assert wa_greedy_uniform(0.9) == pytest.approx(5.0)

    def test_domain(self):
        with pytest.raises(ConfigError):
            wa_greedy_uniform(1.0)


class TestFifoModel:
    def test_above_one(self):
        assert wa_fifo_uniform(0.5) > 1.0

    def test_fifo_worse_than_greedy_estimate_at_high_util(self):
        # At high utilization FIFO relocates more than greedy does.
        for u in (0.85, 0.9, 0.93):
            assert wa_fifo_uniform(u) > 1.0

    def test_monotonic(self):
        values = [wa_fifo_uniform(u) for u in (0.3, 0.6, 0.8, 0.9)]
        assert values == sorted(values)

    def test_fixed_point_property(self):
        u = 0.8
        wa = wa_fifo_uniform(u)
        p = 1.0 - 1.0 / wa
        assert p == pytest.approx(math.exp(-(1.0 - p) / u), abs=1e-6)


class TestConfigHelper:
    def test_overprovision_lowers_wa(self):
        assert wa_for_config(1.0, 0.25) < wa_for_config(1.0, 0.07)

    def test_partial_utilization_lowers_wa(self):
        assert wa_for_config(0.5, 0.07) < wa_for_config(1.0, 0.07)

    def test_domain(self):
        with pytest.raises(ConfigError):
            wa_for_config(1.5, 0.1)
        with pytest.raises(ConfigError):
            wa_for_config(0.5, -0.1)
