"""Tests for CUSUM and steady-state detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import Sample
from repro.core.steady_state import (
    cusum,
    series_is_steady,
    steady_start_index,
    summarize,
    three_times_capacity_rule,
)
from repro.errors import ConfigError


def make_sample(t, tput, wa_a=10.0, wa_d=1.5, **kw):
    defaults = dict(
        ops=int(t * tput), kv_tput=tput, dev_write_mbps=100.0, dev_read_mbps=50.0,
        wa_a=wa_a, wa_d=wa_d, wa_d_window=wa_d, space_amp=1.2,
        disk_utilization=0.6, host_bytes_cum=int(t * 1e8),
    )
    defaults.update(kw)
    return Sample(t=t, **defaults)


class TestCusum:
    def test_flat_series_no_alarm(self):
        assert cusum([5.0] * 100) == []

    def test_step_change_detected(self):
        series = [10.0] * 50 + [20.0] * 50
        assert cusum(series)

    def test_noisy_step_always_detected(self):
        detected = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            series = np.concatenate(
                [10 + rng.normal(0, 0.5, 20), 13 + rng.normal(0, 0.5, 20)]
            )
            detected += bool(cusum(series))
        assert detected == 50

    def test_noise_alone_rarely_alarms(self):
        false_alarms = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            false_alarms += bool(cusum(10 + rng.normal(0, 1, 100)))
        assert false_alarms <= 3  # ~1% expected at h=7

    def test_drift_detected(self):
        series = np.linspace(10, 20, 100)
        assert cusum(series)

    def test_empty(self):
        assert cusum([]) == []


class TestSeriesIsSteady:
    def test_constant(self):
        assert series_is_steady([3.0] * 20)

    def test_small_relative_band(self):
        assert series_is_steady([100.0, 101.0, 99.5] * 10)

    def test_trend_not_steady(self):
        assert not series_is_steady(list(np.linspace(1, 10, 50)))


class TestSteadyStartIndex:
    def test_detects_transition(self):
        samples = [make_sample(t=i * 0.25, tput=11_000 - 500 * min(i, 14))
                   for i in range(40)]
        start = steady_start_index(samples)
        assert start is not None
        assert 8 <= start <= 25

    def test_none_when_never_steady(self):
        samples = [make_sample(t=i * 0.25, tput=1000 * 1.2**i) for i in range(20)]
        assert steady_start_index(samples) is None

    def test_none_when_too_short(self):
        samples = [make_sample(t=i, tput=100) for i in range(4)]
        assert steady_start_index(samples) is None


class TestRuleOfThumb:
    def test_three_times_capacity(self):
        assert three_times_capacity_rule(300, 100)
        assert not three_times_capacity_rule(299, 100)
        with pytest.raises(ConfigError):
            three_times_capacity_rule(100, 0)


class TestSummarize:
    def test_uses_steady_suffix(self):
        samples = [make_sample(t=i * 0.25, tput=11_000 - 500 * min(i, 14))
                   for i in range(40)]
        summary = summarize(samples)
        assert summary.detected
        assert summary.kv_tput == pytest.approx(4000, rel=0.15)

    def test_falls_back_to_tail(self):
        samples = [make_sample(t=i * 0.25, tput=1000 * 1.1**i) for i in range(20)]
        summary = summarize(samples)
        assert not summary.detected
        assert summary.start_index == 14

    def test_cumulative_ratios_use_last_value(self):
        samples = [make_sample(t=i, tput=100, wa_a=5 + i * 0.1) for i in range(20)]
        summary = summarize(samples)
        assert summary.wa_a == samples[-1].wa_a

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])
