"""Tests for CDF and time-series analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cdf import (
    cdf_knee,
    coverage_fraction,
    write_probability_cdf,
)
from repro.analysis.stats import (
    coefficient_of_variation,
    fraction_below,
    relative_swing,
    windowed_average,
)
from repro.errors import ConfigError


class TestCdf:
    def test_uniform_histogram_is_diagonal(self):
        x, y = write_probability_cdf(np.ones(100))
        assert y[49] == pytest.approx(0.5)
        assert y[-1] == pytest.approx(1.0)

    def test_partial_coverage_saturates_early(self):
        hist = np.zeros(100)
        hist[:55] = 3  # the WiredTiger pattern: 45% never written
        x, y = write_probability_cdf(hist)
        assert y[54] == pytest.approx(1.0)
        assert cdf_knee(hist) == pytest.approx(0.55, abs=0.02)
        assert coverage_fraction(hist) == pytest.approx(0.55)

    def test_empty_histogram(self):
        x, y = write_probability_cdf(np.zeros(10))
        assert y.sum() == 0
        assert coverage_fraction(np.zeros(10)) == 0.0
        assert coverage_fraction(np.zeros(0)) == 0.0

    def test_skewed_histogram_steep_cdf(self):
        hist = np.ones(100)
        hist[0] = 1000
        _x, y = write_probability_cdf(hist)
        assert y[0] > 0.9


class TestStats:
    def test_windowed_average(self):
        times = [0.1, 0.2, 1.1, 1.2, 2.5]
        values = [1, 3, 5, 7, 9]
        t, v = windowed_average(times, values, window=1.0)
        assert list(v) == [2.0, 6.0, 9.0]
        assert list(t) == [0.5, 1.5, 2.5]

    def test_windowed_average_validation(self):
        with pytest.raises(ConfigError):
            windowed_average([1], [1], window=0)

    def test_windowed_average_empty(self):
        t, v = windowed_average([], [], window=1.0)
        assert len(t) == 0

    def test_cv(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([1, 9]) > 0.5
        assert coefficient_of_variation([]) == 0.0

    def test_relative_swing(self):
        assert relative_swing([10, 10]) == 0.0
        assert relative_swing([5, 15]) == pytest.approx(1.0)

    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 2.5) == 0.5
        assert fraction_below([], 1.0) == 0.0
