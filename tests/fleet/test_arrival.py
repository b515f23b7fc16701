"""Arrival-process reproducibility and rate fidelity (DESIGN.md §10.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core.experiment import ExperimentSpec
from repro.errors import ConfigError
from repro.fleet import ARRIVALS, make_arrival, validate_arrival
from repro.fleet.arrival import BurstyArrival, DiurnalArrival

NAMES = ("poisson", "diurnal", "bursty")


def gaps(name: str, rate: float, seed: int, n: int) -> list[float]:
    arrival = make_arrival(name, rate, rng_mod.substream(seed, "arrival"))
    return [arrival.next_gap() for _ in range(n)]


class TestReproducibility:
    """Streams are a pure function of (process, rate, seed).

    Open-loop runs replace the closed-loop client RNG as the thing
    that decides *when* ops happen, so the same determinism contract
    applies: same seed, same traffic, bit for bit.
    """

    @pytest.mark.parametrize("name", NAMES)
    def test_same_seed_reproduces_exactly(self, name):
        assert gaps(name, 500.0, 7, 2000) == gaps(name, 500.0, 7, 2000)

    @pytest.mark.parametrize("name", NAMES)
    def test_different_seed_differs(self, name):
        assert gaps(name, 500.0, 7, 100) != gaps(name, 500.0, 8, 100)

    @pytest.mark.parametrize("name", NAMES)
    def test_gaps_are_positive_finite(self, name):
        stream = np.array(gaps(name, 500.0, 7, 2000))
        assert np.all(stream >= 0.0)
        assert np.all(np.isfinite(stream))


class TestRateFidelity:
    @pytest.mark.parametrize("name,options", (
        ("poisson", {}),
        ("diurnal", {}),
        # Short windows so 20k arrivals span ~500 on/off cycles; with
        # the shipped 0.25 s windows the estimator's variance is
        # dominated by a few dozen windows and says nothing.
        ("bursty", {"ON_SECONDS": 0.02, "OFF_SECONDS": 0.02}),
    ))
    def test_long_run_mean_rate(self, name, options, monkeypatch):
        # 20k arrivals: the empirical rate converges to the configured
        # mean for all three processes (diurnal and bursty modulate
        # around it but must preserve it).
        # *options* patch the shape constants of the process's class.
        for constant, value in options.items():
            monkeypatch.setattr(ARRIVALS[name], constant, value)
        stream = gaps(name, 1000.0, 3, 20_000)
        measured = len(stream) / sum(stream)
        assert measured == pytest.approx(1000.0, rel=0.10)


class TestValidation:
    def test_unknown_process(self):
        with pytest.raises(ConfigError, match="unknown arrival"):
            validate_arrival("pareto", 100.0)

    def test_rate_must_be_positive(self):
        for bad in (0.0, -5.0):
            with pytest.raises(ConfigError, match="rate must be > 0"):
                validate_arrival("poisson", bad)

    def test_unknown_option(self):
        with pytest.raises(TypeError):
            make_arrival("poisson", 100.0, np.random.default_rng(0),
                         no_such_option=1)
        # A stored spec that sets shape options is refused, not run on
        # the fixed shapes.
        with pytest.raises(ConfigError, match="arrival_options"):
            ExperimentSpec.from_dict({**ExperimentSpec().to_dict(),
                                      "arrival_options": {"amplitude": 0.9}})

    def test_diurnal_amplitude_bounds(self):
        # Intensity rate * (1 + AMPLITUDE * sin) stays non-negative and
        # the thinning peak finite: AMPLITUDE in [0, 1], PERIOD > 0.
        assert 0.0 <= DiurnalArrival.AMPLITUDE <= 1.0
        assert 0.0 < DiurnalArrival.PERIOD < math.inf

    def test_bursty_window_bounds(self):
        # The on-rate divides by ON_SECONDS; OFF_SECONDS may be zero.
        assert 0.0 < BurstyArrival.ON_SECONDS < math.inf
        assert 0.0 <= BurstyArrival.OFF_SECONDS < math.inf
