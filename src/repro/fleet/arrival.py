"""Open-loop arrival processes (DESIGN.md §10.2).

A closed-loop client issues its next op the moment the previous one
completes, so offered load always equals service capacity and overload
is invisible.  An :class:`ArrivalProcess` decouples the two: it emits
inter-arrival gaps in virtual seconds from its own RNG substream,
independent of how the fleet is keeping up — which is what makes the
latency-vs-offered-load and SLO curves measurable.

Every process is a pure function of (rate, RNG stream): re-seeding
reproduces the arrival timeline exactly (pinned by tests).  ``rate``
is the *mean* arrival rate in ops/second for all three processes;
diurnal and bursty reshape the short-term intensity around that mean,
each with a fixed shape (class constants).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError


class ArrivalProcess:
    """Generates successive inter-arrival gaps in virtual seconds."""

    name = "abstract"

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0 < rate < math.inf:
            raise ConfigError("arrival rate must be > 0 and finite")
        self.rate = rate
        self._rng = rng

    def next_gap(self) -> float:
        """Seconds until the next arrival."""
        raise NotImplementedError


class PoissonArrival(ArrivalProcess):
    """Memoryless arrivals: i.i.d. exponential gaps at *rate*."""

    name = "poisson"

    def next_gap(self) -> float:
        return self._rng.exponential(1.0 / self.rate)


class DiurnalArrival(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (a compressed day).

    Intensity ``rate(t) = rate * (1 + AMPLITUDE * sin(2πt/PERIOD))``,
    realized by thinning a Poisson stream at the peak intensity.  The
    process keeps its own arrival-timeline clock, so the stream is
    reproducible from the RNG alone.
    """

    name = "diurnal"
    PERIOD = 4.0      # seconds of one compressed day
    AMPLITUDE = 0.5   # peak-to-mean swing, in [0, 1]

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__(rate, rng)
        self._peak = rate * (1.0 + self.AMPLITUDE)
        self._t = 0.0

    def next_gap(self) -> float:
        start = self._t
        two_pi = 2.0 * math.pi
        while True:
            self._t += self._rng.exponential(1.0 / self._peak)
            intensity = self.rate * (
                1.0 + self.AMPLITUDE * math.sin(two_pi * self._t / self.PERIOD)
            )
            if self._rng.random() * self._peak < intensity:
                return self._t - start


class BurstyArrival(ArrivalProcess):
    """On/off (interrupted Poisson) arrivals.

    Alternates exponentially distributed on-windows (mean
    ``ON_SECONDS``) where arrivals flow at an elevated rate and silent
    off-windows (mean ``OFF_SECONDS``); the on-rate is scaled so the
    long-run mean stays *rate*.  The queue-depth spikes at window
    starts are the point: they expose tail latency a smooth stream at
    the same mean hides.
    """

    name = "bursty"
    ON_SECONDS = 0.25
    OFF_SECONDS = 0.25

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__(rate, rng)
        on, off = self.ON_SECONDS, self.OFF_SECONDS
        self._rate_on = rate * (on + off) / on
        self._remaining_on = rng.exponential(on)

    def next_gap(self) -> float:
        gap = 0.0
        while True:
            step = self._rng.exponential(1.0 / self._rate_on)
            if step <= self._remaining_on:
                self._remaining_on -= step
                return gap + step
            # The on-window ends before the candidate arrival: spend
            # the remainder, sit out one off-window, start a new
            # on-window and redraw.
            gap += self._remaining_on + self._rng.exponential(self.OFF_SECONDS)
            self._remaining_on = self._rng.exponential(self.ON_SECONDS)


ARRIVALS = {
    PoissonArrival.name: PoissonArrival,
    DiurnalArrival.name: DiurnalArrival,
    BurstyArrival.name: BurstyArrival,
}


def make_arrival(name: str, rate: float,
                 rng: np.random.Generator) -> ArrivalProcess:
    """Construct an arrival process by name; fail fast on bad config."""
    if name not in ARRIVALS:
        raise ConfigError(
            f"unknown arrival process {name!r}; "
            f"expected one of {sorted(ARRIVALS)}"
        )
    return ARRIVALS[name](rate, rng)


def validate_arrival(name: str, rate: float) -> None:
    """Spec-time validation: constructs (and discards) the process.

    Uses a throwaway RNG so the rate is checked by the same code path
    that will run, without touching any experiment stream.
    """
    make_arrival(name, rate, np.random.default_rng(0))
