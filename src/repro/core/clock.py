"""Virtual clock shared by all simulated components.

In the paper's methodology the workload is single-threaded (one user
thread precisely to avoid concurrency effects, §3.2): synchronous work
(user-visible latency) advances the clock inline, and background device
work merely extends the device's busy horizon beyond the current time.

The discrete-event subsystem (DESIGN.md §4) generalizes this without
changing the inline semantics: while a scheduler runs an event the
clock is in *capture* mode — ``advance`` moves a step-local time
instead of global time, so a key-value operation executed inside one
client's event observes a locally consistent ``now`` while events of
other clients remain pending at earlier global times.  The clock only
holds the three capture fields; entering and leaving capture mode is
``Scheduler.run``'s job (the one place that writes ``_capturing``), and
the scheduler turns the captured step time into the completion time of
the step's follow-up event.  Outside of capture mode (the seed's inline
path) the step time tracks global time and behaviour is unchanged.

The step-local time is an *absolute* float that accumulates advances
exactly like the inline path accumulates them into global time
(``t += dt`` per advance, never ``t + (dt1 + dt2)``), so a sequence of
operations executed inside one event step produces bit-identical
timestamps to the same sequence executed inline — the arithmetic
foundation of the batched client pool's equivalence contract
(DESIGN.md §7).
"""

from __future__ import annotations

from repro.errors import ConfigError


class VirtualClock:
    """A monotonically increasing virtual clock measured in seconds."""

    def __init__(self):
        self._now = 0.0
        self._step_now = self._now  # absolute step-local time in capture mode
        self._capturing = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._step_now if self._capturing else self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by *dt* seconds and return the new time."""
        if dt < 0:
            raise ConfigError(f"cannot advance clock by negative dt {dt!r}")
        if self._capturing:
            self._step_now += dt
        else:
            self._now += dt
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.6f})"
