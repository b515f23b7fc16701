"""Virtual clock shared by all simulated components.

In the paper's methodology the workload is single-threaded (one user
thread precisely to avoid concurrency effects, §3.2): synchronous work
(user-visible latency) advances the clock inline, and background device
work merely extends the device's busy horizon beyond the current time.

The clock is one float, ``now``, and :meth:`VirtualClock.advance`.
The discrete-event scheduler (DESIGN.md §4.1) owns global time: it
keeps it in a local of ``Scheduler.run``, sets ``now`` to an event's
time before the event runs and puts it back afterwards, so a key-value
operation executed inside one client's event advances ``now`` from its
own start while events of other clients stay pending at earlier global
times.  What an event step advanced to is the completion time of the
step's follow-up event.

Advances accumulate (``t += dt`` per advance, never ``t + (dt1 +
dt2)``), so a sequence of operations produces the same timestamps
whether it runs inside one event step or one event per operation —
the arithmetic foundation of the batched client pool's equivalence
contract (DESIGN.md §7).
"""

from __future__ import annotations

from repro.errors import ConfigError


class VirtualClock:
    """A monotonically increasing virtual clock measured in seconds."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> float:
        """Advance the clock by *dt* seconds and return the new time."""
        if dt < 0:
            raise ConfigError(f"cannot advance clock by negative dt {dt!r}")
        self.now += dt
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.6f})"
