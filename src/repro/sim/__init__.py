"""Deterministic discrete-event simulation core (DESIGN.md §4).

The subsystem generalizes the single-threaded virtual-clock loop into
an event-driven scheduler so that many concurrent clients, open-loop
arrivals and their per-shard servers can share one timeline:
:mod:`repro.sim.scheduler` holds the event heap (keyed on ``(time,
seq)``) and cooperative generator tasks.

The tasks that drive a measured phase — closed-loop clients, whose lone
client is the paper's single user thread, or open-loop arrivals — are
:class:`repro.fleet.pool.FleetPool`'s.
"""

from repro.sim.scheduler import Scheduler, Task

__all__ = [
    "Scheduler",
    "Task",
]
