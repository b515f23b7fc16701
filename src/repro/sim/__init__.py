"""Deterministic discrete-event simulation core (DESIGN.md §4).

The subsystem generalizes the single-threaded virtual-clock loop into
an event-driven scheduler so that many concurrent clients, background
engine work and per-channel device service can share one timeline:

* :mod:`repro.sim.scheduler` — the event heap (keyed on ``(time,
  seq)``) and cooperative generator tasks;
* :mod:`repro.sim.resources` — a one-token resource with a FIFO wait
  queue (the LSM engine's background worker);
* :mod:`repro.sim.clients` — the closed-loop workload driver
  (:class:`~repro.sim.clients.ClientPool`), whose lone client is the
  paper's single user thread.
"""

from repro.sim.clients import ClientPool
from repro.sim.resources import Resource
from repro.sim.scheduler import Scheduler, Task

__all__ = [
    "ClientPool",
    "Resource",
    "Scheduler",
    "Task",
]
