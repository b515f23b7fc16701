"""The flight recorder's event sink (DESIGN.md §9.1).

Events are plain tuples ``(ph, ts, dur, name, cat, tid, args)`` — the
Chrome ``trace_event`` phase letter, virtual-clock timestamp and
duration in seconds, event name, category, logical thread id and an
args dict (or None).  The sink only stores them; the exporter in
:mod:`repro.obs.export` turns them into a Perfetto-loadable file.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator


class RingSink:
    """A bounded in-memory ring: keeps the most recent *capacity* events.

    Older events are evicted silently by the deque itself — ``append``
    is its bound C method, with no Python frame per event — so the
    ring cannot count them; :attr:`Tracer.dropped` derives the number
    from its own emitted-events count when the trace is read.
    """

    def __init__(self, capacity: int = 200_000):
        self._ring: deque = deque(maxlen=capacity)
        self.append = self._ring.append  # bound once: called per event
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> Iterator[tuple]:
        return iter(self._ring)
