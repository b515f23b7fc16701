"""Event sinks for the flight recorder (DESIGN.md §9.1).

Events are plain tuples ``(ph, ts, dur, name, cat, tid, args)`` — the
Chrome ``trace_event`` phase letter, virtual-clock timestamp and
duration in seconds, event name, category, logical thread id and an
args dict (or None).  Sinks only store them; the exporter in
:mod:`repro.obs.export` turns them into a Perfetto-loadable file.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator


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

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams events to disk, one compact JSON array per line.

    For runs whose trace would not fit a ring: nothing is retained in
    memory, and :func:`read_jsonl_events` loads the file back into the
    same tuple shape the exporter consumes.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.count = 0

    def append(self, event: tuple) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":")))
        self._fh.write("\n")
        self.count += 1

    def __len__(self) -> int:
        return self.count

    def events(self) -> Iterator[tuple]:
        self._fh.flush()
        return read_jsonl_events(self.path)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_jsonl_events(path: str) -> Iterator[tuple]:
    """Yield events from a :class:`JsonlSink` file as tuples."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield tuple(json.loads(line))
