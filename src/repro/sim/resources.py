"""A one-token resource with a FIFO wait queue (DESIGN.md §4.1).

A :class:`Resource` models a contended facility — the LSM engine's
background worker — as one token.  Tasks acquire it by yielding a
request::

    def job(resource):
        yield resource.request()
        try:
            ...  # hold the token
            yield 0.010
        finally:
            resource.release()

Grants are strictly FIFO: requests queue in arrival order (which, under
the deterministic scheduler, is itself reproducible), so two runs with
the same seed see identical wait orders.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.sim.scheduler import Scheduler, Task


class Request:
    """A pending acquisition; yielded by a task, granted by the resource."""

    __slots__ = ("resource", "task")

    def __init__(self, resource: "Resource"):
        self.resource = resource
        self.task: Task | None = None

    def _enqueue(self, task: Task) -> None:
        """Called by the scheduler when a task yields this request."""
        self.task = task
        self.resource._admit(self)


class Resource:
    """One token handed to waiting tasks in FIFO order."""

    def __init__(self, scheduler: Scheduler, name: str = "resource"):
        self.scheduler = scheduler
        self.name = name
        self.held = False
        self._waiting: deque[Request] = deque()

    def request(self) -> Request:
        """A yieldable acquisition request for the token."""
        return Request(self)

    def release(self) -> None:
        """Return the token; the oldest waiter (if any) is granted next."""
        if not self.held:
            raise ConfigError(f"release of idle resource {self.name!r}")
        self.held = False
        self._grant_next()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, request: Request) -> None:
        self._waiting.append(request)
        self._grant_next()

    def _grant_next(self) -> None:
        if self._waiting and not self.held:
            granted = self._waiting.popleft()
            self.held = True
            self.scheduler.schedule(
                0.0, granted.task._step, label=f"{self.name}-grant"
            )
