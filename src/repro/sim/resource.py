"""CSIM-style facilities: FCFS single-server contention points.

A :class:`Facility` models one server with a FIFO grant queue — a
memory module, a directory controller, a node's processor or its
output controller.  ``yield from facility.use(duration)`` is CSIM's
``use``: reserve the server, hold it ``duration`` cycles, release it.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.sim.engine import Event, Simulator, Timeout


class Facility:
    """Single-server facility.

    ``yield from facility.use(duration)`` serializes callers FCFS and
    occupies the server for ``duration`` cycles each.
    """

    __slots__ = ("sim", "name", "_busy", "_waiters")

    def __init__(self, sim: Simulator, name: str = "facility") -> None:
        self.sim = sim
        self.name = name
        self._busy = False
        self._waiters: deque[Event] = deque()

    def use(self, duration: int) -> Generator:
        """Generator to delegate to: reserve, hold ``duration``, release."""
        grant = self.sim.event(f"{self.name}.grant")
        if self._busy:
            self._waiters.append(grant)
        else:
            self._busy = True
            grant.succeed()
        yield grant
        yield Timeout(duration)
        if self._waiters:
            # The server passes straight to the oldest waiter.
            self._waiters.popleft().succeed()
        else:
            self._busy = False
