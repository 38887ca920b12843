"""Bounded protocol-event trail.

The auditor records every observed protocol event — cache installs and
invalidations, directory transitions, transaction lifecycle, and the
network's worm events (injection or drop, absorb and final delivery,
chain wait, parked-gather resume) — into one ring buffer per run.  When
an invariant breaks, the tail of the trail (filtered to the offending
block/transaction plus recent global events) rides on the
:class:`~repro.audit.violations.InvariantViolation`, giving the repro
bundle a causal story, not just an end state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple, Optional


class TrailEvent(NamedTuple):
    """One recorded protocol event."""

    cycle: int
    kind: str
    node: Optional[int]
    block: Optional[int]
    txn: Any
    detail: str
    #: Uid of the worm a ``worm.*`` event is about (None otherwise).
    worm: Optional[int] = None

    def format(self) -> str:
        parts = [f"@{self.cycle}", self.kind]
        if self.worm is not None:
            parts.append(f"worm=#{self.worm}")
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.block is not None:
            parts.append(f"block={self.block}")
        if self.txn is not None:
            parts.append(f"txn={self.txn}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class EventTrail:
    """Ring buffer of :class:`TrailEvent` with filtered-tail extraction."""

    def __init__(self, limit: int = 4096) -> None:
        if limit < 1:
            raise ValueError("trail limit must be >= 1")
        self.limit = limit
        self._events: deque[TrailEvent] = deque(maxlen=limit)
        #: Total events ever recorded (may exceed ``limit``).
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._events)

    def record(self, cycle: int, kind: str, node: Optional[int] = None,
               block: Optional[int] = None, txn: Any = None,
               detail: str = "", worm: Optional[int] = None) -> None:
        """Append one event (oldest events fall off past ``limit``)."""
        self.recorded += 1
        self._events.append(
            TrailEvent(cycle, kind, node, block, txn, detail, worm))

    def events(self) -> list[TrailEvent]:
        """All retained events, oldest first."""
        return list(self._events)

    def tail(self, n: int = 40, block: Optional[int] = None,
             txn: Any = None) -> list[str]:
        """Last ``n`` formatted events; with ``block``/``txn`` given,
        events are filtered to those mentioning either (an event with
        neither block nor txn — a global event — is always kept)."""
        if block is None and txn is None:
            picked = list(self._events)[-n:]
        else:
            picked = [e for e in self._events
                      if (e.block is None and e.txn is None)
                      or (block is not None and e.block == block)
                      or (txn is not None and e.txn == txn)][-n:]
        return [e.format() for e in picked]
