"""Event list, clock, and waitable events.

The simulator is a classic calendar of ``(time, seq, callback)`` entries in
a binary heap.  ``seq`` is a monotonically increasing tie-breaker so that
entries scheduled at the same cycle fire in schedule order, which makes
every run exactly reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Deadlock(SimulationError):
    """The model stopped making progress: the network's hold-and-wait
    detector fired, or the calendar drained before the awaited event."""


class Hang(SimulationError):
    """The awaited event had not fired by the run's cycle limit."""


class Event:
    """A one-shot waitable occurrence.

    Processes wait on an event by yielding it; any number of processes and
    plain callbacks may wait.  An event fires at most once, carrying an
    optional value, via :meth:`succeed` (immediately, at the current cycle)
    or :meth:`schedule` (after a delay).
    """

    __slots__ = ("sim", "name", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if fired)."""
        if self.triggered:
            fn(self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event now.  Idempotence is an error: events are one-shot."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)
        return self

    def schedule(self, delay: int, value: Any = None) -> "Event":
        """Fire the event ``delay`` cycles from now."""
        self.sim.call_at(self.sim.now + delay, lambda: self.succeed(value))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class AllOf(Event):
    """Fires when every child event has fired; value is the list of child
    values in construction order.  Useful for 'all acknowledgments in'."""

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 name: str = "all_of") -> None:
        super().__init__(sim, name)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            # Degenerate: fire on the next delta so waiters can attach.
            sim.call_at(sim.now, lambda: self.succeed([]))
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([c.value for c in self._children])


class Timeout:
    """Yieldable request to suspend the current process for ``delay`` cycles."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = int(delay)


class Timer:
    """A cancellable one-shot timer (protocol timeouts, watchdogs).

    The calendar entry itself cannot be removed from the heap, so
    cancellation is a flag the firing callback checks: a cancelled timer
    costs one no-op dispatch, nothing else.  Unlike :class:`Event`,
    cancelling after arming is the *normal* path — a transaction's
    watchdog is cancelled every time the transaction completes.
    """

    __slots__ = ("when", "cancelled", "fired", "_fn")

    def __init__(self, sim: "Simulator", delay: int,
                 fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        self.when = sim.now + int(delay)
        self.cancelled = False
        self.fired = False
        self._fn = fn
        sim.call_at(self.when, self._fire)

    @property
    def active(self) -> bool:
        """True while the timer is armed and may still fire."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Disarm; idempotent, and a no-op after firing.

        Drops the callback reference immediately: the stale calendar
        entry may sit in the heap for a long time (watchdogs are armed
        thousands of cycles out), and holding ``_fn`` would keep the
        transaction/worm graph it closes over alive for just as long.
        """
        self.cancelled = True
        self._fn = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired = True
        fn, self._fn = self._fn, None
        fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "fired" if self.fired else "armed")
        return f"<Timer @{self.when} {state}>"


class Simulator:
    """The event calendar and simulated clock (integer network cycles)."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        #: Number of callbacks dispatched; a cheap progress / cost metric.
        self.dispatched = 0
        #: Last cycle the active :meth:`run` (``until``) or
        #: :meth:`run_until_event` (``limit``) call may reach; None when
        #: unbounded.  A callback that advances the clock itself (the
        #: network's inline cycle loop) must not carry it past this.
        self.bound: Optional[int] = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute cycle ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past "
                                  f"({when} < {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (int(when), self._seq, fn))

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        self.call_at(self.now + delay, fn)

    def event(self, name: str = "") -> Event:
        """Create a fresh :class:`Event` bound to this simulator."""
        return Event(self, name)

    def timer(self, delay: int, fn: Callable[[], None]) -> Timer:
        """Arm a cancellable :class:`Timer` running ``fn`` after ``delay``."""
        return Timer(self, delay, fn)

    def spawn(self, generator, name: str = "process"):
        """Start a new :class:`~repro.sim.process.Process` from a generator."""
        from repro.sim.process import Process
        return Process(self, generator, name)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Dispatch events until the calendar drains, the clock passes
        ``until``, or ``max_events`` callbacks have run.

        ``until`` is a cycle bound (:attr:`bound` while the call runs):
        the clock never passes it.  ``max_events`` caps progress, not
        cycles: a callback that steps several network cycles inline
        counts each of them as a dispatch, so one call may overshoot the
        cap (``run(max_events=1)`` can advance many cycles).

        Returns the final clock value.
        """
        dispatched_at_entry = self.dispatched
        outer, self.bound = self.bound, until
        try:
            while self._heap:
                when, _seq, fn = self._heap[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heapq.heappop(self._heap)
                self.now = when
                self.dispatched += 1
                fn()
                if (max_events is not None
                        and self.dispatched - dispatched_at_entry
                        >= max_events):
                    break
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self.bound = outer
        return self.now

    def run_until_event(self, event: Event,
                        limit: Optional[int] = None) -> Any:
        """Run until ``event`` fires; returns its value.

        Raises :class:`Deadlock` if the calendar drains first, and
        :class:`Hang` if the optional cycle ``limit`` passes first —
        deadlock or a lost wakeup in the model, which should never be
        silent.
        ``limit`` is the active :attr:`bound` while the call runs.
        """
        # The dispatch loop is inlined (rather than calling
        # ``self.run(max_events=1)`` per callback) — this is the hot loop
        # of every experiment run.  Semantics are identical: one pop, one
        # dispatch, limit checked against the next callback's cycle.
        heap = self._heap
        heappop = heapq.heappop
        outer, self.bound = self.bound, limit
        try:
            while not event.triggered:
                if not heap:
                    raise Deadlock(
                        f"event {event.name!r} never fired: calendar "
                        f"empty at cycle {self.now} (model deadlock?)")
                if limit is not None and heap[0][0] > limit:
                    raise Hang(
                        f"event {event.name!r} not fired by cycle limit "
                        f"{limit}")
                when, _seq, fn = heappop(heap)
                self.now = when
                self.dispatched += 1
                fn()
        finally:
            self.bound = outer
        return event.value

    def peek(self) -> Optional[int]:
        """Cycle of the next scheduled callback, or None if drained."""
        return self._heap[0][0] if self._heap else None
