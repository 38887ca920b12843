"""Generator-based simulation processes (CSIM-style).

A process body is a Python generator.  It may yield:

* ``Timeout(n)`` — hold for ``n`` cycles;
* an :class:`~repro.sim.engine.Event` — suspend until it fires; the yield
  expression evaluates to the event's value.

A process's :attr:`~Process.done` event fires with the body's return
value, so waiting for a process is ``yield proc.done``.  Sub-behaviours
compose with ``yield from``: a helper generator that yields the same
primitives can be delegated to directly, which is how the node
controllers share message-handling code.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Event, SimulationError, Simulator, Timeout


class Process:
    """Drives a generator through the simulator until it returns."""

    __slots__ = ("sim", "name", "generator", "done", "_advance")

    def __init__(self, sim: Simulator, generator: Generator,
                 name: str = "process") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process body must be a generator, got {type(generator)!r}; "
                f"did you call the function instead of passing the generator?")
        self.sim = sim
        self.name = name
        self.generator = generator
        #: Event fired (with the return value) when the body finishes.
        self.done: Event = sim.event(f"{name}.done")
        #: Prebound resume-with-None callback: clock-style processes
        #: yield a Timeout every cycle, so the advance closure is hoisted
        #: out of the per-yield path instead of allocated each time.
        advance = self._advance = lambda: self._step(None)
        # First step runs at the current cycle but after the caller's
        # current callback completes, preserving causal ordering.
        sim.call_at(sim.now, advance)

    @property
    def alive(self) -> bool:
        """True until the body has returned."""
        return not self.done.triggered

    # ------------------------------------------------------------------
    def _step(self, send_value: Any) -> None:
        try:
            yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        self._handle(yielded)

    def _handle(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.sim.call_after(yielded.delay, self._advance)
        elif isinstance(yielded, Event):
            yielded.add_callback(lambda ev: self._resume_later(ev.value))
        else:
            self.generator.close()
            raise SimulationError(f"process {self.name!r} yielded unsupported "
                                  f"{type(yielded).__name__!r}")

    def _resume_later(self, value: Any) -> None:
        # Resume on a fresh callback rather than inside the event's own
        # trigger, so multiple waiters of one event resume in FIFO order at
        # the same cycle without re-entrancy.
        self.sim.call_at(self.sim.now, lambda: self._step(value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
