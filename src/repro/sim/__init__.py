"""Discrete-event simulation kernel (CSIM substitute).

The paper's simulator is built on CSIM [43]: cooperating *processes* that
``hold`` for simulated time, ``use`` *facilities*, and wait on *events*.
This package provides the primitives the model uses:

* :class:`~repro.sim.engine.Simulator` — the event list and clock.
* :class:`~repro.sim.process.Process` — generator-based processes; a
  process yields a :class:`Timeout` or an :class:`~repro.sim.engine.Event`.
* :class:`~repro.sim.resource.Facility` — FCFS single-server contention
  points (memory modules, controllers).
* :mod:`repro.sim.stats` — tallies and log-linear histograms.

Time is an integer count of network cycles everywhere, which keeps the
simulation exactly deterministic.
"""

from repro.sim.engine import (Event, AllOf, Deadlock, Hang,
                              SimulationError, Simulator, Timeout, Timer)
from repro.sim.process import Process
from repro.sim.resource import Facility
from repro.sim.stats import Histogram, Tally

__all__ = [
    "AllOf",
    "Deadlock",
    "Event",
    "Facility",
    "Hang",
    "Histogram",
    "Process",
    "SimulationError",
    "Simulator",
    "Tally",
    "Timeout",
    "Timer",
]
