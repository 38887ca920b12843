"""Fault model for the wormhole DSM.

The paper's evaluation assumes a perfectly reliable mesh; this package
makes failure a first-class input:

* :class:`~repro.faults.plan.FaultPlan` — a seeded, deterministic value
  describing dead links, dead routers, and worm-drop behaviour;
* :class:`~repro.faults.state.FaultState` — the runtime evaluator the
  network consults at injection time;
* :class:`~repro.faults.plan.TransactionFailed` — the typed terminal
  error raised when a transaction exhausts its retries.

This package imports nothing from :mod:`repro.core`.  Recovery (NACKs,
per-transaction timeouts, bounded retransmission with exponential
backoff) lives in :class:`~repro.core.engine.InvalidationEngine`,
MI→UI re-planning around known faults in
:func:`~repro.core.grouping.degrade_plan`, and the fault sweep behind
``repro faults`` in :func:`~repro.analysis.experiments.run_fault_sweep`;
see ``docs/FAULTS.md``.
"""

from repro.faults.plan import (FaultPlan, LinkFault, RouterFault,
                               TransactionFailed)
from repro.faults.state import FaultState

__all__ = [
    "FaultPlan",
    "FaultState",
    "LinkFault",
    "RouterFault",
    "TransactionFailed",
]
