"""Fault injection and recovery for the wormhole DSM.

The paper's evaluation assumes a perfectly reliable mesh; this package
grows the simulator toward production scale by making failure a
first-class input:

* :class:`~repro.faults.plan.FaultPlan` — a seeded, deterministic value
  describing dead links, dead routers, and worm-drop behaviour;
* :class:`~repro.faults.state.FaultState` — the runtime evaluator the
  network consults at injection time;
* :func:`~repro.faults.fallback.degrade_plan` — proactive MI→UI
  re-planning of multidestination worms around known faults;
* :class:`~repro.faults.plan.TransactionFailed` — the typed terminal
  error raised when a transaction exhausts its retries;
* :func:`~repro.faults.sweep.run_fault_sweep` — the chaos-style sweep
  behind ``repro faults`` and ``benchmarks/bench_fault_recovery.py``.

Recovery itself (NACKs, per-transaction timeouts, bounded retransmission
with exponential backoff) lives in
:class:`~repro.core.engine.InvalidationEngine`; see ``docs/FAULTS.md``.
"""

# plan and state before fallback: fallback imports repro.core, whose
# engine imports TransactionFailed back from repro.faults.plan.
from repro.faults.plan import (FaultPlan, LinkFault, RouterFault,
                               TransactionFailed)
from repro.faults.state import FaultState
from repro.faults.fallback import degrade_plan

__all__ = [
    "FaultPlan",
    "FaultState",
    "LinkFault",
    "RouterFault",
    "TransactionFailed",
    "degrade_plan",
    "run_fault_sweep",
]


def __getattr__(name):
    # Lazy: sweep imports the invalidation engine, which itself imports
    # this package — an eager import here would be circular.
    if name == "run_fault_sweep":
        from repro.faults.sweep import run_fault_sweep
        return run_fault_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
