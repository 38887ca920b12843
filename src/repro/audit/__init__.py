"""Runtime coherence-invariant auditing (see ``docs/AUDIT.md``).

The auditor turns the paper's protocol invariants — SWMR, directory/
cache agreement, transaction conservation, WAITING-state discipline,
worm conservation — into executable, continuously-checked assertions
over a live simulation, at levels ``off`` / ``cheap`` / ``full``.
"""

from repro.audit.auditor import Auditor, violate
from repro.audit.trail import EventTrail, TrailEvent
from repro.audit.violations import (AUDIT_ENV_VAR, AUDIT_LEVELS,
                                    InvariantViolation, resolve_level)

__all__ = [
    "AUDIT_ENV_VAR",
    "AUDIT_LEVELS",
    "Auditor",
    "EventTrail",
    "InvariantViolation",
    "TrailEvent",
    "resolve_level",
    "violate",
]
