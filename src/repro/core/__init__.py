"""The paper's primary contribution: invalidation frameworks and grouping
schemes built on multidestination message passing.

An invalidation transaction (home node invalidates ``d`` sharers and
collects ``d`` acknowledgments) is described by an
:class:`~repro.core.plan.InvalidationPlan` — which worms the home sends,
what each sharer does after invalidating, and how acknowledgments flow
back — and executed on the cycle-level network by the
:class:`~repro.core.engine.InvalidationEngine`.

Frameworks (paper Sec. 4):

* **UI-UA** — unicast invalidations, unicast acks (the baseline all
  current-generation DSMs use);
* **MI-UA** — multidestination invalidation worms, unicast acks;
* **MI-MA** — i-reserve invalidation worms plus i-gather ack collection
  through router-interface i-ack buffers;
* **SCI-CHAIN** — the chained-worm alternative the paper discusses and
  rejects (total serialization of the invalidations) [11].

Grouping schemes (paper Sec. 5) instantiate the frameworks for e-cube and
west-first turn-model routing; see :mod:`repro.core.grouping`.
"""

from repro.core.engine import InvalidationEngine
from repro.core.grouping import SCHEMES, build_plan
from repro.core.metrics import TransactionRecord
from repro.core.plan import GatherSpec, InvalGroup, InvalidationPlan, JunctionPlan

__all__ = [
    "GatherSpec",
    "InvalGroup",
    "InvalidationEngine",
    "InvalidationPlan",
    "JunctionPlan",
    "SCHEMES",
    "TransactionRecord",
    "build_plan",
]
