"""Graceful degradation: re-plan multidestination worms around known faults.

The paper's schemes assume a perfect mesh.  When the system-wide fault
map (permanent faults that have already started) shows that a planned
BRCP path crosses a dead link or router, the home re-plans *before*
injecting, exactly as real multicast NoCs degrade to unicast around
failed regions:

* **MI-UA plans** (every sharer simply acks by unicast) degrade per
  worm: only the multidestination groups that cross a fault are split
  into unicast invalidations, the rest of the plan is untouched.
* **MA and chain plans** couple the invalidation worms to gather worms,
  i-ack reservations, and junction collectors; surgically rerouting one
  worm would break the acknowledgment choreography, so any fault on any
  planned worm path (invalidation groups, column gathers, or row
  gathers) downgrades the whole transaction to UI-UA.

Under **fault-aware routing** (``SystemParameters.fault_aware_routing``,
see :class:`~repro.network.routing.FaultAwareRouting`) the decision rule
gains a cheaper first resort — *reroute before downgrade*:

* a blocked multidestination group whose destinations the fault-aware
  walk still reaches (detouring around the fault map) is kept whole and
  counted as a **reroute**, not a downgrade;
* a group the walk cannot serve whole is split into maximal deliverable
  sub-chains (:func:`repro.core.grouping.split_group_for_faults`) — the
  deliverable runs stay multidestination worms, the rest degrade to
  unicasts;
* an MA/chain plan is kept whole when *every* blocked path is
  ft-deliverable (the ack choreography is then intact), else it falls
  back to UI-UA as before.

The degraded plan keeps the original scheme name so that per-scheme
metrics stay attributable; the number of multidestination groups
replaced is reported as the transaction's downgrade count and the number
of paths saved by detouring as its reroute count.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.plan import ACT_ACK, ACT_LAUNCH, InvalGroup, InvalidationPlan
from repro.faults.state import FaultState
from repro.network.topology import Mesh2D
from repro.network.worm import WormKind


def _plan_paths(plan: InvalidationPlan):
    """Every (src, dests) worm path the plan will launch."""
    for group in plan.groups:
        yield plan.home, group.dests
    for action in plan.sharer_actions.values():
        if action[0] == ACT_LAUNCH:
            spec = action[1]
            yield spec.launcher, spec.dests
    for jp in plan.junctions:
        if jp.row_gather is not None:
            yield jp.row_gather.launcher, jp.row_gather.dests


def degrade_plan(plan: InvalidationPlan, mesh: Mesh2D, faults: FaultState,
                 now: int) -> tuple[InvalidationPlan, int, int]:
    """Return ``(plan', downgraded_groups, rerouted_paths)`` re-planned
    around known faults.

    ``downgraded_groups`` counts multidestination groups replaced by
    unicasts (or whole-plan fallbacks); ``rerouted_paths`` counts blocked
    paths kept multidestination because fault-aware routing detours
    around the fault map.  Both are 0 when the plan is untouched.
    """
    multi = sum(1 for g in plan.groups if len(g.dests) > 1)
    if not faults.topology_faults or (multi == 0 and not plan.junctions):
        return plan, 0, 0

    ft = faults.ft_routing

    def blocked(src, dests) -> bool:
        walk = faults.walk_of(src, dests)
        return walk is not None and faults.blocking_hop(
            walk, now, permanent_only=True) is not None

    def ft_deliverable(src, dests) -> bool:
        return ft is not None and ft.route_walk(
            src, dests, now, permanent_only=True) is not None

    ack_only = all(a[0] == ACT_ACK for a in plan.sharer_actions.values())
    if ack_only:
        groups: list[InvalGroup] = []
        downgraded = rerouted = 0
        for g in plan.groups:
            if len(g.dests) > 1 and blocked(plan.home, g.dests):
                if ft_deliverable(plan.home, g.dests):
                    groups.append(g)
                    rerouted += 1
                elif ft is not None:
                    from repro.core.grouping import split_group_for_faults
                    pieces = split_group_for_faults(
                        ft.base, plan.home, g,
                        lambda run: ft_deliverable(plan.home, run))
                    groups.extend(pieces)
                    downgraded += 1
                    rerouted += sum(1 for p in pieces if len(p.dests) > 1)
                else:
                    groups.extend(InvalGroup(WormKind.UNICAST, (d,))
                                  for d in g.dests)
                    downgraded += 1
            else:
                groups.append(g)
        if not downgraded and not rerouted:
            return plan, 0, 0
        if not downgraded:
            # Every blocked group was kept whole: the plan is unchanged.
            return plan, 0, rerouted
        return replace(plan, groups=tuple(groups)), downgraded, rerouted

    # MA / chain plan: reroute-whole or all-or-nothing fallback.
    blocked_paths = [(src, dests) for src, dests in _plan_paths(plan)
                     if blocked(src, dests)]
    if not blocked_paths:
        return plan, 0, 0
    if all(ft_deliverable(src, dests) for src, dests in blocked_paths):
        return plan, 0, len(blocked_paths)
    from repro.core.grouping import plan_ui_ua
    fallback = plan_ui_ua(mesh, plan.home, plan.sharers)
    fallback = replace(fallback, scheme=plan.scheme)
    downgraded = max(1, multi)
    return fallback, downgraded, 0
