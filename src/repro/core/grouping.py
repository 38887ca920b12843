"""Grouping schemes: how a sharer set becomes worms (paper Sec. 5).

Exact scheme names are not recoverable from the available text of the TR;
the schemes implemented here span exactly the design space the paper
describes — {e-cube, west-first turn model} base routing x {unicast,
multidestination} invalidation x {unicast, gathered} acknowledgment — plus
the UI-UA baseline and the SCI-style chained worm the paper discusses and
rejects.  See DESIGN.md for the mapping.

========================  ============================================
``ui-ua``                 d unicast invalidations, d unicast acks
``mi-ua-ec``              e-cube column multicast worms, unicast acks
``mi-ua-tm``              west-first staircase multicasts, unicast acks
``ui-ma-ec``              unicast i-reserve invals, gathered acks
``mi-ma-ec``              column i-reserve worms + column i-gathers +
                          hierarchical row i-gathers (two-level)
``mi-ma-ec-u``            as above but junctions unicast their combined
                          acks home (single-level gathering)
``mi-ma-tm``              staircase i-reserve + staircase i-gather
``sci-chain``             chained worms serializing at each sharer [11]
========================  ============================================

Every path produced here is BRCP-valid for the scheme's base routing;
property tests assert this.  :func:`degrade_plan` re-plans a built plan
around the known faults of a network before the engine injects it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.brcp.model import is_conformant_path
from repro.brcp.paths import (adaptive_chain_paths, column_path_sides,
                              staircase_paths)
from repro.core.plan import (ACT_ACK, ACT_CHAIN, ACT_CHAIN_FINAL,
                             ACT_DEPOSIT, ACT_GATHER_TERMINAL, ACT_LAUNCH,
                             ACT_PIECE, FINAL_HOME, FINAL_JUNCTION,
                             FINAL_TERMINAL, GatherSpec, InvalGroup,
                             InvalidationPlan, JunctionPlan,
                             JUNCTION_DEPOSIT, JUNCTION_LAUNCH,
                             JUNCTION_UNICAST, plan_worms)
from repro.network.routing import WestFirstRouting
from repro.network.topology import Mesh2D
from repro.network.worm import WormKind

if TYPE_CHECKING:
    from repro.faults.state import FaultState


def _by_column(mesh: Mesh2D, sharers: Sequence[int]) -> dict[int, list[int]]:
    cols: dict[int, list[int]] = defaultdict(list)
    for s in sharers:
        cols[mesh.coords(s)[0]].append(s)
    return cols


def _ec_side_lists(mesh: Mesh2D, home: int,
                   sharers: Sequence[int]) -> list[list[int]]:
    """E-cube-conformant destination lists: per column, the home's-row
    sharer (if any) prefixes the first monotone side run."""
    lists: list[list[int]] = []
    for col, col_sharers in sorted(_by_column(mesh, sharers).items()):
        at_row, up, down = column_path_sides(mesh, home, col, col_sharers)
        sides = [s for s in (up, down) if s]
        if at_row:
            if sides:
                sides[0] = [at_row[0]] + sides[0]
            else:
                sides = [[at_row[0]]]
        lists.extend(sides)
    return lists


# ----------------------------------------------------------------------
# Baseline and MI-UA schemes
# ----------------------------------------------------------------------
def plan_ui_ua(mesh: Mesh2D, home: int,
               sharers: Sequence[int]) -> InvalidationPlan:
    """Unicast invalidation, unicast acknowledgment (the baseline)."""
    groups = tuple(InvalGroup(WormKind.UNICAST, (s,)) for s in sharers)
    actions = {s: (ACT_ACK,) for s in sharers}
    return InvalidationPlan("ui-ua", home, tuple(sharers), groups, actions)


def plan_mi_ua_ec(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Multidestination invalidation along e-cube column paths; each
    sharer acknowledges by unicast (MI-UA framework)."""
    groups = tuple(InvalGroup(WormKind.MULTICAST, tuple(path))
                   for path in _ec_side_lists(mesh, home, sharers))
    actions = {s: (ACT_ACK,) for s in sharers}
    return InvalidationPlan("mi-ua-ec", home, tuple(sharers), groups, actions)


def plan_mi_ua_tm(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Multidestination invalidation along west-first staircases (fewer
    worms than column grouping); unicast acks."""
    groups = tuple(InvalGroup(WormKind.MULTICAST, tuple(path))
                   for path in staircase_paths(mesh, home, sharers))
    actions = {s: (ACT_ACK,) for s in sharers}
    return InvalidationPlan("mi-ua-tm", home, tuple(sharers), groups, actions)


# ----------------------------------------------------------------------
# MA schemes (gathered acknowledgments) on e-cube
# ----------------------------------------------------------------------
def _ma_ec_plan(mesh: Mesh2D, home: int, sharers: Sequence[int], *,
                unicast_inval: bool, hierarchical: bool,
                name: str) -> InvalidationPlan:
    """Shared constructor for the e-cube gathered-ack schemes.

    Per column: i-reserve worm(s) reserve level-0 entries at depositing
    sharers (and a level-1 entry at depositing junctions); the farthest
    sharer of each side launches a column i-gather toward the home's row.
    Column-combined acks then either ride hierarchical row i-gathers
    (``hierarchical=True``) or are unicast home by the junction nodes.
    """
    hx, hy = mesh.coords(home)
    cols = _by_column(mesh, sharers)
    east = sorted(c for c in cols if c > hx)
    west = sorted(c for c in cols if c < hx)

    # Junction roles and row-level gathers.
    j_role: dict[int, str] = {}
    row_gather: dict[int, GatherSpec] = {}
    if hierarchical:
        for side_cols, toward_home in ((east, True), (west, False)):
            if not side_cols:
                continue
            launcher_col = side_cols[-1] if toward_home else side_cols[0]
            middle = [c for c in side_cols if c != launcher_col]
            # Visit junctions from the launcher toward the home (pure-X
            # row path: e-cube conformant).
            ordered = sorted(middle, reverse=toward_home)
            dests = tuple(mesh.node_at(c, hy) for c in ordered) + (home,)
            for c in middle:
                j_role[c] = JUNCTION_DEPOSIT
            j_role[launcher_col] = JUNCTION_LAUNCH
            row_gather[launcher_col] = GatherSpec(
                launcher=mesh.node_at(launcher_col, hy), dests=dests,
                pickup_level=1, initial_acks=None, final_action=FINAL_HOME)
    else:
        for c in east + west:
            j_role[c] = JUNCTION_UNICAST

    groups: list[InvalGroup] = []
    actions: dict[int, tuple] = {}
    junctions: list[JunctionPlan] = []

    for col in sorted(cols):
        at_row, up, down = column_path_sides(mesh, home, col, cols[col])
        junction = mesh.node_at(col, hy)
        home_col = (col == hx)
        sides = [s for s in (up, down) if s]
        pieces = len(sides) + (1 if at_row else 0)
        needs_level1 = (not home_col) and j_role[col] == JUNCTION_DEPOSIT
        if not home_col:
            junctions.append(JunctionPlan(junction, pieces, j_role[col],
                                          row_gather.get(col)))

        # Sharer actions and column i-gathers.
        if at_row:
            actions[at_row[0]] = (ACT_PIECE, junction)
        for side in sides:
            launcher = side[-1]
            for s in side[:-1]:
                actions[s] = (ACT_DEPOSIT,)
            gdests = tuple(reversed(side[:-1]))
            gdests += (home,) if home_col else (junction,)
            actions[launcher] = (ACT_LAUNCH, GatherSpec(
                launcher=launcher, dests=gdests, pickup_level=0,
                initial_acks=1,
                final_action=FINAL_HOME if home_col else FINAL_JUNCTION,
                junction=None if home_col else junction))

        # Invalidation worms.
        level1_assigned = False
        if unicast_inval:
            for side in sides:
                for s in side:
                    no_res = frozenset({s}) if s == side[-1] else frozenset()
                    if needs_level1 and not level1_assigned and s == side[-1]:
                        # The worm to the farthest sharer passes the
                        # junction router anyway; name it a
                        # reservation-only stop.
                        groups.append(InvalGroup(
                            WormKind.IRESERVE, (junction, s),
                            reserve_only=frozenset({junction}),
                            no_reserve=no_res))
                        level1_assigned = True
                    else:
                        groups.append(InvalGroup(WormKind.IRESERVE, (s,),
                                                 no_reserve=no_res))
            if at_row:
                s = at_row[0]
                extra = frozenset({s}) if needs_level1 and not level1_assigned \
                    else frozenset()
                level1_assigned = level1_assigned or bool(extra)
                groups.append(InvalGroup(WormKind.IRESERVE, (s,),
                                         extra_reserve=extra,
                                         no_reserve=frozenset({s})))
        else:
            first = True
            for side in sides:
                dests: list[int] = []
                reserve_only: set[int] = set()
                extra_reserve: set[int] = set()
                no_reserve: set[int] = {side[-1]}
                if first and at_row:
                    dests.append(at_row[0])
                    no_reserve.add(at_row[0])
                    if needs_level1:
                        extra_reserve.add(at_row[0])
                        level1_assigned = True
                elif first and needs_level1:
                    dests.append(junction)
                    reserve_only.add(junction)
                    level1_assigned = True
                dests.extend(side)
                groups.append(InvalGroup(
                    WormKind.IRESERVE, tuple(dests),
                    reserve_only=frozenset(reserve_only),
                    extra_reserve=frozenset(extra_reserve),
                    no_reserve=frozenset(no_reserve)))
                first = False
            if not sides:
                # Only the home's-row sharer in this column.
                s = at_row[0]
                extra = frozenset({s}) if needs_level1 else frozenset()
                groups.append(InvalGroup(WormKind.IRESERVE, (s,),
                                         extra_reserve=extra,
                                         no_reserve=frozenset({s})))

    return InvalidationPlan(name, home, tuple(sharers),
                            tuple(groups), actions, tuple(junctions))


def plan_ui_ma_ec(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Unicast i-reserve invalidations; acks gathered by column and row
    i-gather worms (isolates the gain of the acknowledgment phase)."""
    return _ma_ec_plan(mesh, home, sharers, unicast_inval=True,
                       hierarchical=True, name="ui-ma-ec")


def plan_mi_ma_ec(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Column i-reserve worms + two-level i-gather collection (the full
    MI-MA framework under e-cube routing)."""
    return _ma_ec_plan(mesh, home, sharers, unicast_inval=False,
                       hierarchical=True, name="mi-ma-ec")


def plan_mi_ma_ec_u(mesh: Mesh2D, home: int,
                    sharers: Sequence[int]) -> InvalidationPlan:
    """Column i-reserve worms + column i-gathers; junctions unicast the
    combined acks home (no row-level gather)."""
    return _ma_ec_plan(mesh, home, sharers, unicast_inval=False,
                       hierarchical=False, name="mi-ma-ec-u")


# ----------------------------------------------------------------------
# MA scheme on the west-first turn model
# ----------------------------------------------------------------------
def plan_mi_ma_tm(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Staircase i-reserve worms; each staircase's first sharer launches
    an i-gather retracing the staircase.  The gather terminates at the
    home when the final leg stays west-first-conformant; otherwise the
    last sharer unicasts the combined ack."""
    routing = WestFirstRouting(mesh)
    groups: list[InvalGroup] = []
    actions: dict[int, tuple] = {}
    for path in staircase_paths(mesh, home, sharers):
        launcher, rest = path[0], path[1:]
        if not rest:
            actions[launcher] = (ACT_ACK,)
            groups.append(InvalGroup(WormKind.IRESERVE, (launcher,),
                                     no_reserve=frozenset({launcher})))
            continue
        no_reserve = {launcher}
        if is_conformant_path(routing, launcher, rest + [home]):
            spec = GatherSpec(launcher=launcher,
                              dests=tuple(rest) + (home,), pickup_level=0,
                              initial_acks=1, final_action=FINAL_HOME)
            for s in rest:
                actions[s] = (ACT_DEPOSIT,)
        else:
            terminal = rest[-1]
            spec = GatherSpec(launcher=launcher, dests=tuple(rest),
                              pickup_level=0, initial_acks=1,
                              final_action=FINAL_TERMINAL)
            for s in rest[:-1]:
                actions[s] = (ACT_DEPOSIT,)
            actions[terminal] = (ACT_GATHER_TERMINAL,)
            no_reserve.add(terminal)
        actions[launcher] = (ACT_LAUNCH, spec)
        groups.append(InvalGroup(WormKind.IRESERVE, tuple(path),
                                 no_reserve=frozenset(no_reserve)))
    return InvalidationPlan("mi-ma-tm", home, tuple(sharers),
                            tuple(groups), actions)


# ----------------------------------------------------------------------
# Fully-adaptive (diagonal chain) schemes — the extra BRCP flexibility
# the paper attributes to adaptive routing schemes like [7]
# ----------------------------------------------------------------------
def plan_mi_ua_fa(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Multidestination invalidation along monotone diagonal chains
    (minimum chain cover per quadrant); unicast acks."""
    groups = tuple(InvalGroup(WormKind.MULTICAST, tuple(path))
                   for path in adaptive_chain_paths(mesh, home, sharers))
    actions = {s: (ACT_ACK,) for s in sharers}
    return InvalidationPlan("mi-ua-fa", home, tuple(sharers), groups, actions)


def plan_mi_ma_fa(mesh: Mesh2D, home: int,
                  sharers: Sequence[int]) -> InvalidationPlan:
    """Diagonal-chain i-reserve worms; each chain's *farthest* sharer
    launches an i-gather retracing the chain back to the home (the
    reverse of a monotone chain is monotone, hence conformant under
    fully-adaptive routing — no junction machinery needed)."""
    groups: list[InvalGroup] = []
    actions: dict[int, tuple] = {}
    for path in adaptive_chain_paths(mesh, home, sharers):
        launcher = path[-1]
        if len(path) == 1:
            actions[launcher] = (ACT_ACK,)
            groups.append(InvalGroup(WormKind.IRESERVE, tuple(path),
                                     no_reserve=frozenset({launcher})))
            continue
        rest = list(reversed(path[:-1]))
        spec = GatherSpec(launcher=launcher, dests=tuple(rest) + (home,),
                          pickup_level=0, initial_acks=1,
                          final_action=FINAL_HOME)
        for s in rest:
            actions[s] = (ACT_DEPOSIT,)
        actions[launcher] = (ACT_LAUNCH, spec)
        groups.append(InvalGroup(WormKind.IRESERVE, tuple(path),
                                 no_reserve=frozenset({launcher})))
    return InvalidationPlan("mi-ma-fa", home, tuple(sharers),
                            tuple(groups), actions)


# ----------------------------------------------------------------------
# SCI-style chained worm (comparison point, paper Sec. 4 discussion)
# ----------------------------------------------------------------------
def plan_sci_chain(mesh: Mesh2D, home: int,
                   sharers: Sequence[int]) -> InvalidationPlan:
    """One chained worm per e-cube column path: the worm waits at each
    sharer for the local invalidation before moving on; the last sharer
    acknowledges the whole chain with one unicast."""
    groups: list[InvalGroup] = []
    actions: dict[int, tuple] = {}
    for path in _ec_side_lists(mesh, home, sharers):
        groups.append(InvalGroup(WormKind.CHAIN, tuple(path)))
        for s in path[:-1]:
            actions[s] = (ACT_CHAIN,)
        actions[path[-1]] = (ACT_CHAIN_FINAL, len(path))
    return InvalidationPlan("sci-chain", home, tuple(sharers),
                            tuple(groups), actions)


# ----------------------------------------------------------------------
# Fault-time re-planning (graceful degradation)
# ----------------------------------------------------------------------
def split_group_for_faults(routing, home: int, group: InvalGroup,
                           deliverable: Callable[[tuple[int, ...]], bool],
                           ) -> list[InvalGroup]:
    """Split a multidestination ``group`` into maximal sub-chains the
    ``deliverable(dests)`` predicate accepts, preserving visit order.

    Used by :func:`degrade_plan` when fault-aware routing can still
    serve *part* of a blocked chain: instead of degrading every
    destination to a unicast, contiguous deliverable runs stay
    multidestination worms.  Runs of one destination — and runs that are
    no longer BRCP-conformant from ``home`` under the base ``routing``
    once cut loose from their prefix — become unicasts.  A predicate
    that rejects everything reproduces the pure per-destination unicast
    split.
    """
    runs: list[list[int]] = []
    current: list[int] = []
    for d in group.dests:
        trial = current + [d]
        if deliverable(tuple(trial)):
            current = trial
        else:
            if current:
                runs.append(current)
            current = [d]
    if current:
        runs.append(current)
    out: list[InvalGroup] = []
    for run in runs:
        if (len(run) > 1 and deliverable(tuple(run))
                and is_conformant_path(routing, home, run)):
            out.append(InvalGroup(
                group.kind, tuple(run),
                reserve_only=group.reserve_only & frozenset(run),
                extra_reserve=group.extra_reserve & frozenset(run),
                no_reserve=group.no_reserve & frozenset(run)))
        else:
            out.extend(InvalGroup(WormKind.UNICAST, (d,)) for d in run)
    return out


def degrade_plan(plan: InvalidationPlan, mesh: Mesh2D, faults: FaultState,
                 now: int) -> tuple[InvalidationPlan, int, int]:
    """Return ``(plan', downgraded_groups, rerouted_paths)``: ``plan``
    re-planned around the known faults (permanent faults that have
    already started) before the home injects it, the way multicast
    NoCs degrade to unicast around failed regions.

    * An MI-UA plan (every sharer acks by unicast) degrades per worm:
      only the multidestination groups whose BRCP path crosses a known
      fault split into unicast invalidations.
    * An MA or chain plan couples its invalidation worms to gather
      worms, i-ack reservations and junction collectors, so a fault on
      any planned path (invalidation groups, column or row gathers)
      downgrades the whole transaction to UI-UA.

    Under fault-aware routing (``SystemParameters.fault_aware_routing``)
    a cheaper first resort applies, *reroute before downgrade*: a
    blocked group the fault-aware walk still delivers whole stays one
    worm and counts as a reroute; one it cannot serve whole splits into
    maximal deliverable sub-chains (:func:`split_group_for_faults`); an
    MA/chain plan stays whole when every blocked path is deliverable.

    The degraded plan keeps the scheme name, so per-scheme metrics stay
    attributable.  ``downgraded_groups`` counts multidestination groups
    replaced by unicasts (or whole-plan fallbacks); ``rerouted_paths``
    counts blocked paths kept multidestination by detouring.  Both are
    0 when the plan is untouched.
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
        if not downgraded:
            # Every blocked group was kept whole: the plan is unchanged.
            return plan, 0, rerouted
        return replace(plan, groups=tuple(groups)), downgraded, rerouted

    # MA / chain plan: reroute-whole or all-or-nothing fallback.
    blocked_paths = [(src, dests) for role, _, src, dests in plan_worms(plan)
                     if role != "ack" and blocked(src, dests)]
    if not blocked_paths:
        return plan, 0, 0
    if all(ft_deliverable(src, dests) for src, dests in blocked_paths):
        return plan, 0, len(blocked_paths)
    fallback = replace(plan_ui_ua(mesh, plan.home, plan.sharers),
                       scheme=plan.scheme)
    return fallback, max(1, multi), 0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
PlanBuilder = Callable[[Mesh2D, int, Sequence[int]], InvalidationPlan]

#: name -> (builder, base routing): the only map from a scheme to the
#: routing its worm paths conform to.  The six grouping schemes plus the
#: UI-UA baseline and the SCI chained-worm comparison.
SCHEMES: dict[str, tuple[PlanBuilder, str]] = {
    "ui-ua": (plan_ui_ua, "ecube"),
    "mi-ua-ec": (plan_mi_ua_ec, "ecube"),
    "mi-ua-tm": (plan_mi_ua_tm, "westfirst"),
    "ui-ma-ec": (plan_ui_ma_ec, "ecube"),
    "mi-ma-ec": (plan_mi_ma_ec, "ecube"),
    "mi-ma-ec-u": (plan_mi_ma_ec_u, "ecube"),
    "mi-ma-tm": (plan_mi_ma_tm, "westfirst"),
    "mi-ua-fa": (plan_mi_ua_fa, "adaptive"),
    "mi-ma-fa": (plan_mi_ma_fa, "adaptive"),
    "sci-chain": (plan_sci_chain, "ecube"),
}


def build_plan(scheme: str, mesh: Mesh2D, home: int,
               sharers: Sequence[int]) -> InvalidationPlan:
    """Build the invalidation plan for ``scheme`` (see :data:`SCHEMES`)."""
    try:
        builder, _routing = SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; "
                         f"choose from {sorted(SCHEMES)}") from None
    return builder(mesh, home, sharers)
