"""Runtime fault evaluation against a :class:`~repro.faults.plan.FaultPlan`.

The network consults one :class:`FaultState` per run.  Faults act at
*message granularity*: when a worm is offered for injection, its full
base-routing walk is computed and checked against the links and routers
that are down at that cycle, and the plan's drop stream is consulted.  A
worm that would die mid-flight is removed at injection time — its flits
are charged to the traffic statistics up to the failure point, but the
cycle-level router pipeline never sees it.  Recovery (NACK, timeout,
retransmission, unicast fallback) is entirely the protocol layers' job;
see ``docs/FAULTS.md`` for the model's scope and limits.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.brcp.model import conformant_walk
from repro.config import ConfigError
from repro.faults.plan import FaultPlan, LinkFault, RouterFault
from repro.network.routing import Routing
from repro.network.topology import MESH_PORTS, Mesh2D

#: Drop reasons reported through ``MeshNetwork.on_worm_dropped``.
REASON_LINK = "link-fault"
REASON_ROUTER = "router-fault"
REASON_DROP = "random-drop"


class FaultState:
    """Evaluates one plan against one mesh + base routing.  A link
    fault whose ends are not adjacent mesh nodes, or a router fault off
    the mesh, is a :class:`~repro.config.ConfigError`."""

    def __init__(self, plan: FaultPlan, mesh: Mesh2D,
                 routing: Routing) -> None:
        n = mesh.num_nodes
        for lf in plan.link_faults:
            if not (0 <= lf.a < n and 0 <= lf.b < n
                    and mesh.manhattan(lf.a, lf.b) == 1):
                raise ConfigError(f"link fault {lf.a}-{lf.b} is not a "
                                  f"link of the {mesh.width}x"
                                  f"{mesh.height} mesh")
        for rf in plan.router_faults:
            if not 0 <= rf.node < n:
                raise ConfigError(f"router fault {rf.node} is outside the "
                                  f"{mesh.width}x{mesh.height} mesh")
        self.plan = plan
        self.mesh = mesh
        self.routing = routing
        self._rng = random.Random(plan.seed)
        #: (min(a,b), max(a,b)) -> the plan's faults that take the link
        #: down: its link faults and its end routers' faults (a dead
        #: router takes every adjacent link down).
        self._links: dict[tuple[int, int],
                          list[LinkFault | RouterFault]] = {}
        self._routers: dict[int, list[RouterFault]] = {}
        for lf in plan.link_faults:
            key = (min(lf.a, lf.b), max(lf.a, lf.b))
            self._links.setdefault(key, []).append(lf)
        for rf in plan.router_faults:
            self._routers.setdefault(rf.node, []).append(rf)
            for port in MESH_PORTS:
                nb = mesh.neighbor(rf.node, port)
                if nb is None:
                    continue
                key = (min(rf.node, nb), max(rf.node, nb))
                self._links.setdefault(key, []).append(rf)
        #: Worms offered to the network so far (drives drop_nth and the
        #: deterministic consumption order of the drop stream).
        self.injections_seen = 0
        # Statistics, by reason.
        self.drops = {REASON_LINK: 0, REASON_ROUTER: 0, REASON_DROP: 0}
        #: Fault-aware routing wrapper, set by
        #: ``MeshNetwork.install_faults`` when the network routes with
        #: one; the injection filter then uses its fault-aware walk
        #: instead of the base walk to decide a worm's fate.
        self.ft_routing = None

    @property
    def topology_faults(self) -> bool:
        """True when the plan contains any link or router fault (the
        condition under which fault-aware routing has work to do)."""
        return bool(self._links or self._routers)

    # ------------------------------------------------------------------
    # Topology state queries
    # ------------------------------------------------------------------
    @staticmethod
    def _down(faults, now: int, permanent_only: bool) -> bool:
        return any(f.active(now) for f in faults
                   if f.permanent or not permanent_only)

    def link_down(self, a: int, b: int, now: int,
                  permanent_only: bool = False) -> bool:
        """True when the (bidirectional) link a<->b is down at ``now``,
        by a link fault or a fault of either end router.

        ``permanent_only=True`` restricts to the known fault map:
        permanent faults that have already started."""
        faults = self._links.get((min(a, b), max(a, b)))
        return faults is not None and self._down(faults, now,
                                                 permanent_only)

    def router_down(self, node: int, now: int) -> bool:
        """True when ``node``'s router is down at ``now``."""
        faults = self._routers.get(node)
        return faults is not None and self._down(faults, now, False)

    def walk_of(self, src: int, dests) -> Optional[list[int]]:
        """The hop-by-hop walk a worm would take (preferred channels)."""
        return conformant_walk(self.routing, src, list(dests))

    def blocking_hop(self, walk, now: int,
                     permanent_only: bool = False) -> Optional[int]:
        """Index of the first dead hop on ``walk`` at ``now``, or None.

        Hop ``i`` is the link ``walk[i] -> walk[i+1]``; a dead router at
        ``walk[i+1]`` takes that link down too.  ``permanent_only=True``
        sees only *known* faults — the permanent ones that have already
        started, the system-wide fault map used for proactive MI→UI
        re-planning; transient faults are only discovered by losing
        worms.
        """
        for i, (a, b) in enumerate(zip(walk, walk[1:])):
            if self.link_down(a, b, now, permanent_only):
                return i
        return None

    # ------------------------------------------------------------------
    # Injection filter
    # ------------------------------------------------------------------
    def filter_injection(self, worm, now: int):
        """Decide one worm's fate at injection.

        Returns ``None`` to let the worm through, or ``(reason, hops)``
        when it dies — ``hops`` is how far its header would have
        travelled before the failure (for traffic accounting).
        """
        plan = self.plan
        ordinal = self.injections_seen
        self.injections_seen += 1
        walk = None
        # Targeted and probabilistic drops (the drop stream is consumed
        # for every injection in the window so that decisions depend only
        # on the injection order, not on earlier faults).
        dropped = ordinal in plan.drop_nth
        if plan.drop_prob > 0.0 and plan.drop_start <= now and (
                plan.drop_end is None or now < plan.drop_end):
            if self._rng.random() < plan.drop_prob:
                dropped = True
        if dropped:
            walk = self.walk_of(worm.src, worm.dests)
            hops = len(walk) - 1 if walk else 1
            # Lost partway: charge a deterministic midpoint.
            hops = max(1, hops // 2) if hops > 1 else hops
            self.drops[REASON_DROP] += 1
            return REASON_DROP, hops
        if not self._links and not self._routers:
            return None
        if self.router_down(worm.src, now):
            self.drops[REASON_ROUTER] += 1
            return REASON_ROUTER, 0
        if self.ft_routing is not None:
            # Fault-aware routing: the worm lives iff the greedy
            # fault-filtered walk reaches every destination without being
            # forced across a dead hop.  This decision is authoritative —
            # a worm let through here is carried even if contention later
            # steers it differently.  When the walk fails, fall through
            # to the base walk for loss classification and traffic
            # accounting (it names the blocking fault).
            if self.ft_routing.route_walk(worm.src, worm.dests,
                                          now) is not None:
                return None
        walk = self.walk_of(worm.src, worm.dests)
        if walk is None:
            return None
        hop = self.blocking_hop(walk, now)
        if hop is None:
            return None
        reason = (REASON_ROUTER if self.router_down(walk[hop + 1], now)
                  else REASON_LINK)
        self.drops[reason] += 1
        return reason, hop
