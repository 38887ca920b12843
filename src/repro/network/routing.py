"""Routing schemes: deterministic e-cube, west-first turn model, minimal
fully-adaptive, and a fault-aware wrapper around any of them.

A routing scheme answers one question at each router: through which output
port(s) may a worm headed for destination ``dst`` leave?  Deterministic
e-cube returns exactly one port (X fully, then Y [6]); the west-first turn
model [15] returns the set of *permitted minimal* ports in a fixed
preference order (all westward hops must come first; turns into west are
prohibited), and the router picks the first whose channel is free.

The same objects also answer *path conformance* queries for the BRCP model
(:mod:`repro.brcp`): whether a worm that entered a router through some
port may leave through another.  Both questions read one rule per
scheme: the productive ports of :meth:`Mesh2D.productive
<repro.network.topology.Mesh2D.productive>` in the scheme's order, and
:meth:`Routing.turn_allowed` (injection goes anywhere, a 180-degree
reversal never, and otherwise only the scheme's ``forbidden_turns`` are
out).

:func:`make_routing` builds the three base schemes by name.
:class:`FaultAwareRouting` wraps one of them around a live fault map and
consults it at candidate-selection time: ports onto links or routers
dead *now* are pruned, minimal adaptive escapes are tried next, and
bounded non-minimal detours restore reachability around faults the base
scheme would walk straight into.  Only ``MeshNetwork.install_faults``
builds it, when ``SystemParameters.fault_aware_routing`` is set and the
plan kills a link or router; every other network routes with the base
scheme itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.network.topology import Mesh2D, OPPOSITE, Port


class RoutingError(Exception):
    """A routing scheme produced an impossible step (no candidate port, or
    a candidate that leaves the mesh) — a scheme bug or a degenerate mesh
    the scheme cannot serve, reported typed instead of via ``assert``."""


class Routing:
    """Interface of a base routing scheme R."""

    #: Short identifier used in experiment tables.
    name: str = "base"
    #: ``(incoming, outgoing)`` port pairs the scheme forbids besides the
    #: 180-degree reversal.  Each scheme's set names both Y directions,
    #: so it reads the same as pairs of travel directions.
    forbidden_turns: frozenset[tuple[Port, Port]] = frozenset()

    def __init__(self, mesh: Mesh2D) -> None:
        self.mesh = mesh
        #: Memoized ``(ports, False)`` results of :meth:`hop_candidates`,
        #: keyed ``current * num_nodes + dst``.  Base candidate sets are
        #: pure functions of the topology, so the cache never goes stale
        #: (:class:`FaultAwareRouting` overrides the method and skips it).
        self._hop_memo: dict[int, tuple[list[Port], bool]] = {}
        self._memo_enabled = True
        self._num_nodes = mesh.num_nodes

    def set_memoize(self, enabled: bool) -> None:
        """Enable/disable candidate memoization (the cache is cleared
        either way).  The test oracle (``tests/reference_kernel.py``)
        disables it, so the memo cache is checked against lookups
        computed afresh every time."""
        self._memo_enabled = enabled
        self._hop_memo.clear()

    def candidates(self, current: int, dst: int) -> list[Port]:
        """Permitted output ports at ``current`` for a worm headed to
        ``dst``, in preference order.  Empty list means ``current == dst``.

        Callers must treat the returned list as immutable: the hot path
        serves it from the memo cache.
        """
        raise NotImplementedError

    def hop_candidates(self, current: int, dst: int,
                       in_port: Optional[Port] = None, misroutes: int = 0,
                       now: int = 0) -> tuple[list[Port], bool]:
        """Traversal-time candidate ports: ``(ports, is_detour)``.

        The router calls this (not :meth:`candidates`) at output
        allocation so the fault-aware wrapper can filter per hop.  Base
        schemes ignore the extra context and never detour, which makes
        the result a pure function of ``(current, dst)`` — memoized here,
        tuple and all, so the steady-state hot path is one dict probe.
        """
        if self._memo_enabled:
            key = current * self._num_nodes + dst
            hit = self._hop_memo.get(key)
            if hit is None:
                hit = (self.candidates(current, dst), False)
                self._hop_memo[key] = hit
            return hit
        return self.candidates(current, dst), False

    def route_hops(self, src: int, dst: int) -> list[int]:
        """Node sequence (excluding ``src``) of the route the scheme takes
        when every preferred channel is free.  Only tests call it, to
        check a routing function's walk; the simulator routes hop by hop
        through :meth:`candidates`.

        Raises :class:`RoutingError` when the scheme offers no candidate
        port short of the destination or routes off the mesh edge.
        """
        path = []
        current = src
        while current != dst:
            ports = self.candidates(current, dst)
            if not ports:
                raise RoutingError(
                    f"{self.name}: no candidate port at node {current} "
                    f"toward {dst}")
            port = ports[0]
            nxt = self.mesh.neighbor(current, port)
            if nxt is None:
                raise RoutingError(
                    f"{self.name}: walked off the mesh at node {current} "
                    f"through {port.name} toward {dst}")
            path.append(nxt)
            current = nxt
        return path

    def turn_allowed(self, incoming: Optional[Port], outgoing: Port) -> bool:
        """May a worm that *entered* a router through ``incoming`` leave
        through ``outgoing``?  Injection (``incoming`` None or LOCAL) may
        take any port; leaving through the input port is a 180-degree
        reversal and never allowed; otherwise only the scheme's
        :attr:`forbidden_turns` are.  BRCP path validation and the
        fault-aware candidate filter both ask this."""
        if incoming is None or incoming == Port.LOCAL:
            return True
        return (outgoing != incoming
                and (incoming, outgoing) not in self.forbidden_turns)


class ECubeRouting(Routing):
    """Dimension-ordered XY routing: resolve X offset fully, then Y [6]."""

    name = "ecube"
    #: Once travelling along Y, never turn into X.
    forbidden_turns = frozenset((y, x) for y in (Port.NORTH, Port.SOUTH)
                                for x in (Port.EAST, Port.WEST))

    def candidates(self, current: int, dst: int) -> list[Port]:
        (xport, _), (yport, _) = self.mesh.productive(current, dst)
        if xport is not None:
            return [xport]
        return [yport] if yport is not None else []


class WestFirstRouting(Routing):
    """West-first turn model [15]: all westward hops first; the two turns
    into west (N->W and S->W) are prohibited, as are 180-degree
    reversals.  Eastward traffic routes fully adaptively among the minimal
    {E, N, S} directions.
    """

    name = "westfirst"
    #: The two turns into west.
    forbidden_turns = frozenset({(Port.NORTH, Port.WEST),
                                 (Port.SOUTH, Port.WEST)})

    def candidates(self, current: int, dst: int) -> list[Port]:
        (xport, _), (yport, _) = self.mesh.productive(current, dst)
        if xport is Port.WEST:
            # Must complete all west hops before anything else.
            return [xport]
        return [p for p in (xport, yport) if p is not None]


class FullyAdaptiveRouting(Routing):
    """Minimal fully-adaptive routing [7]: any productive direction at
    every hop; only 180-degree reversals are banned.

    Duato's theory makes this deadlock-free with escape virtual channels,
    which this model does not simulate (a documented deviation, see
    DESIGN.md).  With every turn allowed, the channels of one virtual
    network can close a cycle, and DSM traffic does close one:
    full-generator chaos workloads re-run under ``mi-ua-fa`` end in
    :class:`~repro.sim.engine.Deadlock` (a hold-and-wait cycle of 8-14
    unicasts) in 5 of seeds 0-119, all fault-free, and under
    ``mi-ma-fa`` in 1 (seed 54, during its fault storm).  The
    invalidation sweeps run one transaction at a time on an idle mesh.
    The routing's value for the paper is the extra BRCP flexibility: a
    worm may cover destinations along *any* monotone (diagonal) chain,
    not just rows and columns.
    """

    name = "adaptive"

    def candidates(self, current: int, dst: int) -> list[Port]:
        (xport, xhops), (yport, yhops) = self.mesh.productive(current, dst)
        # Prefer the dimension with the larger remaining offset, so the
        # deterministic tie-break keeps paths roughly diagonal.
        order = (xport, yport) if xhops >= yhops else (yport, xport)
        return [p for p in order if p is not None]


#: Detour preference order: Y first so an X-dimension blockage is
#: sidestepped perpendicular to the travel direction (and vice versa for
#: the common base preferences), then the remaining directions.
DETOUR_ORDER = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


class FaultAwareRouting(Routing):
    """Fault-aware wrapper around a base routing and a live fault map.

    Per hop the wrapper selects candidates in four tiers, stopping at the
    first tier that offers a live port (a port is *live* when the link it
    crosses is up at ``now``; a dead router takes its links down):

    1. the base scheme's candidates, pruned of dead ports and of the
       turns the wrapper forbids (:meth:`turn_allowed` with no
       ``forbidden_turns``: only the reversal back out the input port);
    2. *productive* ports — any direction that decreases the distance to
       the destination (the minimal-adaptive escape; not a misroute);
    3. bounded non-minimal **detours**: live non-productive ports in
       :data:`DETOUR_ORDER`, allowed while the worm's misroute budget
       (``detour_limit``) lasts — the caller must count each taken detour;
    4. the raw base candidates.  Tier 4 means every live option is
       exhausted; the injection-time filter (:meth:`route_walk` via
       ``FaultState.filter_injection``) is authoritative and drops worms
       that would be forced across a dead hop, so a worm actually
       *in flight* here only crosses a link that died after injection —
       consistent with the model's message-granularity fault semantics.

    Termination: tiers 1/2/4 strictly decrease the distance to the
    destination (tier 4's base candidates are minimal) and tier 3 is
    budget-bounded, so no livelock is possible.
    """

    def __init__(self, base: Routing, faults, detour_limit: int) -> None:
        super().__init__(base.mesh)
        self.base = base
        self.name = f"fault-aware {base.name}"
        #: The network's live :class:`~repro.faults.state.FaultState`.
        self.faults = faults
        self.detour_limit = detour_limit

    def candidates(self, current: int, dst: int) -> list[Port]:
        return self.base.candidates(current, dst)

    # -- fault-aware candidate selection -------------------------------
    def _live(self, node: int, port: Port, now: int,
              permanent_only: bool) -> bool:
        """True when ``port`` leads onto a link that is up at ``now``."""
        nxt = self.mesh.neighbor(node, port)
        return nxt is not None and not self.faults.link_down(
            node, nxt, now, permanent_only)

    def hop_candidates(self, current: int, dst: int,
                       in_port: Optional[Port] = None, misroutes: int = 0,
                       now: int = 0,
                       permanent_only: bool = False) -> tuple[list[Port], bool]:
        base_ports = self.base.candidates(current, dst)

        def usable(port: Port) -> bool:
            return (self.turn_allowed(in_port, port)
                    and self._live(current, port, now, permanent_only))

        # Minimal escape set: the wrapper is free to use *any* live
        # distance-decreasing port (base-preferred first), because a
        # fault further along the base scheme's only minimal direction
        # may demand leaving it before the fault is adjacent.
        productive = [p for p, _ in self.mesh.productive(current, dst)
                      if p is not None]
        escape = [p for p in dict.fromkeys(base_ports + productive)
                  if usable(p)]
        if escape:
            return escape, False
        if misroutes < self.detour_limit:
            detours = [p for p in DETOUR_ORDER
                       if p not in productive and usable(p)]
            if detours:
                return detours, True
        return base_ports, False

    def route_walk(self, src: int, dests: Sequence[int], now: int = 0,
                   permanent_only: bool = False) -> Optional[list[int]]:
        """Reachability walk from ``src`` through ``dests`` in order.

        A deterministic depth-first search over the same per-hop
        candidate sets the router itself consults, always expanding the
        most-preferred candidate first — so whenever the pure greedy
        walk succeeds, this returns exactly that walk.  Unlike the
        greedy walk it backtracks out of fault cul-de-sacs, making the
        result a true deliverability predicate: a non-``None`` walk
        crosses only live hops and legal turns; ``None`` means no
        live walk exists within the detour budget.

        ``permanent_only=True`` restricts the fault check to the known
        fault map (permanent faults already started).
        """
        walk = [src]
        current = src
        in_port: Optional[Port] = None
        misroutes = 0
        for dst in dests:
            if current == dst:
                continue
            leg = self._walk_leg(current, dst, in_port, misroutes, now,
                                 permanent_only)
            if leg is None:
                return None
            nodes, in_port, misroutes = leg
            walk.extend(nodes)
            current = dst
        return walk

    def _walk_leg(self, src: int, dst: int, in_port: Optional[Port],
                  misroutes: int, now: int, permanent_only: bool):
        """One ``src -> dst`` leg of :meth:`route_walk`: DFS returning
        ``(nodes_after_src, final_in_port, final_misroutes)`` or None.

        States are ``(node, in_port)`` dominated by the lowest misroute
        count seen (fewer misroutes can only widen future candidates),
        which bounds the search at ``5 * num_nodes`` states.
        """
        link_down = self.faults.link_down
        best: dict[tuple[int, Optional[Port]], int] = {(src, in_port):
                                                       misroutes}
        stack: list[tuple[int, Optional[Port], int, tuple]] = [
            (src, in_port, misroutes, ())]
        while stack:
            node, inp, mis, path = stack.pop()
            ports, is_detour = self.hop_candidates(
                node, dst, inp, mis, now, permanent_only)
            nmis = mis + 1 if is_detour else mis
            # Reversed push so the most-preferred port is explored first.
            for port in reversed(ports):
                if not self.turn_allowed(inp, port):
                    continue
                nxt = self.mesh.neighbor(node, port)
                if nxt is None or link_down(node, nxt, now, permanent_only):
                    continue
                back = OPPOSITE[port]
                if nxt == dst:
                    nodes = [n for n, _ in path] + [nxt]
                    return nodes, back, nmis
                key = (nxt, back)
                if best.get(key, 1 << 30) <= nmis:
                    continue
                best[key] = nmis
                stack.append((nxt, back, nmis, path + ((nxt, back),)))
        return None


_SCHEMES = {cls.name: cls for cls in (ECubeRouting, WestFirstRouting,
                                      FullyAdaptiveRouting)}


def make_routing(name: str, mesh: Mesh2D) -> Routing:
    """Factory for the base schemes: ``"ecube"``, ``"westfirst"`` or
    ``"adaptive"``."""
    try:
        return _SCHEMES[name](mesh)
    except KeyError:
        raise ValueError(f"unknown routing scheme {name!r}; "
                         f"choose from {sorted(_SCHEMES)}") from None
