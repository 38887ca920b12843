"""Routing schemes: deterministic e-cube, west-first turn model, minimal
fully-adaptive, and fault-aware wrappers around any of them.

A routing scheme answers one question at each router: through which output
port(s) may a worm headed for destination ``dst`` leave?  Deterministic
e-cube returns exactly one port (X fully, then Y [6]); the west-first turn
model [15] returns the set of *permitted minimal* ports in a fixed
preference order (all westward hops must come first; turns into west are
prohibited), and the router picks the first whose channel is free.

The same objects also answer *path conformance* queries for the BRCP model
(:mod:`repro.brcp`): whether a worm that has already travelled in some
direction may continue with a given next hop.

:class:`FaultAwareRouting` wraps a base scheme (registered as
``"<base>+ft"``, e.g. ``"ecube+ft"`` / ``"fa+ft"``) and consults the live
fault map at candidate-selection time: ports onto links or routers dead
*now* are pruned, minimal adaptive escapes are tried next, and bounded
non-minimal detours restore reachability around faults the base scheme
would walk straight into.  Unarmed (no faults installed, or an empty
plan), the wrapper is a pure delegate — candidate sets, turn rules, and
therefore whole-simulation results are bit-identical to the base scheme.
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

    def __init__(self, mesh: Mesh2D) -> None:
        self.mesh = mesh
        #: Memoized ``(ports, False)`` results of :meth:`hop_candidates`,
        #: keyed ``current * num_nodes + dst``.  Base candidate sets are
        #: pure functions of the topology, so the cache is valid until a
        #: fault map attaches (see :meth:`invalidate_memo` and
        #: :class:`FaultAwareRouting`) or memoization is switched off.
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

    def invalidate_memo(self) -> None:
        """Drop every cached candidate set.  Must be called whenever the
        inputs of :meth:`candidates` change — today that is exactly one
        event, a fault map attaching to a fault-aware wrapper."""
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
        allocation so fault-aware wrappers can filter per hop.  Base
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

    def route_hops(self, src: int, dst: int,
                   prefer_first: bool = True) -> list[int]:
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
            port = ports[0 if prefer_first else -1]
            nxt = self.mesh.neighbor(current, port)
            if nxt is None:
                raise RoutingError(
                    f"{self.name}: walked off the mesh at node {current} "
                    f"through {port.name} toward {dst}")
            path.append(nxt)
            current = nxt
        return path

    def turn_allowed(self, incoming: Optional[Port], outgoing: Port) -> bool:
        """May a worm that *entered* a router through ``incoming`` (an input
        port, i.e. it was travelling in direction OPPOSITE[incoming]) leave
        through ``outgoing``?  ``incoming is None`` means injection at the
        source.  This is the per-hop legality test used to validate BRCP
        multidestination paths.
        """
        raise NotImplementedError


class ECubeRouting(Routing):
    """Dimension-ordered XY routing: resolve X offset fully, then Y [6]."""

    name = "ecube"

    def candidates(self, current: int, dst: int) -> list[Port]:
        cx, cy = self.mesh.coords(current)
        dx, dy = self.mesh.coords(dst)
        if dx > cx:
            return [Port.EAST]
        if dx < cx:
            return [Port.WEST]
        if dy > cy:
            return [Port.NORTH]
        if dy < cy:
            return [Port.SOUTH]
        return []

    def turn_allowed(self, incoming: Optional[Port], outgoing: Port) -> bool:
        if incoming is None:
            return True
        travelling = {Port.NORTH: Port.SOUTH, Port.SOUTH: Port.NORTH,
                      Port.EAST: Port.WEST, Port.WEST: Port.EAST}[incoming]
        # XY: once travelling along Y, never turn back into X; and no
        # 180-degree reversals.
        if travelling in (Port.NORTH, Port.SOUTH):
            return outgoing == travelling
        # Travelling along X: may continue straight or turn into Y.
        if outgoing == {Port.EAST: Port.WEST, Port.WEST: Port.EAST}[travelling]:
            return False
        return True


class WestFirstRouting(Routing):
    """West-first turn model [15]: all westward hops first; the two turns
    into west (N->W and S->W) are prohibited, as are 180-degree
    reversals.  Eastward traffic routes fully adaptively among the minimal
    {E, N, S} directions.
    """

    name = "westfirst"

    def candidates(self, current: int, dst: int) -> list[Port]:
        cx, cy = self.mesh.coords(current)
        dx, dy = self.mesh.coords(dst)
        if dx < cx:
            # Must complete all west hops before anything else.
            return [Port.WEST]
        ports: list[Port] = []
        if dx > cx:
            ports.append(Port.EAST)
        if dy > cy:
            ports.append(Port.NORTH)
        elif dy < cy:
            ports.append(Port.SOUTH)
        return ports

    def turn_allowed(self, incoming: Optional[Port], outgoing: Port) -> bool:
        if incoming is None:
            return True
        travelling = {Port.NORTH: Port.SOUTH, Port.SOUTH: Port.NORTH,
                      Port.EAST: Port.WEST, Port.WEST: Port.EAST}[incoming]
        # No 180-degree reversal.
        if outgoing == {Port.NORTH: Port.SOUTH, Port.SOUTH: Port.NORTH,
                        Port.EAST: Port.WEST, Port.WEST: Port.EAST}[travelling]:
            return False
        # The only prohibited turns are into west from a Y direction.
        if outgoing == Port.WEST and travelling in (Port.NORTH, Port.SOUTH):
            return False
        return True


class FullyAdaptiveRouting(Routing):
    """Minimal fully-adaptive routing [7]: any productive direction at
    every hop; only 180-degree reversals are banned.

    Duato's theory makes this deadlock-free with escape virtual channels,
    which this model does not simulate separately — the request/reply
    virtual networks double as the escape resource for the light loads
    studied here (documented deviation).  Its value for the paper is the
    extra BRCP flexibility: a worm may cover destinations along *any*
    monotone (diagonal) chain, not just rows and columns.
    """

    name = "adaptive"

    def candidates(self, current: int, dst: int) -> list[Port]:
        cx, cy = self.mesh.coords(current)
        dx, dy = self.mesh.coords(dst)
        ports: list[Port] = []
        # Prefer the dimension with the larger remaining offset, so the
        # deterministic tie-break keeps paths roughly diagonal.
        xport = Port.EAST if dx > cx else Port.WEST if dx < cx else None
        yport = Port.NORTH if dy > cy else Port.SOUTH if dy < cy else None
        if abs(dx - cx) >= abs(dy - cy):
            ports = [p for p in (xport, yport) if p is not None]
        else:
            ports = [p for p in (yport, xport) if p is not None]
        return ports

    def turn_allowed(self, incoming: Optional[Port], outgoing: Port) -> bool:
        if incoming is None:
            return True
        travelling = OPPOSITE[incoming]
        return outgoing != OPPOSITE[travelling]


#: Detour preference order: Y first so an X-dimension blockage is
#: sidestepped perpendicular to the travel direction (and vice versa for
#: the common base preferences), then the remaining directions.
DETOUR_ORDER = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


class FaultAwareRouting(Routing):
    """Fault-aware wrapper around a base routing (``"<base>+ft"``).

    Per hop the wrapper selects candidates in four tiers, stopping at the
    first tier that offers a live port (a port is *live* when the link it
    crosses and the router it enters are both up at ``now``):

    1. the base scheme's candidates, pruned of dead ports and of the
       180-degree reversal back out the input port;
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

    With no :class:`~repro.faults.state.FaultState` attached — or one
    whose plan has no link/router faults — the wrapper is *unarmed*:
    every query delegates to the base scheme unchanged.
    """

    def __init__(self, base: Routing, detour_limit: int = 8) -> None:
        super().__init__(base.mesh)
        self.base = base
        self.name = base.name + "+ft"
        self.detour_limit = detour_limit
        #: Live fault map, attached by ``MeshNetwork.install_faults``.
        self.faults = None

    def attach_faults(self, faults) -> None:
        """Arm the wrapper with the network's live fault state.

        Arming changes what :meth:`hop_candidates` may return, so the
        memoized candidate cache is invalidated here; while armed, the
        fault-dependent path below bypasses the cache entirely."""
        self.faults = faults
        self.invalidate_memo()

    @property
    def armed(self) -> bool:
        """True when a fault state with topology faults is attached."""
        return self.faults is not None and self.faults.topology_faults

    # -- pure delegation (identical to the base scheme when unarmed) ---
    def candidates(self, current: int, dst: int) -> list[Port]:
        return self.base.candidates(current, dst)

    def turn_allowed(self, incoming: Optional[Port], outgoing: Port) -> bool:
        """Unarmed: the base scheme's turn rule.  Armed: detours make
        walks non-minimal, so only 180-degree reversals stay banned (the
        relaxed rule fully-adaptive routing uses)."""
        if not self.armed:
            return self.base.turn_allowed(incoming, outgoing)
        if incoming is None:
            return True
        return outgoing != incoming

    # -- fault-aware candidate selection -------------------------------
    def _alive(self, node: int, port: Port, now: int,
               permanent_only: bool = False) -> Optional[int]:
        """Neighbor through ``port`` when the hop is live, else None."""
        nxt = self.mesh.neighbor(node, port)
        if nxt is None:
            return None
        f = self.faults
        if (f.link_down(node, nxt, now, permanent_only)
                or f.router_down(nxt, now, permanent_only)):
            return None
        return nxt

    def _productive(self, current: int, dst: int) -> list[Port]:
        """Every distance-decreasing direction (minimal escape set)."""
        cx, cy = self.mesh.coords(current)
        dx, dy = self.mesh.coords(dst)
        ports: list[Port] = []
        if dx > cx:
            ports.append(Port.EAST)
        elif dx < cx:
            ports.append(Port.WEST)
        if dy > cy:
            ports.append(Port.NORTH)
        elif dy < cy:
            ports.append(Port.SOUTH)
        return ports

    def hop_candidates(self, current: int, dst: int,
                       in_port: Optional[Port] = None, misroutes: int = 0,
                       now: int = 0,
                       permanent_only: bool = False) -> tuple[list[Port], bool]:
        if not self.armed:
            # Pure delegate: reuse the memoized base-class fast path
            # (``self.candidates`` forwards to the base scheme).
            if self._memo_enabled:
                key = current * self._num_nodes + dst
                hit = self._hop_memo.get(key)
                if hit is None:
                    hit = (self.base.candidates(current, dst), False)
                    self._hop_memo[key] = hit
                return hit
            return self.base.candidates(current, dst), False
        base_ports = self.base.candidates(current, dst)
        # The reversal port: a worm that entered through ``in_port`` was
        # travelling OPPOSITE[in_port], so leaving through ``in_port``
        # itself is the 180-degree turn.  LOCAL means injection here.
        reverse = in_port if in_port is not None and in_port is not Port.LOCAL \
            else None
        alive = [p for p in base_ports if p is not reverse
                 and self._alive(current, p, now, permanent_only) is not None]
        # Minimal escape set: armed routing is free to use *any* live
        # distance-decreasing port (base-preferred first), because a
        # fault further along the base scheme's only minimal direction
        # may demand leaving it before the fault is adjacent.
        productive = self._productive(current, dst)
        escape = alive + [p for p in productive
                          if p not in base_ports and p is not reverse
                          and self._alive(current, p, now,
                                          permanent_only) is not None]
        if escape:
            return escape, False
        if misroutes < self.detour_limit:
            detours = [p for p in DETOUR_ORDER
                       if p not in productive and p is not reverse
                       and self._alive(current, p, now,
                                       permanent_only) is not None]
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
        faults = self.faults
        check = self.armed
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
                if nxt is None:
                    continue
                if check and (faults.link_down(node, nxt, now,
                                               permanent_only)
                              or faults.router_down(nxt, now,
                                                    permanent_only)):
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

#: Short aliases accepted by :func:`make_routing` (``"fa+ft"`` etc.).
_ALIASES = {"ec": "ecube", "wf": "westfirst", "fa": "adaptive"}

#: Suffix selecting the fault-aware wrapper.
FT_SUFFIX = "+ft"


def available_routings() -> list[str]:
    """Every registered routing scheme name, base schemes first."""
    names = sorted(_SCHEMES)
    return names + [n + FT_SUFFIX for n in names]


def make_routing(name: str, mesh: Mesh2D,
                 detour_limit: int = 8) -> Routing:
    """Factory: ``"ecube"``, ``"westfirst"``, ``"adaptive"`` (aliases
    ``"ec"``/``"wf"``/``"fa"``), or any of them with a ``"+ft"`` suffix
    for the fault-aware wrapper (e.g. ``"fa+ft"``, ``"wf+ft"``)."""
    base_name, sep, suffix = name.partition("+")
    base_name = _ALIASES.get(base_name, base_name)
    if sep and suffix != "ft":
        raise ValueError(f"unknown routing modifier {'+' + suffix!r} in "
                         f"{name!r}; only {FT_SUFFIX!r} is supported")
    try:
        base = _SCHEMES[base_name](mesh)
    except KeyError:
        raise ValueError(f"unknown routing scheme {name!r}; "
                         f"choose from {available_routings()}") from None
    if sep:
        return FaultAwareRouting(base, detour_limit=detour_limit)
    return base


def walk_is_conformant(routing: Routing,
                       nodes: Sequence[int]) -> bool:
    """True iff the *hop-by-hop* node walk (adjacent nodes, starting at the
    source) only uses turns the base routing permits.  This is the BRCP
    validity test at the level of a concrete walk.
    """
    mesh = routing.mesh
    incoming: Optional[Port] = None
    for here, there in zip(nodes, nodes[1:]):
        if mesh.manhattan(here, there) != 1:
            raise ValueError(f"walk {here}->{there} is not a single hop")
        out = mesh.port_towards(here, there)
        if not routing.turn_allowed(incoming, out):
            return False
        from repro.network.topology import OPPOSITE
        incoming = OPPOSITE[out]
    return True
