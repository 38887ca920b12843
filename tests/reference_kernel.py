"""Frozen reference kernel: the test oracle for ``MeshNetwork``.

An object-per-router cycle engine kept, verbatim in behaviour, from
before the network's hot-path optimisation: ``LegacyRouter`` and
``InputVC`` objects with tuple-keyed dict state, ``sorted(busy)`` on
every cycle, string-tagged move tuples, a generator clock process that
steps every cycle (no cycle skipping), and routing candidates computed
afresh on every lookup.  ``LegacyMeshNetwork`` reuses only the
network's non-cycle surface from
:class:`~repro.network.network.MeshNetwork` — injection and its fault
filter, delivery, drops, statistics and the deadlock message — and
replaces its state, clock, step loop and wait diagnosis.

The golden suite (``tests/test_golden_kernel.py``) and the differential
fuzzer (``tests/test_kernel_differential.py``) require ``MeshNetwork``
to match it bit-for-bit on every counter outside
:data:`KERNEL_PRIVATE_COUNTERS`.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Optional

from repro.network.network import MeshNetwork
from repro.network.topology import MESH_PORTS, OPPOSITE, Port
from repro.network.worm import Worm, WormKind
from repro.sim import Timeout

#: Counters in :meth:`MeshNetwork.phase_counters` that describe *how* a
#: kernel ran rather than *what* it simulated.  Equality checks against
#: the oracle must exclude exactly this set; everything else is part of
#: the simulated behaviour and must match bit-for-bit.
KERNEL_PRIVATE_COUNTERS = frozenset({
    "busy_sorts",          # the oracle sorts every cycle
    "busy_sort_rate",      # derived from busy_sorts
    "phase_decide_visits",  # one per busy node per stepped cycle
    "cycles_stepped",      # MeshNetwork skips cycles the oracle steps
    "cycles_skipped",      # ... but stepped + skipped is invariant
})


class VCState(Enum):
    """Input virtual-channel control states."""

    IDLE = "idle"
    ROUTING = "routing"
    DECIDE = "decide"
    FORWARD = "forward"
    CONSUME = "consume"
    PARK = "park"


class InputVC:
    """One input virtual channel: flit FIFO plus control state."""

    __slots__ = ("port", "vnet", "buffer", "state", "countdown", "worm",
                 "out_port", "absorb", "ctx", "in_active")

    def __init__(self, port: Port, vnet: int) -> None:
        self.port = port
        self.vnet = vnet
        #: FIFO of ``(worm, flit_index)``; index 0 is the header,
        #: ``size_flits - 1`` the tail.
        self.buffer: deque[tuple[Worm, int]] = deque()
        self.state = VCState.IDLE
        self.countdown = 0
        self.worm: Optional[Worm] = None
        self.out_port: Optional[Port] = None
        self.absorb = False
        #: DECIDE bookkeeping so retries never double-acquire resources.
        self.ctx: dict = {}
        #: True while registered in the router's active-VC set.
        self.in_active = False

    def reset_control(self) -> None:
        """Return to IDLE after the current worm's tail left this VC."""
        self.state = VCState.IDLE
        self.countdown = 0
        self.worm = None
        self.out_port = None
        self.absorb = False
        self.ctx = {}


class LegacyRouter:
    """One mesh router: tuple-keyed dicts and full scans."""

    def __init__(self, node: int, num_vnets: int, vc_depth: int,
                 router_delay: int, interface) -> None:
        self.node = node
        self.num_vnets = num_vnets
        self.vc_depth = vc_depth
        self.router_delay = router_delay
        self.interface = interface
        ports = list(MESH_PORTS) + [Port.LOCAL]
        self.in_vcs: dict[tuple[Port, int], InputVC] = {
            (p, v): InputVC(p, v) for p in ports for v in range(num_vnets)}
        self._vc_list = list(self.in_vcs.values())
        self.out_owner: dict[tuple[Port, int], Optional[InputVC]] = {
            (p, v): None for p in MESH_PORTS for v in range(num_vnets)}
        self._rr: dict[Port, int] = {p: 0 for p in MESH_PORTS}
        self.inject_queue: dict[int, deque[Worm]] = {
            v: deque() for v in range(num_vnets)}
        self._inject_active: dict[int, Optional[tuple[Worm, int]]] = {
            v: None for v in range(num_vnets)}
        self.links: dict[tuple[Port, int], tuple[LegacyRouter, InputVC]] = {}
        self._active_vcs: dict[InputVC, None] = {}
        self._owned = 0
        self._sinks = 0

    def set_link(self, port: Port, vnet: int, neighbor: "LegacyRouter",
                 dst_vc: InputVC) -> None:
        self.links[(port, vnet)] = (neighbor, dst_vc)

    def activate_vc(self, vc: InputVC) -> None:
        """Register a VC that just received work."""
        if not vc.in_active:
            vc.in_active = True
            self._active_vcs[vc] = None

    def enqueue_inject(self, worm: Worm, front: bool = False) -> None:
        queue = self.inject_queue[worm.vnet]
        if front:
            queue.appendleft(worm)
        else:
            queue.append(worm)

    def is_quiescent(self) -> bool:
        if self._active_vcs:
            return False
        for v in range(self.num_vnets):
            if self.inject_queue[v] or self._inject_active[v] is not None:
                return False
        return True

    # ------------------------------------------------------------------
    # Phase 1: header routing countdowns and DECIDE resolution
    # ------------------------------------------------------------------
    def phase_decide(self, network: "LegacyMeshNetwork") -> None:
        retire = None
        for vc in list(self._active_vcs):
            if vc.state is VCState.IDLE and not vc.buffer:
                if retire is None:
                    retire = [vc]
                else:
                    retire.append(vc)
                continue
            if vc.state is VCState.IDLE and vc.buffer:
                worm, idx = vc.buffer[0]
                assert idx == 0, "non-header flit at head of idle VC"
                vc.worm = worm
                vc.state = VCState.ROUTING
                vc.countdown = max(0, self.router_delay - 1)
                if vc.countdown == 0:
                    vc.state = VCState.DECIDE
                    self._resolve(vc, network)
            elif vc.state is VCState.ROUTING:
                vc.countdown -= 1
                if vc.countdown <= 0:
                    vc.state = VCState.DECIDE
                    self._resolve(vc, network)
            elif vc.state is VCState.DECIDE:
                self._resolve(vc, network)
        if retire is not None:
            for vc in retire:
                vc.in_active = False
                del self._active_vcs[vc]

    def _resolve(self, vc: InputVC, network: "LegacyMeshNetwork") -> None:
        worm = vc.worm
        assert worm is not None
        if worm.next_dest != self.node:
            self._alloc_output(vc, network, worm.next_dest, absorb=False)
            return
        kind = worm.kind
        final = worm.at_last_leg
        if kind is WormKind.IGATHER:
            if final:
                self._to_consume(vc)
            else:
                self._resolve_gather(vc, network, worm)
            return
        if kind is WormKind.CHAIN and not final:
            self._resolve_chain(vc, network, worm)
            return
        if kind is WormKind.IRESERVE and not vc.ctx.get("reserved"):
            if not self._do_reservations(worm):
                return
            vc.ctx["reserved"] = True
        if final:
            self._to_consume(vc)
            return
        delivers = worm.delivers_at(self.node)
        if delivers and not vc.ctx.get("cc"):
            if not self.interface.try_acquire_cc():
                return
            vc.ctx["cc"] = True
        next_dest = worm.dests[worm.ptr + 1]
        if self._alloc_output(vc, network, next_dest, absorb=delivers):
            worm.advance()

    def _resolve_gather(self, vc: InputVC, network: "LegacyMeshNetwork",
                        worm: Worm) -> None:
        key = network.gather_key(worm, self.node)
        if not vc.ctx.get("picked"):
            count = self.interface.iack.try_pickup(key)
            if count is None:
                if network.params.deferred_delivery:
                    if self.interface.iack.try_park(key, worm):
                        worm.advance()
                        vc.state = VCState.PARK
                        self._sinks += 1
                return
            worm.acks_carried += count
            vc.ctx["picked"] = True
        next_dest = worm.dests[worm.ptr + 1]
        if self._alloc_output(vc, network, next_dest, absorb=False):
            worm.advance()

    def _resolve_chain(self, vc: InputVC, network: "LegacyMeshNetwork",
                       worm: Worm) -> None:
        if not vc.ctx.get("cc"):
            if not self.interface.try_acquire_cc():
                return
            vc.ctx["cc"] = True
        if not vc.ctx.get("delivered"):
            vc.ctx["delivered"] = True
            network.deliver_chain(self.node, worm)
        if (worm.txn, self.node) not in self.interface.chain_done:
            return
        next_dest = worm.dests[worm.ptr + 1]
        if self._alloc_output(vc, network, next_dest, absorb=True):
            self.interface.chain_done.discard((worm.txn, self.node))
            worm.advance()

    def _do_reservations(self, worm: Worm) -> bool:
        iack = self.interface.iack
        if worm.delivers_at(self.node) and self.node not in worm.no_reserve:
            if not iack.try_reserve((worm.txn, 0)):
                return False
        if self.node in worm.reserve_only or self.node in worm.extra_reserve:
            if not iack.try_reserve((worm.txn, 1)):
                return False
        return True

    def _to_consume(self, vc: InputVC) -> None:
        if not vc.ctx.get("cc"):
            if not self.interface.try_acquire_cc():
                return
            vc.ctx["cc"] = True
        vc.state = VCState.CONSUME
        self._sinks += 1

    def _alloc_output(self, vc: InputVC, network: "LegacyMeshNetwork",
                      dest: int, absorb: bool) -> bool:
        worm = vc.worm
        ports, detour = network.routing.hop_candidates(
            self.node, dest, vc.port, worm.misroutes, network.sim.now)
        assert ports, "output allocation for a worm already at its target"
        for port in ports:
            key = (port, vc.vnet)
            if self.out_owner[key] is None:
                self.out_owner[key] = vc
                self._owned += 1
                vc.out_port = port
                vc.absorb = absorb
                vc.state = VCState.FORWARD
                if detour:
                    worm.misroutes += 1
                    network.detours += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Phase 2: move selection
    # ------------------------------------------------------------------
    def phase_select(self, network: "LegacyMeshNetwork") -> None:
        moves = network.pending_moves
        out_owner = self.out_owner
        num_vnets = self.num_vnets
        for port in (MESH_PORTS if self._owned else ()):
            start = self._rr[port]
            for offset in range(num_vnets):
                vnet = (start + offset) % num_vnets
                vc = out_owner[(port, vnet)]
                if vc is None or vc.state is not VCState.FORWARD:
                    continue
                if not vc.buffer:
                    continue
                neighbor, dst_vc = self.links[(port, vnet)]
                if len(dst_vc.buffer) >= neighbor.vc_depth:
                    continue  # no credit downstream
                moves.append(("fwd", self, vc, port, neighbor, dst_vc))
                self._rr[port] = (vnet + 1) % num_vnets
                break
        if self._sinks:
            for vc in self._active_vcs:
                state = vc.state
                if state is VCState.CONSUME:
                    if vc.buffer:
                        moves.append(("consume", self, vc))
                elif state is VCState.PARK and vc.buffer:
                    moves.append(("park", self, vc))
        for vnet in range(num_vnets):
            if (self._inject_active[vnet] is None
                    and not self.inject_queue[vnet]):
                continue
            local_vc = self.in_vcs[(Port.LOCAL, vnet)]
            if len(local_vc.buffer) >= self.vc_depth:
                continue
            moves.append(("inject", self, vnet))

    # ------------------------------------------------------------------
    # Phase 3 helpers
    # ------------------------------------------------------------------
    def apply_inject(self, vnet: int) -> None:
        active = self._inject_active[vnet]
        if active is None:
            worm = self.inject_queue[vnet].popleft()
            active = (worm, 0)
        worm, idx = active
        local_vc = self.in_vcs[(Port.LOCAL, vnet)]
        local_vc.buffer.append((worm, idx))
        self.activate_vc(local_vc)
        idx += 1
        self._inject_active[vnet] = (worm, idx) if idx < worm.size_flits \
            else None

    def release_output(self, vc: InputVC) -> None:
        assert vc.out_port is not None
        self.out_owner[(vc.out_port, vc.vnet)] = None
        self._owned -= 1

    def release_sink(self, vc: InputVC) -> None:
        self._sinks -= 1


class LegacyMeshNetwork(MeshNetwork):
    """Mesh network driven by the frozen object-per-router step loop."""

    def __init__(self, sim, params, routing: str = "ecube") -> None:
        super().__init__(sim, params, routing)
        # The reference computes candidate sets on every lookup.
        self.routing.set_memoize(False)

    def _build_state(self) -> None:
        params = self.params
        self.routers = [LegacyRouter(node, params.num_vnets,
                                     params.vc_buffer_depth,
                                     params.router_delay,
                                     self.interfaces[node])
                        for node in self.mesh.nodes()]
        for router in self.routers:
            for port in MESH_PORTS:
                neighbor_id = self.mesh.neighbor(router.node, port)
                if neighbor_id is None:
                    continue
                neighbor = self.routers[neighbor_id]
                for vnet in range(params.num_vnets):
                    router.set_link(port, vnet, neighbor,
                                    neighbor.in_vcs[(OPPOSITE[port], vnet)])

    def _enqueue_inject(self, node: int, worm: Worm,
                        front: bool = False) -> None:
        self.routers[node].enqueue_inject(worm, front)

    def _start_clock(self) -> None:
        self.sim.spawn(self._clock(), name="network.clock")

    def _clock(self):
        tick = Timeout(1)
        step = self.step
        while True:
            if not self.busy:
                self._idle_event = self.sim.event("network.idle")
                yield self._idle_event
                self._idle_event = None
                continue
            step()
            yield tick

    def step(self) -> None:
        self.cycles_stepped += 1
        order = sorted(self.busy)
        self.busy_sorts += 1
        routers = self.routers
        for nid in order:
            routers[nid].phase_decide(self)
        self.pending_moves = []
        for nid in order:
            routers[nid].phase_select(self)
        moved = bool(self.pending_moves)
        for move in self.pending_moves:
            self._apply(move)
        self.moves_applied += len(self.pending_moves)
        self.pending_moves = []
        for nid in order:
            if routers[nid].is_quiescent():
                self.busy.discard(nid)
        nrouters = len(order)
        self.phase_decide_visits += nrouters
        if moved:
            self._stalled_cycles = 0
        elif self.busy and not self._any_routing(
                [routers[n] for n in order]):
            self._stalled_cycles += 1
            if self._stalled_cycles >= self.deadlock_threshold:
                self._report_deadlock()

    @staticmethod
    def _any_routing(active) -> bool:
        for router in active:
            for vc in router._active_vcs:
                if vc.state is VCState.ROUTING:
                    return True
        return False

    def _apply(self, move: tuple) -> None:
        kind = move[0]
        if kind == "fwd":
            _, router, vc, port, neighbor, dst_vc = move
            flit = vc.buffer.popleft()
            worm, idx = flit
            dst_vc.buffer.append(flit)
            neighbor.activate_vc(dst_vc)
            self.busy.add(neighbor.node)
            worm.flit_hops += 1
            self.total_flit_hops += 1
            if idx == worm.size_flits - 1:  # tail left this router
                if vc.absorb:
                    router.interface.release_cc()
                    if worm.kind is not WormKind.CHAIN:
                        self._deliver(router.node, worm, final=False)
                router.release_output(vc)
                vc.reset_control()
        elif kind == "consume":
            _, router, vc = move
            worm, idx = vc.buffer.popleft()
            if idx == worm.size_flits - 1:
                router.interface.release_cc()
                router.release_sink(vc)
                vc.reset_control()
                self._deliver(router.node, worm, final=True)
        elif kind == "park":
            _, router, vc = move
            worm, idx = vc.buffer.popleft()
            if idx == worm.size_flits - 1:
                router.release_sink(vc)
                vc.reset_control()
                key = self.gather_key(worm, router.node)
                released = router.interface.iack.finish_park_drain(key)
                if released is not None:
                    self._reinject(router.node, released)
        elif kind == "inject":
            _, router, vnet = move
            router.apply_inject(vnet)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown move {kind!r}")

    # ------------------------------------------------------------------
    # Deadlock diagnosis over the router objects
    # ------------------------------------------------------------------
    def _report_deadlock(self) -> None:
        waits, where = {}, {}
        for nid in sorted(self.busy):
            router = self.routers[nid]
            for vc in router._vc_list:
                if vc.worm is None:
                    continue
                diag = self._diagnose_wait(router, vc)
                if diag is not None:
                    waits[vc] = diag
                    where[vc] = (vc.worm, nid)
        raise self._deadlock_error(waits, where)

    def _diagnose_wait(self, router, vc):
        worm = vc.worm
        node = router.node
        iface = router.interface
        if vc.state is VCState.FORWARD:
            if not vc.buffer or vc.out_port is None:
                return None
            neighbor, dst_vc = router.links[(vc.out_port, vc.vnet)]
            if len(dst_vc.buffer) < neighbor.vc_depth:
                return None
            return (f"buffer credit on the {vc.out_port.name} link into "
                    f"node {neighbor.node}",
                    [dst_vc] if dst_vc.worm is not None else [])
        if vc.state is not VCState.DECIDE:
            return None
        if worm.next_dest == node:
            kind = worm.kind
            final = worm.at_last_leg
            entries = iface.iack._entries
            if (kind is WormKind.IGATHER and not final
                    and not vc.ctx.get("picked")):
                key = self.gather_key(worm, node)
                if iface.iack.entry(key) is None and not iface.iack.free_slots:
                    return (f"a free i-ack buffer slot at node {node} "
                            f"(all {iface.iack.capacity} held: "
                            f"{sorted(map(repr, entries))})", [])
                return (f"the i-ack signal {key!r} at node {node} "
                        f"(reserved but not yet deposited)", [])
            if kind is WormKind.IRESERVE and not vc.ctx.get("reserved"):
                return (f"a free i-ack buffer slot at node {node} "
                        f"(all {iface.iack.capacity} held: "
                        f"{sorted(map(repr, entries))})", [])
            if kind is WormKind.CHAIN and not final:
                if not vc.ctx.get("cc") and not iface.free_cc:
                    return self._cc_wait(router, vc)
                if vc.ctx.get("delivered"):
                    return (f"the local invalidation of txn "
                            f"{worm.txn!r} at node {node}", [])
            needs_cc = final or worm.delivers_at(node)
            if needs_cc and not vc.ctx.get("cc") and not iface.free_cc:
                return self._cc_wait(router, vc)
            if final:
                return None  # draining starts next cycle
            target = worm.dests[worm.ptr + 1]
        else:
            target = worm.next_dest
        ports = self.routing.candidates(node, target)
        holders = [router.out_owner[(p, vc.vnet)] for p in ports]
        names = "/".join(p.name for p in ports)
        return (f"an output channel {names} (vnet {vc.vnet}) at node "
                f"{node} toward node {target}",
                [h for h in holders if h is not None])

    @staticmethod
    def _cc_wait(router, vc):
        holders = [v for v in router._vc_list
                   if v is not vc and v.worm is not None
                   and (v.ctx.get("cc") or v.state.value in
                        ("consume", "forward"))]
        return (f"a consumption channel at node {router.node} "
                f"(all {router.interface.total_cc} busy)", holders)
