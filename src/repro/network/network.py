"""The mesh network: one cycle engine over flat arrays.

The network advances on an integer cycle clock driven from the
simulation calendar.  Each cycle makes one pass over the *busy* nodes
in ascending node order and then applies what the pass selected:

1. decide — per node: header routing countdowns and interface actions:
   i-ack reservations, gather pickups or parking, consumption-channel
   acquisition, chain waits, and output-channel allocation;
2. select — per node, right after its decide step: at most one flit
   per output link (round-robin over the virtual networks sharing it),
   one per interface sink, and one injected flit per virtual network;
3. apply — after the pass, execute the selected moves in selection
   order, so no flit travels more than one hop per cycle.

Fusing the first two phases per node is exact: a node's decide step
writes only its own VCs, outputs and interface; its selection reads
only those plus buffer occupancies, which only apply writes; and only
the decide step has global side effects (chain-delivery callbacks,
audit events), which keep their node order.  Apply only activates VCs,
so a node can go idle only if its decide step left it without an
active VC, and the quiescence sweep checks only those nodes.

Each router has five ports (N, S, E, W, LOCAL) and one input virtual
channel (VC) per (port, virtual network).  A worm's header reaches the
head of an input VC, spends ``router_delay`` cycles in ``ROUTING``, then
stays in ``DECIDE`` until its interface actions and output allocation
succeed.  Every resource it acquires is held while it stalls
(hold-and-wait, as in real wormhole switching).  It then streams one
flit per cycle in ``FORWARD`` / ``CONSUME`` / ``PARK``.  Worm kinds map
onto interface behaviour as documented in :mod:`repro.network.worm`.

State layout (structure of arrays, "soa"): per-VC control state lives
in parallel flat lists indexed by an integer *vid* ``(node * 5 + port)
* V + vnet`` — buffer occupancy (which is also the credit state), VC
state, routing countdown, output port and the downstream VC behind it,
worm, and DECIDE context.  Output-VC ownership is indexed by *oid*
``(node * 4 + port) * V + vnet``, summarised by bit masks: per node,
the output ports with an owner; per output port, the owning vnets.
Injection work is a per-node mask of the vnets with queued or
in-flight worms.  A selected move is an int: the vid (or injection
queue index) shifted left two bits plus a ``MOVE_*`` tag.  The only
per-node objects are the :class:`RouterInterface` instances
(consumption channels, i-ack buffer file), ``net.interfaces[node]``.

Clock: ``_tick`` is one calendar callback per slice of cycles.  Its
``step`` call steps cycles inline, advancing ``sim.now`` itself and
counting each cycle after the first in ``sim.dispatched`` as if it were
a scheduled tick, until a calendar event is due or the network goes
idle; ``_tick`` then schedules the next tick.  The clock parks
off-calendar whenever no node is busy; injections and parked-worm
releases wake it.  At a verified stalled fixed point — two consecutive
cycles with no move, no routing countdown, and no fault plan installed —
``step`` jumps the clock to the cycle before the next calendar event,
bounded by the deadlock threshold, and replays that fixed point's
per-cycle ``cc_blocked`` / ``reserve_blocked`` deltas for every skipped
cycle.  The active run's cycle bound
(:attr:`repro.sim.Simulator.bound`) counts as an event due one cycle
past it, so neither stepping nor skipping carries the clock beyond
``run(until=...)`` or ``run_until_event(limit=...)``.

``tests/reference_kernel.py`` keeps the frozen object-per-router kernel
this engine replaced; the golden suite and the differential fuzzer
prove the two bit-identical.  ``phase_counters`` feeds the ``--profile``
CLI flag and ``benchmarks/harness.py``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable

from repro.config import SystemParameters
from repro.network.interface import RouterInterface
from repro.network.routing import FaultAwareRouting, make_routing
from repro.network.topology import MESH_PORTS, OPPOSITE, Mesh2D, Port
from repro.network.worm import Worm, WormKind
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.state import FaultState

#: Delivery handler signature: ``handler(node, worm, final)`` where
#: ``final`` is False for forward-and-absorb copies and chain-worm stops
#: at intermediate destinations (at a chain stop the node must
#: eventually call :meth:`MeshNetwork.signal_chain_done` for the worm
#: to move on).
DeliveryHandler = Callable[[int, Worm, bool], None]

#: Profiling hook: when set to a list (the CLI ``--profile`` flag does
#: this), every constructed network appends itself so per-phase cycle
#: counters can be reported after a command finishes.  None = disabled,
#: zero overhead beyond one comparison per network construction.
PROFILE_REGISTRY: "list[MeshNetwork] | None" = None

#: Input-VC control states.
IDLE, ROUTING, DECIDE, FORWARD, CONSUME, PARK = range(6)

#: Move tags (select → apply), the low two bits of a move int whose
#: high bits are a vid (``MOVE_INJECT``: an injection queue index
#: ``node * V + vnet``).  A sink's tag is its VC state minus ``FORWARD``.
MOVE_FWD, MOVE_CONSUME, MOVE_PARK, MOVE_INJECT = range(4)

_IN_PORTS = 5   # N, S, E, W, LOCAL
_OUT_PORTS = 4  # N, S, E, W
_LOCAL = int(Port.LOCAL)
#: The output ports set in each 4-bit owned-port mask, ascending.
_MASK_PORTS = tuple(tuple(p for p in range(_OUT_PORTS) if mask >> p & 1)
                    for mask in range(1 << _OUT_PORTS))


class MeshNetwork:
    """Cycle-level wormhole-routed 2-D mesh."""

    def __init__(self, sim: Simulator, params: SystemParameters,
                 routing: str = "ecube") -> None:
        self.sim = sim
        self.params = params
        self.mesh = Mesh2D(params.mesh_width, params.mesh_height)
        #: The base routing, or the fault-aware wrapper around it once
        #: :meth:`install_faults` has built one.
        self.routing = make_routing(routing, self.mesh)
        #: Per-node router interfaces (consumption channels, i-ack
        #: buffer file, chain-done flags).
        self.interfaces = [RouterInterface(params.consumption_channels,
                                           params.iack_buffers)
                           for _ in range(self.mesh.num_nodes)]
        self._build_state()
        # Handlers (installed by the coherence layer; default: collect).
        self.delivered_log: list[tuple[int, int, Worm, bool]] = []
        self.on_deliver: DeliveryHandler = self._default_deliver

        # Fault injection (None = perfect network, zero overhead).
        self.faults = None
        #: Loss notification (NACK) handler: ``handler(worm, reason)``;
        #: called ``fault_nack_delay`` cycles after a worm is dropped.
        self.on_worm_dropped: Callable[[Worm, str], None] = \
            lambda worm, reason: None
        self.worms_dropped = 0
        #: Runtime invariant auditor, set when a
        #: :class:`repro.audit.Auditor` is built on this network (None =
        #: auditing off).  It records worm injections and drops,
        #: deliveries, chain waits and parked-gather resumes.
        self.audit = None
        #: Non-minimal detour hops allocated (fault-aware routing only).
        self.detours = 0

        # Statistics.
        self.total_flit_hops = 0
        self.injected = 0
        self.delivered = 0
        self.cycles_stepped = 0
        #: Cycles proved no-op and advanced past without stepping;
        #: ``cycles_stepped + cycles_skipped`` is the simulated total.
        self.cycles_skipped = 0
        #: Per-phase profiling counters: node visits of the fused
        #: decide-and-select pass, moves executed, and how often the busy
        #: order actually had to be re-sorted (``busy_sorts /
        #: cycles_stepped`` is the dirty rate).
        self.phase_decide_visits = 0
        self.moves_applied = 0
        self.busy_sorts = 0

        # Step-loop state.
        self.busy: set[int] = set()
        self._busy_order: list[int] = []
        self._busy_dirty = False
        self._idle_event = None
        self._stalled_cycles = 0
        #: Consecutive cycles with zero flit movement and no routing in
        #: progress before the network declares deadlock.  Multidest
        #: worms hold-and-wait on consumption channels and i-ack buffer
        #: entries, so a genuine circular wait (e.g. several concurrent
        #: MI-MA transactions with a single i-ack buffer) stalls forever;
        #: raising beats silently spinning.
        self.deadlock_threshold = 100_000
        # Cycle-skip machinery: consecutive provably-quiet steps (2 =
        # verified fixed point) and the per-stall-cycle counter deltas
        # measured on the fixed point's second cycle.
        self._quiet_steps = 0
        self._stall_delta: list = []
        #: Set to a list to record ``(from_cycle, skipped, next_event)``
        #: per skip — used by the golden quiescence property test.
        self._skip_trace: list | None = None
        self._start_clock()
        if PROFILE_REGISTRY is not None:
            PROFILE_REGISTRY.append(self)

    def _build_state(self) -> None:
        """Allocate the flat per-VC, per-output and per-node arrays."""
        params = self.params
        mesh = self.mesh
        num_nodes = mesh.num_nodes
        V = self._V = params.num_vnets
        self._depth = params.vc_buffer_depth
        self._router_delay = params.router_delay
        nv = num_nodes * _IN_PORTS * V
        no = num_nodes * _OUT_PORTS * V
        # Per-vid (input virtual channel) state, parallel flat arrays.
        self._occ = [0] * nv          # buffer occupancy == credit state
        self._vstate = [IDLE] * nv
        self._countdown = [0] * nv
        self._outport = [-1] * nv
        self._out_vid = [-1] * nv     # downstream VC of the owned output
        self._absorb = [False] * nv
        self._worm: list = [None] * nv
        #: DECIDE bookkeeping so retries never double-acquire resources.
        self._ctx: list = [{} for _ in range(nv)]
        #: Flit FIFOs of ``(worm, flit_index)``; index 0 is the header.
        self._buf = [deque() for _ in range(nv)]
        self._in_act = [False] * nv
        # Per-oid (output virtual channel) ownership: owning vid or -1.
        self._owner = [-1] * no
        # Per-node aggregates and worklists: round-robin pointers, bit
        # masks of owned output ports (per node) and owned vnets (per
        # port), the mask of vnets with injection work, and the VCs with
        # work in activation order (activation order = arbitration order).
        self._rr = [0] * (num_nodes * _OUT_PORTS)
        self._owned = [0] * num_nodes
        self._owned_ports = [0] * (num_nodes * _OUT_PORTS)
        self._inject_work = [0] * num_nodes
        self._active: list[dict[int, None]] = [{} for _ in range(num_nodes)]
        # Per-(node, vnet) injection queues and the worm serializing in.
        self._inj_q = [deque() for _ in range(num_nodes * V)]
        self._inj_active: list = [None] * (num_nodes * V)
        # Static maps: vid -> Port / node, oid -> downstream vid.
        self._v_port = [Port(p) for _ in range(num_nodes)
                        for p in range(_IN_PORTS) for _ in range(V)]
        self._v_node = [vid // (_IN_PORTS * V) for vid in range(nv)]
        self._down_vid = [-1] * no
        for node in mesh.nodes():
            for port in MESH_PORTS:
                neighbor = mesh.neighbor(node, port)
                if neighbor is None:
                    continue
                opp = OPPOSITE[port]
                for vnet in range(V):
                    self._down_vid[(node * _OUT_PORTS + port) * V + vnet] = \
                        (neighbor * _IN_PORTS + opp) * V + vnet

    # ------------------------------------------------------------------
    # Public API (every external mutation invalidates the fixed point)
    # ------------------------------------------------------------------
    def install_faults(self, plan) -> "FaultState":
        """Attach a :class:`~repro.faults.plan.FaultPlan` to this network;
        returns the live :class:`~repro.faults.state.FaultState`.  A
        network takes one plan: a second call raises.

        Walk-based fault queries always use the *base* routing (a BRCP
        path's legality is defined against it).  Under
        ``params.fault_aware_routing``, a plan that kills a link or
        router also wraps the base routing in a
        :class:`~repro.network.routing.FaultAwareRouting`, so per-hop
        candidate selection and the injection filter consult the live
        fault map."""
        from repro.faults.state import FaultState
        if self.faults is not None:
            raise RuntimeError("a fault plan is already installed")
        self._quiet_steps = 0
        faults = self.faults = FaultState(plan, self.mesh, self.routing)
        if self.params.fault_aware_routing and faults.topology_faults:
            self.routing = faults.ft_routing = FaultAwareRouting(
                self.routing, faults, self.params.detour_limit)
        return faults

    def inject(self, worm: Worm) -> None:
        """Hand a worm to its source router for injection.

        Under an installed fault plan the worm may instead be lost: its
        traffic up to the failure point is charged, the loss is counted
        in ``worms_dropped``, and (when NACKs are enabled)
        ``on_worm_dropped`` fires after the notification delay.  A lost
        worm never reaches a router.
        """
        if not 0 <= worm.src < self.mesh.num_nodes:
            raise ValueError(f"source {worm.src} outside the mesh")
        for dest in worm.dests:
            if not 0 <= dest < self.mesh.num_nodes:
                raise ValueError(f"destination {dest} outside the mesh")
        fate = None
        if self.faults is not None:
            fate = self.faults.filter_injection(worm, self.sim.now)
        if self.audit is not None:
            self.audit.on_worm_inject(worm, fate)
        if fate is not None:
            self._drop(worm, *fate)
            return
        worm.injected_at = self.sim.now
        self._enqueue_inject(worm.src, worm)
        self.injected += 1
        self._mark_busy(worm.src)
        self._wake()

    def deposit_ack(self, node: int, key: Hashable, count: int = 1) -> None:
        """Node-side memory-mapped deposit of an ack signal at its router.

        If an i-gather worm was parked on the entry it resumes here.
        """
        self._quiet_steps = 0
        released = self.interfaces[node].iack.deposit(key, count)
        if released is not None:
            self._reinject(node, released)

    def signal_chain_done(self, node: int, txn: Hashable) -> None:
        """Tell a waiting chain worm that ``node`` finished its local
        invalidation for transaction ``txn``."""
        self._quiet_steps = 0
        self.interfaces[node].chain_done.add((txn, node))
        self._mark_busy(node)
        self._wake()

    def purge_txn(self, txn: Hashable) -> int:
        """Fault recovery: scrub every per-interface trace of ``txn``.

        Frees the transaction's i-ack buffer entries (marking it dead so
        straggler worms of the abandoned attempt are blackholed, see
        :meth:`IAckBufferFile.purge_txn`) and drops its chain-done flags.
        Returns the number of i-ack entries freed.
        """
        self._quiet_steps = 0
        freed = 0
        for iface in self.interfaces:
            freed += iface.iack.purge_txn(txn)
            iface.chain_done -= {k for k in iface.chain_done
                                 if k[0] == txn}
        return freed

    @staticmethod
    def gather_key(worm: Worm, node: int) -> tuple:
        """i-ack buffer key an i-gather worm uses at ``node``."""
        return (worm.txn, worm.pickup_level)

    def idle(self) -> bool:
        """True when no router has work pending."""
        return not self.busy

    def phase_counters(self) -> dict:
        """Per-phase profiling counters (the ``--profile`` CLI flag and
        the perf harness report these).

        ``moves_applied``, ``total_flit_hops``, ``injected``,
        ``delivered``, ``worms_dropped``, ``detours`` and ``swallowed``
        describe the simulated machine.  ``cycles_stepped`` /
        ``cycles_skipped`` split the simulated cycles into those stepped
        and those skipped at stalled fixed points; ``busy_sorts`` /
        ``busy_sort_rate`` count rebuilds of the busy-node order; and
        ``phase_decide_visits`` counts the fused decide-and-select node
        visits, one per busy node per stepped cycle.
        """
        cycles = self.cycles_stepped
        return {
            "cycles_stepped": cycles,
            "cycles_skipped": self.cycles_skipped,
            "phase_decide_visits": self.phase_decide_visits,
            "moves_applied": self.moves_applied,
            "busy_sorts": self.busy_sorts,
            "busy_sort_rate": self.busy_sorts / cycles if cycles else 0.0,
            "total_flit_hops": self.total_flit_hops,
            "injected": self.injected,
            "delivered": self.delivered,
            # Fault/recovery counters (one consistent view for the
            # chaos runner, audit reports, and the fault sweeps).
            "worms_dropped": self.worms_dropped,
            "detours": self.detours,
            "swallowed": sum(iface.iack.swallowed
                             for iface in self.interfaces),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _default_deliver(self, node: int, worm: Worm, final: bool) -> None:
        self.delivered_log.append((self.sim.now, node, worm, final))

    def deliver_chain(self, node: int, worm: Worm) -> None:
        """Intermediate chain-worm delivery (header has arrived): the
        auditor sees a chain wait, the handler a non-final delivery."""
        if self.audit is not None:
            self.audit.on_worm_chain_wait(node, worm)
        handler = self.on_deliver
        self.sim.call_at(self.sim.now, lambda: handler(node, worm, False))

    def _deliver(self, node: int, worm: Worm, final: bool) -> None:
        if final:
            worm.delivered_at = self.sim.now
            self.delivered += 1
        if self.audit is not None:
            self.audit.on_worm_deliver(node, worm, final)
        handler = self.on_deliver
        self.sim.call_at(self.sim.now, lambda: handler(node, worm, final))

    def _drop(self, worm: Worm, reason: str, hops: int) -> None:
        """Lose ``worm`` at injection: charge its flits' travel up to the
        failure point, count the loss, and schedule the NACK."""
        worm.injected_at = self.sim.now
        lost_hops = hops * worm.size_flits
        worm.flit_hops += lost_hops
        self.total_flit_hops += lost_hops
        self.worms_dropped += 1
        if self.params.fault_nack:
            handler = self.on_worm_dropped
            self.sim.call_after(self.params.fault_nack_delay,
                                lambda: handler(worm, reason))

    def _enqueue_inject(self, node: int, worm: Worm,
                        front: bool = False) -> None:
        """Queue ``worm`` for injection at ``node`` on its vnet."""
        self._quiet_steps = 0
        self._inject_work[node] |= 1 << worm.vnet
        queue = self._inj_q[node * self._V + worm.vnet]
        if front:
            queue.appendleft(worm)
        else:
            queue.append(worm)

    def _reinject(self, node: int, worm: Worm) -> None:
        """Resume a parked worm from this router's local port (it bypasses
        the node's outgoing controller: the router interface re-injects)."""
        if self.audit is not None:
            self.audit.on_worm_resume(node, worm)
        self._enqueue_inject(node, worm, front=True)
        self._mark_busy(node)
        self._wake()

    def _mark_busy(self, node: int) -> None:
        """Add ``node`` to the busy set, dirtying the cached step order
        only on an actual transition."""
        busy = self.busy
        if node not in busy:
            busy.add(node)
            self._busy_dirty = True

    def _wake(self) -> None:
        if self._idle_event is not None and not self._idle_event.triggered:
            self._idle_event.succeed()

    # ------------------------------------------------------------------
    # Clock: one tick per calendar slice
    # ------------------------------------------------------------------
    def _start_clock(self) -> None:
        self.sim.call_at(self.sim.now, self._tick)

    def _tick(self) -> None:
        if not self.busy:
            # Park off-calendar until traffic arrives.
            event = self._idle_event = self.sim.event("network.idle")
            event.add_callback(self._wake_tick)
            return
        self.step()
        self.sim.call_after(1, self._tick)

    def _wake_tick(self, _event) -> None:
        # Resume on a fresh callback so wake ordering matches other
        # same-cycle callbacks.
        self.sim.call_at(self.sim.now, self._resume_tick)

    def _resume_tick(self) -> None:
        self._idle_event = None
        self._tick()

    # ------------------------------------------------------------------
    # The cycle loop over the flat arrays
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Step the busy network from the current cycle until calendar
        work is due, the run's cycle bound is reached, or no node is
        busy; jump verified stalled fixed points on the way.

        All cycle work runs inside this one call, so a profiler that
        wraps it (the perfbench tracer does) charges it to the network.
        """
        sim = self.sim
        peek = sim.peek
        bound = sim.bound
        # The active run's cycle bound acts as an event due one cycle
        # past it: the loop stops there like at any due event.
        stop = None if bound is None else bound + 1
        faults = self.faults
        threshold = self.deadlock_threshold
        busy = self.busy
        active = self._active
        vstate = self._vstate
        occ = self._occ
        buf = self._buf
        countdown = self._countdown
        worms = self._worm
        in_act = self._in_act
        resolve = self._resolve
        owner = self._owner
        owned = self._owned
        owned_ports = self._owned_ports
        rr = self._rr
        out_vid = self._out_vid
        depth = self._depth
        inject_work = self._inject_work
        inj_active = self._inj_active
        inj_q = self._inj_q
        v_node = self._v_node
        outport = self._outport
        absorb = self._absorb
        ctx = self._ctx
        interfaces = self.interfaces
        deliver = self._deliver
        chain = WormKind.CHAIN
        V = self._V
        # The DECIDE cycle itself accounts for one cycle of the routing
        # delay, so count down from router_delay - 1.
        delay1 = max(self._router_delay - 1, 0)
        moves: list[int] = []
        sinks: list[int] = []
        idle: list[int] = []
        while True:
            self.cycles_stepped += 1
            if self._busy_dirty:
                order = self._busy_order = sorted(busy)
                self._busy_dirty = False
                self.busy_sorts += 1
            else:
                order = self._busy_order
            armed = self._quiet_steps == 1
            if armed:
                snap = [(interfaces[n], interfaces[n].cc_blocked,
                         interfaces[n].iack.reserve_blocked) for n in order]
            routing = False
            # Decide, then select, one node at a time.
            for node in order:
                act = active[node]
                if act:
                    retire = None
                    # Nothing in a decide step activates VCs (apply
                    # does), so iterating the dict is safe.
                    for vid in act:
                        s = vstate[vid]
                        if s == FORWARD:
                            continue
                        if s == IDLE:
                            if not occ[vid]:
                                # Lazy cleanup: went idle last apply.
                                if retire is None:
                                    retire = [vid]
                                else:
                                    retire.append(vid)
                                continue
                            worm, idx = buf[vid][0]
                            assert idx == 0, \
                                "non-header flit at head of idle VC"
                            worms[vid] = worm
                            if delay1:
                                vstate[vid] = ROUTING
                                countdown[vid] = delay1
                                routing = True
                                continue
                            vstate[vid] = DECIDE
                            resolve(vid, node)
                            s = vstate[vid]
                        elif s == ROUTING:
                            cd = countdown[vid] - 1
                            countdown[vid] = cd
                            if cd > 0:
                                routing = True
                                continue
                            vstate[vid] = DECIDE
                            resolve(vid, node)
                            s = vstate[vid]
                        elif s == DECIDE:
                            resolve(vid, node)
                            s = vstate[vid]
                        # Draining sinks, in activation order.
                        if s > FORWARD and occ[vid]:
                            sinks.append((vid << 2) + s - FORWARD)
                    if retire is not None:
                        for vid in retire:
                            in_act[vid] = False
                            del act[vid]
                        if not act:
                            idle.append(node)
                else:
                    idle.append(node)
                ports = owned[node]
                if ports:
                    pbase = node * _OUT_PORTS
                    for port in _MASK_PORTS[ports]:
                        pi = pbase + port
                        vnets = owned_ports[pi]
                        obase = pi * V
                        if not vnets & (vnets - 1):
                            # One owner (always FORWARD): no contest.
                            vnet = vnets.bit_length() - 1
                            vid = owner[obase + vnet]
                            if occ[vid] and occ[out_vid[vid]] < depth:
                                moves.append(vid << 2)
                                vnet += 1
                                rr[pi] = vnet if vnet < V else 0
                            continue
                        start = rr[pi]
                        for offset in range(V):
                            vnet = start + offset
                            if vnet >= V:
                                vnet -= V
                            vid = owner[obase + vnet]
                            if vid < 0 or not occ[vid] \
                                    or occ[out_vid[vid]] >= depth:
                                continue  # unowned, empty or no credit
                            moves.append(vid << 2)
                            vnet += 1
                            rr[pi] = vnet if vnet < V else 0
                            break
                if sinks:
                    moves += sinks
                    sinks.clear()
                vnets = inject_work[node]
                if vnets:
                    qi = node * V
                    lvid = (node * _IN_PORTS + _LOCAL) * V
                    while vnets:
                        if vnets & 1 and occ[lvid] < depth:
                            moves.append((qi << 2) + MOVE_INJECT)
                        vnets >>= 1
                        qi += 1
                        lvid += 1

            # Apply, in selection order.
            nmoves = len(moves)
            if nmoves:
                hops = 0
                for move in moves:
                    tag = move & 3
                    vid = move >> 2
                    if tag == MOVE_FWD:
                        dvid = out_vid[vid]
                        flit = buf[vid].popleft()
                        occ[vid] -= 1
                        buf[dvid].append(flit)
                        occ[dvid] += 1
                        if not in_act[dvid]:
                            # An active VC's node is always busy.
                            in_act[dvid] = True
                            dnode = v_node[dvid]
                            active[dnode][dvid] = None
                            if dnode not in busy:
                                busy.add(dnode)
                                self._busy_dirty = True
                        worm, idx = flit
                        worm.flit_hops += 1
                        hops += 1
                        if idx == worm.size_flits - 1:  # tail left
                            node = v_node[vid]
                            if absorb[vid]:
                                interfaces[node].release_cc()
                                # Chain worms already delivered at
                                # header time (the node's invalidation
                                # gated them).
                                if worm.kind is not chain:
                                    deliver(node, worm, False)
                            port = outport[vid]
                            pi = node * _OUT_PORTS + port
                            vnet = vid % V
                            owner[pi * V + vnet] = -1
                            vnets = owned_ports[pi] ^ (1 << vnet)
                            owned_ports[pi] = vnets
                            if not vnets:
                                owned[node] ^= 1 << port
                            vstate[vid] = IDLE
                            countdown[vid] = 0
                            worms[vid] = None
                            outport[vid] = -1
                            absorb[vid] = False
                            ctx[vid] = {}
                    elif tag == MOVE_INJECT:
                        node, vnet = divmod(vid, V)
                        entry = inj_active[vid]
                        if entry is None:
                            worm = inj_q[vid].popleft()
                            idx = 0
                        else:
                            worm, idx = entry
                        lvid = (node * _IN_PORTS + _LOCAL) * V + vnet
                        buf[lvid].append((worm, idx))
                        occ[lvid] += 1
                        if not in_act[lvid]:
                            in_act[lvid] = True
                            active[node][lvid] = None
                        idx += 1
                        if idx < worm.size_flits:
                            inj_active[vid] = (worm, idx)
                        else:
                            inj_active[vid] = None
                            if not inj_q[vid]:
                                inject_work[node] ^= 1 << vnet
                    else:  # MOVE_CONSUME / MOVE_PARK
                        worm, idx = buf[vid].popleft()
                        occ[vid] -= 1
                        if idx == worm.size_flits - 1:
                            node = v_node[vid]
                            vstate[vid] = IDLE
                            countdown[vid] = 0
                            worms[vid] = None
                            outport[vid] = -1
                            absorb[vid] = False
                            ctx[vid] = {}
                            if tag == MOVE_CONSUME:
                                interfaces[node].release_cc()
                                deliver(node, worm, True)
                            else:
                                key = (worm.txn, worm.pickup_level)
                                released = interfaces[node].iack \
                                    .finish_park_drain(key)
                                if released is not None:
                                    self._reinject(node, released)
                moves.clear()
                self.moves_applied += nmoves
                self.total_flit_hops += hops

            # Quiescence sweep and stall/fixed-point bookkeeping.
            if idle:
                for node in idle:
                    if not active[node] and not inject_work[node]:
                        busy.discard(node)
                        self._busy_dirty = True
                idle.clear()
            self.phase_decide_visits += len(order)
            if nmoves:
                self._stalled_cycles = 0
                self._quiet_steps = 0
            elif busy and not routing:
                self._stalled_cycles += 1
                if self._stalled_cycles >= threshold:
                    self._report_deadlock()
                if armed:
                    # Second consecutive quiet cycle: the state is now a
                    # fixed point and this cycle's counter deltas repeat
                    # verbatim every further stalled cycle.
                    delta = []
                    for iface, cc0, res0 in snap:
                        cc_d = iface.cc_blocked - cc0
                        res_d = iface.iack.reserve_blocked - res0
                        if cc_d or res_d:
                            delta.append((iface, cc_d, res_d))
                    self._stall_delta = delta
                    self._quiet_steps = 2
                elif self._quiet_steps == 0:
                    self._quiet_steps = 1
                # _quiet_steps == 2 persists across no-op calendar events.
            else:
                self._quiet_steps = 0

            # The next cycle, unless calendar work is due first.
            while True:
                if not busy:
                    return
                nxt = sim.now + 1
                p = peek()
                if stop is not None and (p is None or p > stop):
                    p = stop
                if p is not None and p <= nxt:
                    # Calendar work due this or next cycle: hand control
                    # back so callbacks interleave exactly as they would
                    # with one scheduled tick per cycle.
                    return
                if self._quiet_steps < 2 or faults is not None:
                    break
                # Verified stalled fixed point: nothing can change until
                # the next calendar event (externally) or the deadlock
                # threshold (internally).  Jump.
                n = threshold - self._stalled_cycles - 1
                if p is not None and p - nxt < n:
                    n = p - nxt
                if n <= 0:
                    break  # this cycle crosses the threshold: step it
                if self._skip_trace is not None:
                    self._skip_trace.append((sim.now, n, p))
                sim.now += n
                sim.dispatched += n   # the ticks a stepping clock runs
                self.cycles_skipped += n
                self._stalled_cycles += n
                for iface, cc_d, res_d in self._stall_delta:
                    if cc_d:
                        iface.cc_blocked += cc_d * n
                    if res_d:
                        iface.iack.reserve_blocked += res_d * n
            sim.now = nxt
            sim.dispatched += 1   # the tick dispatch this inlining elides

    # ------------------------------------------------------------------
    # DECIDE resolution
    # ------------------------------------------------------------------
    def _resolve(self, vid: int, node: int) -> None:
        """One DECIDE attempt.  May leave the VC in DECIDE (stalled with
        whatever resources it already holds), or move it to FORWARD /
        CONSUME / PARK."""
        worm = self._worm[vid]
        assert worm is not None
        if worm.next_dest != node:
            self._alloc_output(vid, node, worm.next_dest, False)
            return
        kind = worm.kind
        final = worm.at_last_leg
        if kind is WormKind.IGATHER:
            if final:
                self._to_consume(vid, node)
            else:
                self._resolve_gather(vid, node, worm)
            return
        if kind is WormKind.CHAIN and not final:
            self._resolve_chain(vid, node, worm)
            return
        # UNICAST / MULTICAST / IRESERVE (+ CHAIN at its final stop).
        ctx = self._ctx[vid]
        if kind is WormKind.IRESERVE and not ctx.get("reserved"):
            if not self._do_reservations(worm, node):
                return  # buffer full; retry next cycle
            ctx["reserved"] = True
        if final:
            self._to_consume(vid, node)
            return
        # Intermediate destination of MULTICAST / IRESERVE.
        delivers = worm.delivers_at(node)
        if delivers and not ctx.get("cc"):
            if not self.interfaces[node].try_acquire_cc():
                return  # no consumption channel; retry next cycle
            ctx["cc"] = True
        next_dest = worm.dests[worm.ptr + 1]
        if self._alloc_output(vid, node, next_dest, delivers):
            worm.advance()

    def _resolve_gather(self, vid: int, node: int, worm: Worm) -> None:
        """i-gather worm at an intermediate destination: pick the ack up,
        or park (deferred delivery), or stall."""
        key = (worm.txn, worm.pickup_level)
        ctx = self._ctx[vid]
        iack = self.interfaces[node].iack
        if not ctx.get("picked"):
            count = iack.try_pickup(key)
            if count is None:
                if self.params.deferred_delivery:
                    if iack.try_park(key, worm):
                        worm.advance()
                        self._vstate[vid] = PARK
                    # else: file full, stall in place and retry.
                return
            worm.acks_carried += count
            ctx["picked"] = True
        next_dest = worm.dests[worm.ptr + 1]
        if self._alloc_output(vid, node, next_dest, False):
            worm.advance()

    def _resolve_chain(self, vid: int, node: int, worm: Worm) -> None:
        """SCI-style chained worm: deliver, then wait for the local cache
        invalidation to complete before moving on [11]."""
        ctx = self._ctx[vid]
        iface = self.interfaces[node]
        if not ctx.get("cc"):
            if not iface.try_acquire_cc():
                return
            ctx["cc"] = True
        if not ctx.get("delivered"):
            ctx["delivered"] = True
            self.deliver_chain(node, worm)
        if (worm.txn, node) not in iface.chain_done:
            return  # local invalidation still in progress
        next_dest = worm.dests[worm.ptr + 1]
        if self._alloc_output(vid, node, next_dest, True):
            # The flag outlives a busy output channel: the worm retries
            # next cycle on the same completed invalidation.
            iface.chain_done.discard((worm.txn, node))
            worm.advance()

    def _do_reservations(self, worm: Worm, node: int) -> bool:
        """All i-ack reservations this i-reserve worm makes here.

        Level 0 (the sharer's own ack slot) at delivery destinations;
        level 1 (a column-combined slot for hierarchical gathering) at
        reservation-only destinations.  Re-reserving an already-reserved
        key is idempotent, so a partial success simply retries the
        remainder next cycle.
        """
        iack = self.interfaces[node].iack
        if worm.delivers_at(node) and node not in worm.no_reserve:
            if not iack.try_reserve((worm.txn, 0)):
                return False
        if node in worm.reserve_only or node in worm.extra_reserve:
            if not iack.try_reserve((worm.txn, 1)):
                return False
        return True

    def _to_consume(self, vid: int, node: int) -> None:
        """Final destination: acquire a consumption channel and drain."""
        ctx = self._ctx[vid]
        if not ctx.get("cc"):
            if not self.interfaces[node].try_acquire_cc():
                return
            ctx["cc"] = True
        self._vstate[vid] = CONSUME

    def _alloc_output(self, vid: int, node: int, dest: int,
                      absorb: bool) -> bool:
        """Claim an outgoing virtual channel toward ``dest``.

        Deterministic routing offers one candidate port; the adaptive
        west-first model offers several and the first free one wins
        (stalling on the most-preferred when none is free).  Fault-aware
        routings filter the set per hop and may offer a non-minimal
        detour, which is charged against the worm's misroute budget only
        when actually taken."""
        worm = self._worm[vid]
        ports, detour = self.routing.hop_candidates(
            node, dest, self._v_port[vid], worm.misroutes, self.sim.now)
        assert ports, "output allocation for a worm already at its target"
        V = self._V
        vnet = vid % V
        owner = self._owner
        for port in ports:
            oid = (node * _OUT_PORTS + port) * V + vnet
            if owner[oid] < 0:
                owner[oid] = vid
                self._owned[node] |= 1 << port
                self._owned_ports[node * _OUT_PORTS + port] |= 1 << vnet
                self._outport[vid] = port
                self._out_vid[vid] = self._down_vid[oid]
                self._absorb[vid] = absorb
                self._vstate[vid] = FORWARD
                if detour:
                    worm.misroutes += 1
                    self.detours += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Deadlock diagnosis (cold path)
    # ------------------------------------------------------------------
    def _diagnose_wait(self, node: int, vid: int):
        """What a stalled VC is waiting for: ``(description, holders)``
        where ``holders`` are the vids holding that resource (empty when
        the resource is not attributable to a VC, e.g. an i-ack signal
        that was never deposited).  Returns None for VCs that are not
        actually blocked (e.g. forwarding with credit available)."""
        V = self._V
        worm = self._worm[vid]
        state = self._vstate[vid]
        iface = self.interfaces[node]
        vnet = vid % V
        if state == FORWARD:
            port = self._outport[vid]
            if not self._occ[vid] or port < 0:
                return None
            oid = (node * _OUT_PORTS + port) * V + vnet
            dvid = self._down_vid[oid]
            if self._occ[dvid] < self._depth:
                return None
            return (f"buffer credit on the {Port(port).name} link into "
                    f"node {self._v_node[dvid]}",
                    [dvid] if self._worm[dvid] is not None else [])
        if state != DECIDE:
            return None
        ctx = self._ctx[vid]
        if worm.next_dest == node:
            kind = worm.kind
            final = worm.at_last_leg
            entries = iface.iack._entries
            if (kind is WormKind.IGATHER and not final
                    and not ctx.get("picked")):
                key = self.gather_key(worm, node)
                if iface.iack.entry(key) is None \
                        and not iface.iack.free_slots:
                    return (f"a free i-ack buffer slot at node {node} "
                            f"(all {iface.iack.capacity} held: "
                            f"{sorted(map(repr, entries))})", [])
                return (f"the i-ack signal {key!r} at node {node} "
                        f"(reserved but not yet deposited)", [])
            if kind is WormKind.IRESERVE and not ctx.get("reserved"):
                return (f"a free i-ack buffer slot at node {node} "
                        f"(all {iface.iack.capacity} held: "
                        f"{sorted(map(repr, entries))})", [])
            if kind is WormKind.CHAIN and not final:
                if not ctx.get("cc") and not iface.free_cc:
                    return self._cc_wait(node, vid)
                if ctx.get("delivered"):
                    return (f"the local invalidation of txn "
                            f"{worm.txn!r} at node {node}", [])
            needs_cc = final or worm.delivers_at(node)
            if needs_cc and not ctx.get("cc") and not iface.free_cc:
                return self._cc_wait(node, vid)
            if final:
                return None  # draining starts next cycle
            target = worm.dests[worm.ptr + 1]
        else:
            target = worm.next_dest
        ports = self.routing.candidates(node, target)
        holders = [self._owner[(node * _OUT_PORTS + p) * V + vnet]
                   for p in ports]
        names = "/".join(p.name for p in ports)
        return (f"an output channel {names} (vnet {vnet}) at node "
                f"{node} toward node {target}",
                [h for h in holders if h >= 0])

    def _cc_wait(self, node: int, vid: int):
        V = self._V
        base = node * _IN_PORTS * V
        holders = [v for v in range(base, base + _IN_PORTS * V)
                   if v != vid and self._worm[v] is not None
                   and (self._ctx[v].get("cc")
                        or self._vstate[v] in (CONSUME, FORWARD))]
        return (f"a consumption channel at node {node} "
                f"(all {self.interfaces[node].total_cc} busy)", holders)

    def _report_deadlock(self) -> None:
        V = self._V
        worms = self._worm
        waits, where = {}, {}
        for node in sorted(self.busy):
            base = node * _IN_PORTS * V
            for vid in range(base, base + _IN_PORTS * V):
                if worms[vid] is None:
                    continue
                diag = self._diagnose_wait(node, vid)
                if diag is not None:
                    waits[vid] = diag
                    where[vid] = (worms[vid], node)
        raise self._deadlock_error(waits, where)

    @staticmethod
    def _find_wait_cycle(waits):
        """A list of waiters forming a hold-and-wait cycle, or None.
        Edges go from a waiting VC to a holder of its wanted resource
        that is itself waiting."""
        for start in waits:
            path, index = [], {}
            vc = start
            while vc in waits:
                if vc in index:
                    return path[index[vc]:]
                index[vc] = len(path)
                path.append(vc)
                vc = next((h for h in waits[vc][1] if h in waits), None)
                if vc is None:
                    break
        return None

    def _deadlock_error(self, waits: dict, where: dict):
        """The deadlock report: ``waits`` maps each blocked VC to its
        ``(description, holders)`` diagnosis and ``where`` to its
        ``(worm, node)``."""
        from repro.sim.engine import Deadlock

        def step(vc):
            worm, node = where[vc]
            return (f"worm #{worm.uid} ({worm.kind.value}, "
                    f"txn={worm.txn!r}) at node {node} waits for "
                    f"{waits[vc][0]}")

        cycle = self._find_wait_cycle(waits)
        if cycle:
            detail = (f"hold-and-wait cycle of {len(cycle)} worm(s):\n  "
                      + "\n  ".join(step(vc) for vc in cycle)
                      + "\n  … and back to the first")
        else:
            shown = [step(vc) for vc in list(waits)[:8]]
            detail = ("blocked worms (no closed cycle among the waiters "
                      "— a resource is held by a non-waiting party):\n  "
                      + "\n  ".join(shown))
        return Deadlock(
            f"network deadlock: no flit moved for "
            f"{self.deadlock_threshold} cycles at cycle {self.sim.now}; "
            f"{detail}\n"
            f"(hold-and-wait on consumption channels / i-ack buffers — "
            f"increase iack_buffers or consumption_channels)")
