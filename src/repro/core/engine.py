"""Execution of invalidation plans on the cycle-level network.

The engine models the node-side timing around the network:

* the home's outgoing controller (OC) serializes worm launches, one
  ``send_overhead`` apiece — the request-phase component of home-node
  occupancy [18];
* each received message costs ``recv_overhead`` of the node's processing
  facility; a sharer's invalidation adds ``cache_invalidate``;
* deposits into i-ack buffers are memory-mapped writes (``iack_deposit``),
  which notably do *not* occupy the home node — that is the point of the
  MA schemes.

Transactions are identified by unique integer ids; any number may run
concurrently (the i-ack buffer files key entries by transaction).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from repro.audit import violate
from repro.brcp.encoding import worm_flits
from repro.config import SystemParameters
from repro.core.grouping import degrade_plan
from repro.core.metrics import TransactionRecord
from repro.core.plan import (ACT_ACK,
                             ACT_DEPOSIT, ACT_GATHER_TERMINAL, ACT_LAUNCH,
                             ACT_PIECE, FINAL_HOME, FINAL_JUNCTION,
                             FINAL_TERMINAL, GatherSpec, InvalGroup,
                             InvalidationPlan, JUNCTION_DEPOSIT,
                             JUNCTION_LAUNCH, JUNCTION_UNICAST)
from repro.faults.plan import TransactionFailed
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.worm import VNET_REPLY, VNET_REQUEST
from repro.sim import Event, Facility, Simulator, Timeout, Timer


class _TxnState:
    """Mutable per-transaction bookkeeping."""

    __slots__ = ("txn", "plan", "start", "end", "done", "acks", "needed",
                 "collectors", "inval_done", "worms", "home_sent",
                 "home_recv", "attempt", "confirmed", "per_sharer",
                 "recovering", "timer", "downgrades", "reroutes")

    def __init__(self, txn: int, plan: InvalidationPlan,
                 sim: Simulator) -> None:
        self.txn = txn
        self.plan = plan
        self.start = sim.now
        self.end: Optional[int] = None
        self.done: Event = sim.event(f"txn{txn}.done")
        self.acks = 0
        self.needed = len(plan.sharers)
        self.collectors = {
            jp.node: {"plan": jp, "got": 0, "pieces": 0}
            for jp in plan.junctions}
        self.inval_done = {s: sim.event(f"txn{txn}.inv.{s}")
                           for s in plan.sharers}
        self.worms: list[Worm] = []
        self.home_sent = 0
        self.home_recv = 0
        # Fault recovery (inert without an installed FaultState).
        self.attempt = 1
        #: Sharers individually confirmed, used once :attr:`per_sharer`
        #: accounting replaces the aggregate ack count after a loss.
        self.confirmed: set[int] = set()
        self.per_sharer = False
        self.recovering = False
        self.timer: Optional[Timer] = None
        self.downgrades = 0
        self.reroutes = 0


class InvalidationEngine:
    """Executes :class:`InvalidationPlan` transactions on a network."""

    #: Payload roles this engine owns (a surrounding protocol layer that
    #: installs its own delivery handler forwards these).
    ROLES = frozenset({"inval", "ack", "gather"})

    def __init__(self, sim: Simulator, net: MeshNetwork,
                 params: SystemParameters,
                 max_concurrent_ma: Optional[int] = None) -> None:
        """``max_concurrent_ma`` bounds how many i-ack-buffer-using
        transactions run at once (None = unbounded).  A transaction
        reserves at most two entries per router interface (a level-0
        sharer slot plus a level-1 junction slot), so a cap of
        ``iack_buffers // 2`` guarantees every reservation eventually
        succeeds — without it, enough concurrent MA transactions can
        deadlock in a circular hold-and-wait on the buffer files (the
        network detects and reports this).  The DSM layer enables the
        cap; raw microbenchmarks leave it off to study the hazard.
        """
        self.sim = sim
        self.net = net
        self.params = params
        n = params.num_nodes
        #: Outgoing message controllers (send serialization) per node.
        self.oc = [Facility(sim, f"oc.{i}") for i in range(n)]
        #: Node processing facility (receive handling, cache ops).
        self.proc = [Facility(sim, f"proc.{i}") for i in range(n)]
        net.on_deliver = self.handle_delivery
        net.on_worm_dropped = self.handle_worm_dropped
        self._txns: dict[int, _TxnState] = {}
        self._ids = itertools.count(1)
        #: Runtime invariant auditor, set by
        #: :meth:`repro.audit.Auditor.install` (None = auditing off).
        self.audit = None
        #: Completed transactions, in completion order.
        self.records: list[TransactionRecord] = []
        #: Terminal failures (retries exhausted), in failure order.
        self.failures: list[TransactionFailed] = []
        #: Deliveries and retried invalidations for already-finished
        #: transactions (stragglers of abandoned attempts; only possible
        #: under fault injection).
        self.stale_deliveries = 0
        #: Called as ``hook(node, txn)`` when a sharer's line is
        #: invalidated — the coherence layer clears its cache here.
        self.invalidate_hook = lambda node, txn: None
        # Admission control for i-ack-buffer-using transactions.
        self._ma_cap = max_concurrent_ma
        self._ma_active = 0
        self._ma_queue: "deque[_TxnState]" = deque()
        #: Transactions that waited for admission (statistic).
        self.ma_admission_waits = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @staticmethod
    def _uses_iack(plan: InvalidationPlan) -> bool:
        """True when the plan reserves/uses i-ack buffer entries."""
        return any(g.kind is WormKind.IRESERVE for g in plan.groups)

    def execute(self, plan: InvalidationPlan) -> _TxnState:
        """Start a transaction; returns its state (wait on ``.done``).

        Transactions that use i-ack buffers may be held back by the
        admission cap; they start automatically as earlier ones finish.
        """
        txn = next(self._ids)
        st = _TxnState(txn, plan, self.sim)
        self._txns[txn] = st
        if not plan.sharers:
            self._finish(st)
        elif (self._ma_cap is not None and self._uses_iack(plan)
              and self._ma_active >= self._ma_cap):
            self.ma_admission_waits += 1
            self._ma_queue.append(st)
        else:
            self._start(st)
        return st

    def _start(self, st: _TxnState) -> None:
        faults = self.net.faults
        if faults is not None:
            degraded, downgraded, rerouted = degrade_plan(
                st.plan, self.net.mesh, faults, self.sim.now)
            st.reroutes += rerouted
            if downgraded:
                st.downgrades += downgraded
                st.plan = degraded
                st.collectors = {
                    jp.node: {"plan": jp, "got": 0, "pieces": 0}
                    for jp in degraded.junctions}
        if self._uses_iack(st.plan):
            self._ma_active += 1
        if self.audit is not None:
            self.audit.on_txn_start(st)
        if faults is not None:
            self._arm_timer(st)
        self.sim.spawn(self._home_send(st), name=f"txn{st.txn}.home")

    def metrics_snapshot(self) -> dict:
        """One consistent view of the fault/recovery counters scattered
        across the engine, its records, and the network — the single
        source audit reports, the chaos runner, and the fault sweeps
        read (satellite of the auditor work; see ``docs/AUDIT.md``)."""
        records = self.records
        snapshot = {
            "transactions": len(records),
            "failures": len(self.failures),
            "retries": sum(r.attempts - 1 for r in records),
            "downgrades": sum(r.downgrades for r in records),
            "reroutes": sum(r.reroutes for r in records),
            "stale_deliveries": self.stale_deliveries,
            "ma_admission_waits": self.ma_admission_waits,
        }
        counters = self.net.phase_counters()
        for key in ("injected", "delivered", "worms_dropped", "detours",
                    "swallowed", "total_flit_hops"):
            snapshot[f"net.{key}"] = counters[key]
        return snapshot

    def run(self, plan: InvalidationPlan,
            limit: Optional[int] = None) -> TransactionRecord:
        """Execute ``plan`` and drive the simulator to its completion.

        Raises :class:`~repro.faults.plan.TransactionFailed` if the
        transaction exhausted its retransmission budget.
        """
        st = self.execute(plan)
        result = self.sim.run_until_event(st.done, limit=limit)
        if isinstance(result, TransactionFailed):
            raise result
        return result

    # ------------------------------------------------------------------
    # Worm construction
    # ------------------------------------------------------------------
    def _inval_worm(self, st: _TxnState, group: InvalGroup,
                    **tags) -> Worm:
        payload: dict = {"role": "inval", **tags}
        if group.kind is WormKind.CHAIN:
            payload["chain_count"] = len(group.dests)
        size = worm_flits(self.params, group.kind, len(group.dests))
        return Worm(kind=group.kind, src=st.plan.home, dests=group.dests,
                    size_flits=size, vnet=VNET_REQUEST, txn=st.txn,
                    payload=payload, reserve_only=group.reserve_only,
                    extra_reserve=group.extra_reserve,
                    no_reserve=group.no_reserve)

    def _gather_worm(self, st: _TxnState, spec: GatherSpec,
                     acks: int) -> Worm:
        size = worm_flits(self.params, WormKind.IGATHER, len(spec.dests))
        return Worm(kind=WormKind.IGATHER, src=spec.launcher,
                    dests=spec.dests, size_flits=size, vnet=VNET_REPLY,
                    txn=st.txn, payload={"role": "gather", "spec": spec},
                    acks_carried=acks, pickup_level=spec.pickup_level)

    def _ack_worm(self, st: _TxnState, src: int, count: int,
                  **tags) -> Worm:
        return Worm(kind=WormKind.UNICAST, src=src,
                    dests=(st.plan.home,),
                    size_flits=self.params.control_message_flits,
                    vnet=VNET_REPLY, txn=st.txn,
                    payload={"role": "ack", "count": count, **tags})

    def _inject(self, st: _TxnState, worm: Worm) -> None:
        st.worms.append(worm)
        self.net.inject(worm)

    # ------------------------------------------------------------------
    # Home request phase
    # ------------------------------------------------------------------
    def _home_send(self, st: _TxnState):
        oc = self.oc[st.plan.home]
        for group in st.plan.groups:
            yield from oc.use(self.params.send_overhead)
            st.home_sent += 1
            self._inject(st, self._inval_worm(st, group))

    # ------------------------------------------------------------------
    # Network delivery dispatch
    # ------------------------------------------------------------------
    def _open(self, txn: int, node: int,
              what: str) -> Optional[_TxnState]:
        """The open transaction ``txn``, or None when work for it at
        ``node`` is stale: a straggler of an attempt whose transaction
        already completed (via retries) or failed.  Expected under
        fault injection (counted in :attr:`stale_deliveries`); a
        protocol bug otherwise."""
        st = self._txns.get(txn)
        if st is None:
            if self.net.faults is None:
                violate(self.audit, self.sim, "txn-conservation",
                        f"{what} for unknown transaction {txn!r} at "
                        f"node {node}", node=node, txn=txn)
            self.stale_deliveries += 1
        return st

    def handle_delivery(self, node: int, worm: Worm, final: bool) -> None:
        """The network's delivery handler (an outer protocol layer
        forwards the deliveries whose payload role is in :attr:`ROLES`)."""
        st = self._open(worm.txn, node, "delivery")
        if st is None:
            return
        role = worm.payload["role"]
        if role == "inval":
            if worm.payload.get("retry"):
                self.sim.spawn(
                    self._retry_sharer(st, node, worm.payload["retry"]),
                    name=f"txn{st.txn}.rinv.{node}")
            elif worm.kind is WormKind.CHAIN and not final:
                # An intermediate stop: the worm waits for this node.
                self.sim.spawn(self._chain_stop(st, node),
                               name=f"txn{st.txn}.chain.{node}")
            elif worm.kind is WormKind.CHAIN:
                self.sim.spawn(self._chain_final(
                    st, node, worm.payload["chain_count"]),
                    name=f"txn{st.txn}.chainfin.{node}")
            else:
                self.sim.spawn(self._sharer(st, node),
                               name=f"txn{st.txn}.inv.{node}")
        elif role == "ack":
            self.sim.spawn(self._home_ack(st, worm.payload["count"],
                                          worm.payload.get("sharer")),
                           name=f"txn{st.txn}.ack")
        elif role == "gather":
            assert final, "gather worms deliver only at their final stop"
            self.sim.spawn(self._gather_final(st, node, worm),
                           name=f"txn{st.txn}.gather.{node}")
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown payload role {role!r}")

    # ------------------------------------------------------------------
    # Node-side processes
    # ------------------------------------------------------------------
    def _mark_invalidated(self, st: _TxnState, node: int) -> None:
        """Run the invalidation hook and fire the sharer's done event.

        Under fault injection the same sharer can be invalidated more
        than once (a straggler of an abandoned attempt racing its own
        retry); duplicates are tolerated there and remain a protocol
        error on a perfect network.
        """
        self.invalidate_hook(node, st.txn)
        if self.audit is not None:
            self.audit.on_invalidated(st, node)
        ev = st.inval_done[node]
        if self.net.faults is not None and ev.triggered:
            return
        ev.succeed()

    def _sharer(self, st: _TxnState, node: int):
        p = self.params
        yield from self.proc[node].use(p.recv_overhead + p.cache_invalidate)
        self._mark_invalidated(st, node)
        action = st.plan.sharer_actions[node]
        kind = action[0]
        if kind == ACT_ACK:
            yield from self.oc[node].use(p.send_overhead)
            self._inject(st, self._ack_worm(st, node, 1))
        elif kind == ACT_DEPOSIT:
            yield Timeout(p.iack_deposit)
            self.net.deposit_ack(node, (st.txn, 0))
        elif kind == ACT_LAUNCH:
            spec: GatherSpec = action[1]
            yield from self.oc[node].use(p.send_overhead)
            assert spec.initial_acks is not None
            self._inject(st, self._gather_worm(st, spec, spec.initial_acks))
        elif kind == ACT_PIECE:
            self._junction_piece(st, action[1], 1)
        elif kind == ACT_GATHER_TERMINAL:
            pass  # the arriving gather worm completes this sharer's part
        else:  # pragma: no cover - defensive
            raise AssertionError(f"sharer {node} with action {action!r}")

    def _chain_stop(self, st: _TxnState, node: int):
        p = self.params
        yield from self.proc[node].use(p.recv_overhead + p.cache_invalidate)
        self._mark_invalidated(st, node)
        self.net.signal_chain_done(node, st.txn)

    def _chain_final(self, st: _TxnState, node: int, count: int):
        p = self.params
        yield from self.proc[node].use(p.recv_overhead + p.cache_invalidate)
        self._mark_invalidated(st, node)
        yield from self.oc[node].use(p.send_overhead)
        self._inject(st, self._ack_worm(st, node, count))

    def _home_ack(self, st: _TxnState, count: int,
                  sharer: Optional[int] = None):
        yield from self.proc[st.plan.home].use(self.params.recv_overhead)
        st.home_recv += 1
        self._credit(st, count, sharer)

    def _gather_final(self, st: _TxnState, node: int, worm: Worm):
        p = self.params
        spec: GatherSpec = worm.payload["spec"]
        if spec.final_action == FINAL_HOME:
            yield from self.proc[node].use(p.recv_overhead)
            st.home_recv += 1
            self._credit(st, worm.acks_carried)
        elif spec.final_action == FINAL_JUNCTION:
            yield from self.proc[node].use(p.recv_overhead)
            self._junction_piece(st, spec.junction, worm.acks_carried)
        elif spec.final_action == FINAL_TERMINAL:
            yield from self.proc[node].use(p.recv_overhead)
            yield st.inval_done[node]  # own invalidation must finish
            yield from self.oc[node].use(p.send_overhead)
            self._inject(st, self._ack_worm(st, node, worm.acks_carried + 1))
        else:  # pragma: no cover - defensive
            raise AssertionError(spec.final_action)

    # ------------------------------------------------------------------
    # Junction collectors
    # ------------------------------------------------------------------
    def _junction_piece(self, st: _TxnState, junction: int,
                        count: int) -> None:
        coll = st.collectors[junction]
        coll["got"] += count
        coll["pieces"] += 1
        if coll["pieces"] < coll["plan"].expected_pieces:
            return
        jp = coll["plan"]
        total = coll["got"]
        if jp.action == JUNCTION_DEPOSIT:
            def deposit():
                yield Timeout(self.params.iack_deposit)
                self.net.deposit_ack(junction, (st.txn, 1), total)
            self.sim.spawn(deposit(), name=f"txn{st.txn}.jdep.{junction}")
        elif jp.action == JUNCTION_LAUNCH:
            def launch():
                yield from self.oc[junction].use(self.params.send_overhead)
                self._inject(st, self._gather_worm(st, jp.row_gather, total))
            self.sim.spawn(launch(), name=f"txn{st.txn}.jrow.{junction}")
        elif jp.action == JUNCTION_UNICAST:
            def unicast():
                yield from self.oc[junction].use(self.params.send_overhead)
                self._inject(st, self._ack_worm(st, junction, total))
            self.sim.spawn(unicast(), name=f"txn{st.txn}.juni.{junction}")
        else:  # pragma: no cover - defensive
            raise AssertionError(jp.action)

    # ------------------------------------------------------------------
    # Fault recovery (active only when the network has faults installed)
    # ------------------------------------------------------------------
    def _arm_timer(self, st: _TxnState) -> None:
        """Per-attempt watchdog: the backstop when a loss produces no
        NACK (``fault_nack=False``) or the NACK itself is stale."""
        p = self.params
        timeout = p.backoff(p.txn_timeout, st.attempt - 1)
        st.timer = self.sim.timer(timeout, lambda: self._on_timeout(st))

    def _on_timeout(self, st: _TxnState) -> None:
        if st.txn not in self._txns or st.done.triggered:
            return
        self._recover(st, f"timeout after {self.sim.now - st.start} cycles")

    def handle_worm_dropped(self, worm: Worm, reason: str) -> None:
        """The network's loss-notification (NACK) handler: recover the
        worm's transaction.  A NACK for a worm of no open transaction
        (another layer's message, or a stale attempt) is ignored."""
        st = self._txns.get(worm.txn)
        if st is None or st.done.triggered:
            return  # transaction already over; stale notification
        self._recover(st, f"nack ({reason}, worm #{worm.uid})")

    def _recover(self, st: _TxnState, reason: str) -> None:
        """Abandon the current attempt and schedule a retransmission.

        Multiple losses of one attempt coalesce into a single recovery:
        the first NACK (or the timeout) wins, the rest see
        ``recovering`` and return.
        """
        if st.recovering or st.done.triggered:
            return
        st.recovering = True
        if self.audit is not None:
            self.audit.on_loss(st, reason)
        if st.timer is not None:
            st.timer.cancel()
        p = self.params
        if st.attempt > p.txn_max_retries:
            self._fail(st, reason)
            return
        if not st.per_sharer:
            # Aggregate acks already received cannot be attributed to
            # individual sharers, so the retry path re-invalidates every
            # sharer (idempotent) and counts sharer-tagged acks only.
            st.per_sharer = True
            st.confirmed = set()
        self.net.purge_txn(st.txn)
        delay = p.backoff(p.fault_retry_delay, st.attempt - 1)
        st.attempt += 1
        self.sim.call_after(delay, lambda: self._relaunch(st))

    def _relaunch(self, st: _TxnState) -> None:
        if st.done.triggered or st.txn not in self._txns:
            return
        st.recovering = False
        # Fresh one-shot done events for sharers the retry re-invalidates.
        for s in st.plan.sharers:
            if s not in st.confirmed and st.inval_done[s].triggered:
                st.inval_done[s] = self.sim.event(
                    f"txn{st.txn}.inv.{s}.a{st.attempt}")
        self._arm_timer(st)
        self.sim.spawn(self._home_resend(st),
                       name=f"txn{st.txn}.resend{st.attempt}")

    def _home_resend(self, st: _TxnState):
        """Retransmission: plain unicast invalidations to every sharer
        not yet individually confirmed (MI→UI fallback under loss)."""
        p = self.params
        oc = self.oc[st.plan.home]
        for node in st.plan.sharers:
            if node in st.confirmed:
                continue
            yield from oc.use(p.send_overhead)
            st.home_sent += 1
            self._inject(st, self._inval_worm(
                st, InvalGroup(WormKind.UNICAST, (node,)),
                retry=st.attempt))

    def _retry_sharer(self, st: _TxnState, node: int, attempt: int):
        p = self.params
        yield from self.proc[node].use(p.recv_overhead + p.cache_invalidate)
        # The transaction may have confirmed every sharer (and the node
        # may hold a fresh copy) while this step waited for the node.
        if self._open(st.txn, node, "retried invalidation") is None:
            return
        self._mark_invalidated(st, node)
        yield from self.oc[node].use(p.send_overhead)
        self._inject(st, self._ack_worm(st, node, 1, sharer=node,
                                        attempt=attempt))

    def _fail(self, st: _TxnState, reason: str) -> None:
        """Terminal: deliver a typed failure through the done event."""
        if st.timer is not None:
            st.timer.cancel()
        st.end = self.sim.now
        self.net.purge_txn(st.txn)
        exc = TransactionFailed(st.txn, st.plan.scheme, st.attempt, reason)
        self.failures.append(exc)
        if self.audit is not None:
            self.audit.on_txn_fail(st, reason)
        self._teardown(st)
        st.done.succeed(exc)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _credit(self, st: _TxnState, count: int,
                sharer: Optional[int] = None) -> None:
        if self.audit is not None:
            self.audit.on_ack(st, count, sharer)
        if st.per_sharer:
            # Aggregate acks from before the recovery switch cannot be
            # attributed to sharers; only sharer-tagged retry acks count.
            if sharer is None or sharer in st.confirmed:
                return
            st.confirmed.add(sharer)
            if len(st.confirmed) == st.needed:
                self._finish(st)
            return
        st.acks += count
        if st.acks > st.needed:
            violate(self.audit, self.sim, "txn-conservation",
                    f"txn {st.txn}: {st.acks} acks for {st.needed} sharers",
                    txn=st.txn)
        if st.acks == st.needed:
            self._finish(st)

    def _finish(self, st: _TxnState) -> None:
        if st.timer is not None:
            st.timer.cancel()
        st.end = self.sim.now
        if self.audit is not None:
            self.audit.on_txn_finish(st)
        record = TransactionRecord(
            txn=st.txn, scheme=st.plan.scheme, home=st.plan.home,
            sharers=st.needed, start=st.start, end=st.end,
            home_sent=st.home_sent, home_recv=st.home_recv,
            total_messages=len(st.worms),
            flit_hops=sum(w.flit_hops for w in st.worms),
            attempts=st.attempt, downgrades=st.downgrades,
            reroutes=st.reroutes)
        self.records.append(record)
        self._teardown(st)
        st.done.succeed(record)

    def _teardown(self, st: _TxnState) -> None:
        del self._txns[st.txn]
        if st.plan.sharers and self._uses_iack(st.plan):
            self._ma_active -= 1
            if self._ma_queue and (self._ma_cap is None
                                   or self._ma_active < self._ma_cap):
                self._start(self._ma_queue.popleft())
