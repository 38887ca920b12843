"""The DSM system: protocol engine tying caches, directories, memory,
and the invalidation engine together over the wormhole network.

Protocol summary (home-centric, sequentially consistent):

* **Read miss** — RD_REQ to the home.  Uncached/shared: memory read, add
  presence bit, DATA_REPLY.  Exclusive elsewhere: RECALL_SH the owner,
  collect WB_DATA, update memory, reply; the block becomes shared.
* **Write miss / upgrade** — WR_REQ to the home.  Shared: the directory
  enters *waiting* and delegates the invalidation of all other sharers to
  the :class:`~repro.core.engine.InvalidationEngine` using the system's
  configured scheme — this is where the paper's multidestination worms
  run.  Exclusive elsewhere: RECALL_INV the owner.  The requester then
  gets EX_GRANT.
* While *waiting*, requests for the block queue FIFO at the directory and
  replay in order (no NAKs), which serializes conflicting accesses.

Block ``b`` is homed at node ``b mod N`` (block-interleaved, as in DASH).
A node's accesses to blocks it is home to bypass the network but still
pay controller overheads.
"""

from __future__ import annotations

from typing import NoReturn, Optional

from repro.audit import Auditor, violate
from repro.config import SystemParameters
from repro.coherence.cache import Cache, CacheState
from repro.coherence.directory import Directory, DirectoryEntry, DirectoryState
from repro.coherence.messages import CohType, coh_payload
from repro.core.engine import InvalidationEngine
from repro.core.grouping import SCHEMES, build_plan
from repro.faults import FaultPlan, TransactionFailed
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.worm import VNET_REPLY, VNET_REQUEST
from repro.sim import Event, Facility, Simulator, Tally

#: Message types that carry a full cache block; they travel on the
#: reply virtual network.
_REPLY_TYPES = frozenset({CohType.DATA_REPLY, CohType.EX_GRANT,
                          CohType.WB_DATA})


class DSMSystem:
    """A complete DSM machine on a ``w x h`` mesh."""

    def __init__(self, sim: Simulator, params: SystemParameters,
                 scheme: str = "ui-ua",
                 cache_capacity: Optional[int] = None,
                 consistency: str = "sc",
                 directory_pointers: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 audit: str = "off") -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; "
                             f"choose from {sorted(SCHEMES)}")
        if consistency not in ("sc", "rc"):
            raise ValueError(f"consistency must be 'sc' or 'rc', "
                             f"got {consistency!r}")
        if directory_pointers is not None and directory_pointers < 1:
            raise ValueError("directory_pointers must be >= 1 or None")
        self.sim = sim
        self.params = params
        self.scheme = scheme
        #: ``"sc"`` — sequential consistency: every access blocks until
        #: it completes (the paper's evaluation model).  ``"rc"`` —
        #: eager release consistency [1, 13]: writes are issued and
        #: tracked but do not block the processor; fences (barriers or
        #: explicit ``("fence",)`` trace entries) drain them.
        self.consistency = consistency
        #: None = fully-mapped presence bits (the paper's model);
        #: an integer i = limited-pointer Dir_i B directory: entries
        #: track at most i sharers and set an overflow bit beyond that,
        #: after which invalidations broadcast to every node [16, 29].
        self.directory_pointers = directory_pointers
        routing = SCHEMES[scheme][1]
        self.net = MeshNetwork(sim, params, routing)
        # Cap concurrent i-ack-buffer transactions so that every router
        # interface can always satisfy its reservations (a transaction
        # needs at most two entries per interface) — without the cap,
        # write-heavy applications can deadlock the buffer files.
        self.engine = InvalidationEngine(
            sim, self.net, params,
            max_concurrent_ma=max(1, params.iack_buffers // 2))
        self.net.on_deliver = self._dispatch
        self.engine.invalidate_hook = self._engine_invalidate
        # Fault injection: an empty plan is treated as "no faults" so
        # that the recovery machinery stays fully inert (bit-identical
        # results) unless something can actually fail.
        if fault_plan is not None and not fault_plan.empty:
            self.net.install_faults(fault_plan)
            self.net.on_worm_dropped = self._on_worm_dropped

        n = params.num_nodes
        self.caches = [Cache(i, cache_capacity) for i in range(n)]
        self.dirs = [Directory(i) for i in range(n)]
        #: Memory module per node (block reads/writes contend here).
        self.mem = [Facility(sim, f"mem.{i}") for i in range(n)]
        #: Directory controller occupancy per node.
        self.dc = [Facility(sim, f"dc.{i}") for i in range(n)]

        #: (node, block) -> event fired when the outstanding miss resolves.
        self._pending: dict[tuple[int, int], Event] = {}
        #: Per-node outstanding non-blocking writes (release consistency).
        self._outstanding: dict[int, set[Event]] = {
            i: set() for i in range(n)}
        #: (home, block) -> event a recall continuation waits on.
        self._recall_wait: dict[tuple[int, int], Event] = {}
        #: invalidation txn -> block (for the cache-invalidate hook).
        self._txn_block: dict[int, int] = {}
        #: (node, block) pairs whose in-flight reply was logically
        #: invalidated (a short invalidation worm on the request network
        #: overtook the longer data reply — the "window of vulnerability"
        #: [23]); the reply completes the access but does not install.
        self._poisoned: set[tuple[int, int]] = set()

        # Statistics.
        self.read_miss_latency = Tally("read_miss_latency")
        self.write_miss_latency = Tally("write_miss_latency")
        self.upgrade_latency = Tally("upgrade_latency")
        self.invalidation_count = 0
        self.dropped_writebacks = 0
        self.broadcast_invalidations = 0
        #: Coherence messages retransmitted after a loss NACK.
        self.coh_resends = 0

        # Runtime invariant auditing (None when the effective level —
        # the stricter of the ``audit`` argument and the REPRO_AUDIT
        # environment variable — is "off").  The auditor observes
        # synchronously and never schedules events, so results are
        # bit-identical at every level.
        self.audit = Auditor.install(self, audit)

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def home_of(self, block: int) -> int:
        """Home node of a block (block-interleaved)."""
        return block % self.params.num_nodes

    # ------------------------------------------------------------------
    # Processor-facing API
    # ------------------------------------------------------------------
    def access(self, node: int, op: str, block: int):
        """Generator performing one memory reference (``op`` is ``"R"``
        or ``"W"``); delegates to ``yield from`` inside a processor
        process.  Blocks the caller until the reference completes
        (sequential consistency)."""
        if op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {op!r}")
        p = self.params
        write = op == "W"
        key = (node, block)
        yield from self.engine.proc[node].use(p.cache_access)
        while True:
            outcome = self.caches[node].lookup(block, write)
            if outcome == "hit":
                return
            pending = self._pending.get(key)
            if pending is None:
                break
            if self.consistency == "sc":
                raise RuntimeError(
                    f"node {node} issued a second outstanding access to "
                    f"block {block} (processors are sequentially "
                    f"consistent)")
            # Release consistency: an earlier non-blocking write to this
            # block is still in flight; per-location order requires
            # waiting it out, after which this access usually hits.
            yield pending
        start = self.sim.now
        event = self.sim.event(f"miss.{node}.{block}")
        self._pending[key] = event
        mtype = CohType.WR_REQ if write else CohType.RD_REQ
        payload = coh_payload(mtype, block, node,
                              upgrade=(outcome == "upgrade"))
        yield from self.engine.oc[node].use(p.send_overhead)
        self._send(node, self.home_of(block), payload)
        if write and self.consistency == "rc":
            # Non-blocking write: track it; a fence drains it later.
            self._outstanding[node].add(event)
            tally = (self.upgrade_latency if outcome == "upgrade"
                     else self.write_miss_latency)

            def reap():
                yield event
                self._outstanding[node].discard(event)
                tally.add(self.sim.now - start)

            self.sim.spawn(reap(), name=f"rc.write.{node}.{block}")
            return
        yield event
        latency = self.sim.now - start
        if not write:
            self.read_miss_latency.add(latency)
        elif outcome == "upgrade":
            self.upgrade_latency.add(latency)
        else:
            self.write_miss_latency.add(latency)

    def drain_writes(self, node: int):
        """Release fence: wait until every outstanding non-blocking
        write of ``node`` has been granted.  (Generator; no-op under
        sequential consistency.)"""
        while self._outstanding[node]:
            for event in list(self._outstanding[node]):
                yield event

    # ------------------------------------------------------------------
    # Message transport
    # ------------------------------------------------------------------
    def _send(self, src: int, dst: int, payload: dict) -> None:
        mtype: CohType = payload["type"]
        data = mtype in _REPLY_TYPES and payload.get("data", True)
        size = (self.params.data_message_flits if data
                else self.params.control_message_flits)
        if src == dst:
            # Local loopback: no network, but the handler still pays the
            # receive overhead.
            self.sim.spawn(self._handle_coh(dst, payload),
                           name=f"coh.local.{dst}")
            return
        vnet = VNET_REPLY if mtype in _REPLY_TYPES else VNET_REQUEST
        worm = Worm(kind=WormKind.UNICAST, src=src, dests=(dst,),
                    size_flits=size, vnet=vnet, txn=None, payload=payload)
        self.net.inject(worm)

    def _dispatch(self, node: int, worm: Worm, final: bool) -> None:
        role = worm.payload["role"]
        if role in InvalidationEngine.ROLES:
            self.engine.handle_delivery(node, worm, final)
        elif role == "coh":
            self.sim.spawn(self._handle_coh(node, worm.payload),
                           name=f"coh.{node}")
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown payload role {role!r}")

    def _on_worm_dropped(self, worm: Worm, reason: str) -> None:
        """Loss-notification dispatcher (mirrors :meth:`_dispatch`).

        Invalidation-engine worms recover inside the engine; coherence
        messages are simply retransmitted — a dropped worm never entered
        the network, so resending is exactly-once safe — with bounded
        attempts and exponential backoff.
        """
        payload = worm.payload or {}
        if payload.get("role") in InvalidationEngine.ROLES:
            self.engine.handle_worm_dropped(worm, reason)
            return
        p = self.params
        tries = payload.get("_resends", 0)
        if tries >= p.txn_max_retries:
            mtype = payload.get("type")
            raise TransactionFailed(
                f"{getattr(mtype, 'name', mtype)}:{payload.get('block')}",
                "coherence", tries + 1,
                f"message to node {worm.dests[0]} lost: {reason}")
        payload["_resends"] = tries + 1
        self.coh_resends += 1
        src, dst = worm.src, worm.dests[0]
        delay = p.backoff(p.fault_retry_delay, tries)
        self.sim.call_after(delay, lambda: self._send(src, dst, payload))

    def _engine_invalidate(self, node: int, txn: int) -> None:
        block = self._txn_block[txn]
        self.caches[node].invalidate(block)
        self.invalidation_count += 1
        if (node, block) in self._pending:
            # A data reply for this block is still in flight to this node
            # (the directory listed it from an earlier, already-completed
            # read): the reply must not install a stale copy.
            self._poisoned.add((node, block))

    # ------------------------------------------------------------------
    # Node-side message handling
    # ------------------------------------------------------------------
    def _handle_coh(self, node: int, payload: dict):
        p = self.params
        yield from self.engine.proc[node].use(p.recv_overhead)
        mtype: CohType = payload["type"]
        block: int = payload["block"]
        if mtype in (CohType.RD_REQ, CohType.WR_REQ):
            yield from self._dc_process(node, payload)
        elif mtype is CohType.DATA_REPLY:
            self._complete_miss(node, block, CacheState.SHARED)
        elif mtype is CohType.EX_GRANT:
            self._complete_miss(node, block, CacheState.MODIFIED)
        elif mtype in (CohType.RECALL_SH, CohType.RECALL_INV):
            yield from self._handle_recall(node, payload)
        elif mtype is CohType.WB_DATA:
            yield from self._handle_writeback(node, payload)
        else:  # pragma: no cover - defensive
            raise AssertionError(mtype)

    def _complete_miss(self, node: int, block: int,
                       state: CacheState) -> None:
        if (node, block) in self._poisoned:
            self._poisoned.discard((node, block))
            if state is CacheState.SHARED:
                # The shared copy this reply carries was invalidated
                # while in flight; the read completes (ordered before
                # the invalidating write) but nothing is installed.
                self._pending.pop((node, block)).succeed()
                return
            # An exclusive grant: the invalidation killed the *old* copy
            # this node held while its own write was queued behind the
            # invalidating write.  The grant is newer — install it.
        victim = self.caches[node].install(block, state)
        if victim is not None:
            vblock, vstate = victim
            if vstate is CacheState.MODIFIED:
                self.sim.spawn(self._evict_writeback(node, vblock),
                               name=f"wb.{node}.{vblock}")
            # Shared victims drop silently; the directory's stale presence
            # bit at worst costs one unnecessary invalidation later.
        event = self._pending.pop((node, block))
        event.succeed()

    def _evict_writeback(self, node: int, block: int):
        yield from self.engine.oc[node].use(self.params.send_overhead)
        self._send(node, self.home_of(block),
                   coh_payload(CohType.WB_DATA, block, node,
                               voluntary=True))

    def _handle_recall(self, node: int, payload: dict):
        p = self.params
        block = payload["block"]
        mtype = payload["type"]
        pending = self._pending.get((node, block))
        if pending is not None:
            # The recall overtook this node's own grant (shorter control
            # worm vs. data-carrying reply).  The grant is already in
            # flight — the home fully finished the previous transaction
            # before recalling — so wait for it, then honor the recall.
            yield pending
        yield from self.engine.proc[node].use(p.cache_access)
        cache = self.caches[node]
        if cache.state(block) is CacheState.MODIFIED:
            if mtype is CohType.RECALL_SH:
                cache.downgrade(block)
            else:
                cache.invalidate(block)
        # else: a voluntary writeback crossed this recall; reply anyway so
        # the home's continuation can proceed (it takes the first answer).
        yield from self.engine.oc[node].use(p.send_overhead)
        self._send(node, self.home_of(block),
                   coh_payload(CohType.WB_DATA, block, node,
                               voluntary=False))

    def _handle_writeback(self, node: int, payload: dict):
        block = payload["block"]
        waiter = self._recall_wait.pop((node, block), None)
        if waiter is not None:
            waiter.succeed(payload)
            return
        # Voluntary eviction writeback: serviced in directory order.
        yield from self._dc_process(node, payload)

    # ------------------------------------------------------------------
    # Directory controller
    # ------------------------------------------------------------------
    def _dc_process(self, home: int, payload: dict):
        """Queue a request on its directory entry and start the entry's
        service loop if idle.  Requests are serviced strictly FIFO per
        block — that, plus the WAITING state held across every multi-step
        transaction, is what serializes conflicting accesses."""
        p = self.params
        yield from self.dc[home].use(p.dir_access)
        entry = self.dirs[home].entry(payload["block"])
        entry.queue.append(payload)
        if not entry.in_service:
            entry.in_service = True
            self.sim.spawn(self._dc_service(home, entry),
                           name=f"dc.service.{home}.{entry.block}")

    def _dc_service(self, home: int, entry: DirectoryEntry):
        while entry.queue:
            payload = entry.queue.popleft()
            mtype = payload["type"]
            if mtype is CohType.RD_REQ:
                yield from self._dc_read(home, entry, payload)
            elif mtype is CohType.WR_REQ:
                yield from self._dc_write(home, entry, payload)
            elif mtype is CohType.WB_DATA:
                yield from self._dc_writeback(home, entry, payload)
            else:  # pragma: no cover - defensive
                raise AssertionError(mtype)
            if entry.queue:
                # Re-access the directory entry for the next request.
                yield from self.dc[home].use(self.params.dir_access)
        entry.in_service = False

    def _dc_writeback(self, home: int, entry: DirectoryEntry,
                      payload: dict):
        """Voluntary eviction writeback of a modified line."""
        if (entry.state is DirectoryState.EXCLUSIVE
                and entry.owner == payload["requester"]):
            entry.begin_transaction()
            yield from self.mem[home].use(self.params.mem_access)
            entry.make_uncached()
        else:
            # Crossed a recall already answered by this node; that
            # transaction's path updated memory.
            self.dropped_writebacks += 1

    def _dc_read(self, home: int, entry: DirectoryEntry, payload: dict):
        p = self.params
        requester = payload["requester"]
        block = entry.block
        if entry.state in (DirectoryState.UNCACHED, DirectoryState.SHARED):
            sharers = set(entry.presence) | {requester}
            entry.begin_transaction()
            yield from self.mem[home].use(p.mem_access)
            entry.make_shared(sharers, self.directory_pointers)
            yield from self._reply(home, requester,
                                   CohType.DATA_REPLY, block)
            return
        # Exclusive at some owner: recall to shared.
        owner = entry.owner
        assert owner is not None, "exclusive entry without an owner"
        if owner == requester:
            # The owner misses on its own exclusive block: it evicted
            # the modified line and the voluntary writeback is still in
            # flight (the short request overtook it).  Absorb the
            # writeback instead of recalling ourselves.
            entry.begin_transaction()
            yield from self._absorb_writeback(home, entry, requester)
            yield from self.mem[home].use(p.mem_access)
            entry.make_shared({requester}, self.directory_pointers)
            yield from self._reply(home, requester,
                                   CohType.DATA_REPLY, block)
            return
        entry.begin_transaction()
        if owner == home:
            # Home's own cache holds it modified: local downgrade.
            yield from self.engine.proc[home].use(p.cache_access)
            self.caches[home].downgrade(block)
        else:
            yield from self._recall(home, owner, CohType.RECALL_SH, block)
        yield from self.mem[home].use(p.mem_access)
        entry.make_shared({owner, requester}, self.directory_pointers)
        yield from self._reply(home, requester, CohType.DATA_REPLY, block)

    def _dc_write(self, home: int, entry: DirectoryEntry, payload: dict):
        p = self.params
        requester = payload["requester"]
        block = entry.block
        upgrade = payload.get("upgrade", False)
        if entry.state is DirectoryState.UNCACHED:
            entry.begin_transaction()
            yield from self.mem[home].use(p.mem_access)
            entry.make_exclusive(requester)
            yield from self._reply(home, requester, CohType.EX_GRANT,
                                   block, data=True)
            return
        if entry.state is DirectoryState.SHARED:
            if entry.overflow:
                # Limited-pointer overflow: the sharer set is unknown
                # beyond the tracked subset — invalidate *everyone*
                # (Dir_i B broadcast [16, 29]); nodes without the line
                # simply acknowledge.
                sharers = set(range(self.params.num_nodes)) - {requester}
                self.broadcast_invalidations += 1
            else:
                sharers = set(entry.presence) - {requester}
            # An "upgrade" whose copy was invalidated while the request
            # was queued (the requester is no longer a sharer) needs the
            # data after all.
            if upgrade and requester not in entry.presence:
                upgrade = False
            entry.begin_transaction()
            if home in sharers:
                # The home's own cached copy dies locally.
                sharers.discard(home)
                yield from self.engine.proc[home].use(p.cache_invalidate)
                self.caches[home].invalidate(block)
                self.invalidation_count += 1
            if sharers:
                plan = build_plan(self.scheme, self.net.mesh, home,
                                  sorted(sharers))
                st = self.engine.execute(plan)
                self._txn_block[st.txn] = block
                yield st.done
                del self._txn_block[st.txn]
                if isinstance(st.done.value, TransactionFailed):
                    raise st.done.value
            if not upgrade:
                yield from self.mem[home].use(p.mem_access)
            entry.make_exclusive(requester)
            yield from self._reply(home, requester, CohType.EX_GRANT,
                                   block, data=not upgrade)
            return
        # Exclusive at another owner.
        owner = entry.owner
        assert owner is not None, "exclusive entry without an owner"
        if owner == requester:
            # Evicted-then-rewritten: the owner's voluntary writeback is
            # still in flight behind this request (see _dc_read).
            entry.begin_transaction()
            yield from self._absorb_writeback(home, entry, requester)
            yield from self.mem[home].use(p.mem_access)
            entry.make_exclusive(requester)
            yield from self._reply(home, requester, CohType.EX_GRANT,
                                   block, data=True)
            return
        entry.begin_transaction()
        if owner == home:
            yield from self.engine.proc[home].use(p.cache_invalidate)
            self.caches[home].invalidate(block)
            self.invalidation_count += 1
        else:
            yield from self._recall(home, owner, CohType.RECALL_INV, block)
        yield from self.mem[home].use(p.mem_access)
        entry.make_exclusive(requester)
        yield from self._reply(home, requester, CohType.EX_GRANT,
                               block, data=True)

    # ------------------------------------------------------------------
    # Directory helpers
    # ------------------------------------------------------------------
    def _recall(self, home: int, owner: int, mtype: CohType, block: int):
        """Send a recall and wait for the owner's WB_DATA."""
        event = self.sim.event(f"recall.{home}.{block}")
        self._recall_wait[(home, block)] = event
        yield from self.engine.oc[home].use(self.params.send_overhead)
        self._send(home, owner, coh_payload(mtype, block, home))
        yield event

    def _absorb_writeback(self, home: int, entry: DirectoryEntry,
                          owner: int):
        """Consume the voluntary WB_DATA an eviction put in flight when
        its own requester's next miss overtook it.

        The writeback is either already queued behind the request on
        this entry (take it out — waiting would deadlock the service
        loop) or still in the network (wait for it like a recall
        answer).  Stale writebacks from *previous* owners may also still
        be in flight; those are dropped, not absorbed."""
        while True:
            for queued in entry.queue:
                if (queued["type"] is CohType.WB_DATA
                        and queued["requester"] == owner):
                    entry.queue.remove(queued)
                    return
            event = self.sim.event(f"absorb.{home}.{entry.block}")
            self._recall_wait[(home, entry.block)] = event
            payload = yield event
            if payload["requester"] == owner:
                return
            self.dropped_writebacks += 1

    def _reply(self, home: int, requester: int, mtype: CohType,
               block: int, data: bool = True):
        yield from self.engine.oc[home].use(self.params.send_overhead)
        self._send(home, requester,
                   coh_payload(mtype, block, requester, data=data))

    # ------------------------------------------------------------------
    # Introspection for tests and experiments
    # ------------------------------------------------------------------
    def total_hits(self) -> int:
        """Cache hits across all nodes."""
        return sum(c.hits for c in self.caches)

    def total_misses(self) -> int:
        """Cache misses across all nodes."""
        return sum(c.misses for c in self.caches)

    def total_upgrades(self) -> int:
        """Shared-to-modified upgrades across all nodes."""
        return sum(c.upgrades for c in self.caches)

    def metrics_snapshot(self) -> dict:
        """One consistent view of the coherence, fault, and recovery
        counters across the system, engine, and network (see
        :meth:`InvalidationEngine.metrics_snapshot`)."""
        snapshot = self.engine.metrics_snapshot()
        snapshot.update(
            hits=self.total_hits(), misses=self.total_misses(),
            upgrades=self.total_upgrades(),
            invalidations=self.invalidation_count,
            dropped_writebacks=self.dropped_writebacks,
            broadcast_invalidations=self.broadcast_invalidations,
            coh_resends=self.coh_resends)
        return snapshot

    def assert_quiescent(self) -> None:
        """The quiescence check once all processors finished: no pending
        miss, recall or release-consistency write, every directory entry
        settled and drained, no leaked i-ack buffer entry.  Raises a
        typed :class:`~repro.audit.InvariantViolation` at every audit
        level (with the trail when an auditor is installed), then runs
        the auditor's final sweep."""
        def fail(invariant: str, message: str, block=None) -> NoReturn:
            violate(self.audit, self.sim, invariant, message, block=block)

        if self._pending:
            fail("waiting-discipline",
                 f"pending misses (node, block): {sorted(self._pending)}")
        if self._recall_wait:
            fail("waiting-discipline", f"outstanding recalls (home, block): "
                                       f"{sorted(self._recall_wait)}")
        if any(self._outstanding.values()):
            fail("waiting-discipline", "undrained release-consistency writes")
        for d in self.dirs:
            for b in d.known_blocks():
                e = d.entry(b)
                if e.busy or e.queue or e.in_service:
                    fail("waiting-discipline",
                         f"entry {b} at home {d.home} not quiescent "
                         f"(state={e.state.value}, queued={len(e.queue)}, "
                         f"in_service={e.in_service})", block=b)
        for node, iface in enumerate(self.net.interfaces):
            if iface.iack._entries:
                fail("worm-conservation",
                     f"{len(iface.iack._entries)} i-ack buffer entr(ies) "
                     f"leaked at node {node}")
        if self.audit is not None:
            self.audit.final_check()
