"""The runtime invariant auditor.

One :class:`Auditor` instance observes one simulation run through
synchronous hooks in the cache controllers, the directory entries, the
invalidation engine, and the network, recording every event into one
trail.  It never creates simulation events, never yields, and never
mutates protocol state — an audited run is bit-identical to an
unaudited one in every statistic, including the simulator's
dispatched-callback count.

Audit levels:

* ``off``   — no auditor is constructed; every hook site is a single
  ``is None`` test (≈zero overhead, bit-identical output);
* ``cheap`` — protocol- and worm-event trail + per-transaction
  conservation checks at transaction completion + WAITING-state
  discipline on every directory transition + the final sweep of open
  transactions, worm counts, and :meth:`Auditor.check_entry` (SWMR and
  directory/cache agreement) over every settled directory entry;
* ``full``  — ``cheap`` plus per-event global checks:
  :meth:`Auditor.check_entry` on every directory transition, and SWMR
  and directory/cache agreement on every cache install.

Quiescence itself (drained directories, no pending miss, no leaked
i-ack entry) is checked at every level, ``off`` included, by
:meth:`~repro.coherence.system.DSMSystem.assert_quiescent` through
:func:`violate`, so it raises the same typed violations.

Invariant catalog (executable forms; paper-section citations in
``docs/AUDIT.md``):

``swmr``
    at most one EXCLUSIVE owner per block, never concurrent with shared
    copies elsewhere (Sec. 2.2 directory states);
``dir-agreement``
    presence bits ⇔ actual cached lines: every cached copy is covered by
    a presence bit (or the Dir_i B overflow bit), EXCLUSIVE entries name
    a valid owner (Sec. 2.2 presence-bit pointer array);
``txn-conservation``
    invalidations delivered cover every sharer; on a perfect network
    each sharer is invalidated exactly once and acks received equal
    sharers invalidated (Sec. 4 ack counting under UI-UA/MI-UA/MI-MA);
``waiting-discipline``
    directory entries transition out of WAITING only (transactions
    bracket every multi-step operation), the deferred-request queue is
    bounded and drained, ``saved_state``/``in_service`` bookkeeping is
    consistent (Sec. 2.2 *waiting* state);
``worm-conservation``
    every worm offered to the mesh is finally consumed, dropped by a
    declared fault, or swallowed by a purged transaction's blackhole;
    no i-ack buffer entry leaks (Sec. 4/5 worm lifecycles).
"""

from __future__ import annotations

from typing import Any, NoReturn, Optional, TYPE_CHECKING

from repro.audit.trail import EventTrail
from repro.audit.violations import InvariantViolation, resolve_level

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coherence.system import DSMSystem
    from repro.core.engine import InvalidationEngine

#: Deferred-queue occupancy bound per directory entry: every node may
#: have one outstanding access plus one crossing writeback in flight.
_QUEUE_SLACK = 8


class _TxnAudit:
    """Per-transaction conservation ledger."""

    __slots__ = ("sharers", "inval_counts", "acks", "losses", "sent")

    def __init__(self, sharers) -> None:
        self.sharers = frozenset(sharers)
        self.inval_counts: dict[int, int] = {}
        self.acks = 0
        self.losses = 0
        self.sent = 0


class Auditor:
    """Pluggable invariant layer for one engine or DSM run.

    Constructing one attaches it to ``net``, so a bare network's worm
    events are on :attr:`trail` with no further install step."""

    def __init__(self, level: str, *, sim, net,
                 engine: Optional["InvalidationEngine"] = None,
                 system: Optional["DSMSystem"] = None) -> None:
        level = resolve_level(level)
        if level == "off":
            raise ValueError("construct no Auditor for level 'off'")
        self.level = level
        self.full = level == "full"
        self.sim = sim
        self.net = net
        self.engine = engine
        self.system = system
        self.trail = EventTrail()
        #: Violations found (each is also raised at detection time).
        self.violations: list[InvariantViolation] = []
        self._txns: dict[Any, _TxnAudit] = {}
        #: Transactions audited to completion.
        self.txns_checked = 0
        #: Final quiescence sweeps performed.
        self.final_checks = 0
        net.audit = self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def install(cls, system: "DSMSystem",
                level: str) -> Optional["Auditor"]:
        """Attach a full-system auditor (caches, directories, engine,
        network) to ``system``; returns None when the resolved level
        (the stricter of ``level`` and ``REPRO_AUDIT``) is ``off``."""
        level = resolve_level(level)
        if level == "off":
            return None
        auditor = cls(level, sim=system.sim, net=system.net,
                      engine=system.engine, system=system)
        for cache in system.caches:
            cache.audit = auditor
        for directory in system.dirs:
            directory.audit = auditor
            for block in directory.known_blocks():
                directory.entry(block).audit = auditor
        system.engine.audit = auditor
        return auditor

    @classmethod
    def install_engine(cls, engine: "InvalidationEngine",
                       level: str) -> Optional["Auditor"]:
        """Attach an engine-only auditor (engine and network, no
        caches/directories: checks transaction conservation and worm
        conservation)."""
        level = resolve_level(level)
        if level == "off":
            return None
        auditor = cls(level, sim=engine.sim, net=engine.net,
                      engine=engine)
        engine.audit = auditor
        return auditor

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, invariant: str, message: str, *,
                 node: Optional[int] = None, block: Optional[int] = None,
                 txn: Any = None) -> None:
        exc = InvariantViolation(
            invariant, message, cycle=self.sim.now, node=node, block=block,
            txn=txn, trail=self.trail.tail(40, block=block, txn=txn))
        self.violations.append(exc)
        raise exc

    def _record(self, kind: str, node: Optional[int] = None,
                block: Optional[int] = None, txn: Any = None,
                detail: str = "", worm: Optional[int] = None) -> None:
        self.trail.record(self.sim.now, kind, node, block, txn, detail,
                          worm)

    # ------------------------------------------------------------------
    # Cache hooks (installed on every Cache when system-attached)
    # ------------------------------------------------------------------
    def on_cache_install(self, cache, block: int, state, victim) -> None:
        self._record("cache.install", cache.node, block,
                     detail=f"state={state.value}"
                            + (f" victim={victim[0]}" if victim else ""))
        if not self.full or self.system is None:
            return
        from repro.coherence.cache import CacheState
        from repro.coherence.directory import DirectoryState
        system = self.system
        entry = system.dirs[system.home_of(block)].entry(block)
        if state is CacheState.MODIFIED:
            for other in system.caches:
                if other is not cache and block in other:
                    self._violate(
                        "swmr",
                        f"node {cache.node} installed MODIFIED block "
                        f"{block} while node {other.node} still holds it "
                        f"{other.state(block).value}",
                        node=cache.node, block=block)
            if entry.state not in (DirectoryState.EXCLUSIVE,
                                   DirectoryState.WAITING):
                self._violate(
                    "dir-agreement",
                    f"node {cache.node} installed MODIFIED block {block} "
                    f"but its directory entry is {entry.state.value}",
                    node=cache.node, block=block)
            if (entry.state is DirectoryState.EXCLUSIVE
                    and entry.owner != cache.node):
                self._violate(
                    "dir-agreement",
                    f"node {cache.node} installed MODIFIED block {block} "
                    f"but the directory owner is {entry.owner}",
                    node=cache.node, block=block)
        else:  # SHARED install
            for other in system.caches:
                if (other is not cache
                        and other.state(block) is CacheState.MODIFIED):
                    self._violate(
                        "swmr",
                        f"node {cache.node} installed SHARED block {block} "
                        f"while node {other.node} holds it MODIFIED",
                        node=cache.node, block=block)
            if (entry.state is not DirectoryState.WAITING
                    and cache.node not in entry.presence
                    and not entry.overflow):
                self._violate(
                    "dir-agreement",
                    f"node {cache.node} installed SHARED block {block} "
                    f"without a presence bit (entry {entry.state.value}, "
                    f"presence={sorted(entry.presence)})",
                    node=cache.node, block=block)

    def on_cache_invalidate(self, cache, block: int, present: bool) -> None:
        self._record("cache.invalidate", cache.node, block,
                     detail="hit" if present else "absent")

    def on_cache_downgrade(self, cache, block: int) -> None:
        self._record("cache.downgrade", cache.node, block)

    # ------------------------------------------------------------------
    # Directory hooks (installed on every entry when system-attached)
    # ------------------------------------------------------------------
    def on_dir_begin(self, entry) -> None:
        """Called as an entry enters WAITING (pre-transition state)."""
        self._record("dir.begin", block=entry.block,
                     detail=f"from={entry.state.value} "
                            f"queued={len(entry.queue)}")
        if entry.saved_state is not None:
            self._violate(
                "waiting-discipline",
                f"entry {entry.block} begins a transaction with stale "
                f"saved_state={entry.saved_state.value}",
                block=entry.block)
        if self.system is not None:
            bound = 2 * self.system.params.num_nodes + _QUEUE_SLACK
            if len(entry.queue) > bound:
                self._violate(
                    "waiting-discipline",
                    f"entry {entry.block} deferred-request queue holds "
                    f"{len(entry.queue)} requests (bound {bound})",
                    block=entry.block)

    def on_dir_transition(self, entry, prev) -> None:
        """Called after ``make_uncached/make_shared/make_exclusive``
        with the pre-transition state."""
        from repro.coherence.directory import DirectoryState
        state = entry.state
        self._record("dir.transition", block=entry.block,
                     detail=f"{prev.value}->{state.value} "
                            f"presence={sorted(entry.presence)} "
                            f"owner={entry.owner}"
                            + (" overflow" if entry.overflow else ""))
        if prev is not DirectoryState.WAITING:
            self._violate(
                "waiting-discipline",
                f"entry {entry.block} moved {prev.value} -> {state.value} "
                f"outside a transaction (no WAITING bracket)",
                block=entry.block)
        if entry.saved_state is not None:
            self._violate(
                "waiting-discipline",
                f"entry {entry.block} kept saved_state="
                f"{entry.saved_state.value} after settling to "
                f"{state.value}", block=entry.block)
        if self.full and self.system is not None:
            self.check_entry(entry)

    def check_entry(self, entry) -> None:
        """SWMR and directory/cache agreement for one settled
        (non-WAITING) directory entry: an EXCLUSIVE entry names a valid
        owner whose copy is the only one; otherwise no copy is MODIFIED
        and, without the overflow bit, every copy has a presence bit."""
        from repro.coherence.cache import CacheState
        from repro.coherence.directory import DirectoryState
        system, block = self.system, entry.block
        holders = [c for c in system.caches if block in c]
        if entry.state is DirectoryState.EXCLUSIVE:
            owner = entry.owner
            if owner is None or not 0 <= owner < system.params.num_nodes:
                self._violate("dir-agreement",
                              f"EXCLUSIVE entry {block} has invalid "
                              f"owner {owner!r}", block=block)
            if entry.presence != {owner}:
                self._violate(
                    "dir-agreement",
                    f"EXCLUSIVE entry {block} presence "
                    f"{sorted(entry.presence)} != owner {{{owner}}}",
                    block=block)
            strangers = [c.node for c in holders if c.node != owner]
            if strangers:
                self._violate(
                    "swmr", f"EXCLUSIVE block {block} (owner {owner}) "
                            f"also cached at {strangers}",
                    node=strangers[0], block=block)
            return
        mod = [c.node for c in holders
               if c.state(block) is CacheState.MODIFIED]
        if mod:
            self._violate("swmr", f"{entry.state.value} block {block} "
                                  f"held MODIFIED at {mod}",
                          node=mod[0], block=block)
        if not entry.overflow:
            uncovered = [c.node for c in holders
                         if c.node not in entry.presence]
            if uncovered:
                self._violate(
                    "dir-agreement",
                    f"block {block} cached at {uncovered} without "
                    f"presence bits (presence={sorted(entry.presence)}, "
                    f"state={entry.state.value})",
                    node=uncovered[0], block=block)

    # ------------------------------------------------------------------
    # Invalidation-engine hooks
    # ------------------------------------------------------------------
    def on_txn_start(self, st) -> None:
        self._txns[st.txn] = ledger = _TxnAudit(st.plan.sharers)
        self._record("txn.start", node=st.plan.home, txn=st.txn,
                     detail=f"scheme={st.plan.scheme} "
                            f"sharers={list(st.plan.sharers)} "
                            f"attempt={st.attempt}")
        del ledger  # recorded; populated by the hooks below

    def on_invalidated(self, st, node: int) -> None:
        ledger = self._txns.get(st.txn)
        if ledger is not None:
            ledger.inval_counts[node] = ledger.inval_counts.get(node, 0) + 1
        self._record("txn.invalidated", node=node, txn=st.txn)

    def on_ack(self, st, count: int, sharer: Optional[int]) -> None:
        ledger = self._txns.get(st.txn)
        if ledger is not None:
            ledger.acks += count
        self._record("txn.ack", node=sharer, txn=st.txn,
                     detail=f"count={count}")

    def on_loss(self, st, reason: str) -> None:
        ledger = self._txns.get(st.txn)
        if ledger is not None:
            ledger.losses += 1
        self._record("txn.loss", txn=st.txn, detail=reason)

    def on_txn_fail(self, st, reason: str) -> None:
        self._txns.pop(st.txn, None)
        self._record("txn.fail", node=st.plan.home, txn=st.txn,
                     detail=reason)

    def on_txn_finish(self, st) -> None:
        """Transaction-conservation checks at completion time."""
        ledger = self._txns.pop(st.txn, None)
        self._record("txn.finish", node=st.plan.home, txn=st.txn,
                     detail=f"attempts={st.attempt} acks={st.acks} "
                            f"downgrades={st.downgrades}")
        if ledger is None:  # started before the auditor attached
            return
        self.txns_checked += 1
        faulty = self.net.faults is not None
        missing = ledger.sharers - set(ledger.inval_counts)
        if missing:
            self._violate(
                "txn-conservation",
                f"transaction finished with sharer(s) {sorted(missing)} "
                f"never invalidated (sent={ledger.sent} "
                f"acks={ledger.acks} losses={ledger.losses} "
                f"downgrades={st.downgrades})", txn=st.txn)
        phantom = set(ledger.inval_counts) - ledger.sharers
        if phantom:
            self._violate(
                "txn-conservation",
                f"non-sharer node(s) {sorted(phantom)} were invalidated",
                txn=st.txn)
        if not faulty:
            dupes = {n: c for n, c in ledger.inval_counts.items() if c != 1}
            if dupes:
                self._violate(
                    "txn-conservation",
                    f"sharers invalidated more than once on a perfect "
                    f"network: {dupes}", txn=st.txn)
            if ledger.acks != len(ledger.sharers):
                self._violate(
                    "txn-conservation",
                    f"{ledger.acks} acknowledgment(s) received for "
                    f"{len(ledger.sharers)} sharer(s) with no recorded "
                    f"losses", txn=st.txn)

    # ------------------------------------------------------------------
    # Network hooks (one per worm event; ``worm.*`` trail entries)
    # ------------------------------------------------------------------
    def _worm(self, kind: str, node: int, worm, detail: str = "") -> None:
        """Record a worm event under the worm's txn and, for a coherence
        message, its block."""
        payload = worm.payload
        block = payload.get("block") if type(payload) is dict else None
        self._record(kind, node, block, worm.txn, detail, worm.uid)

    def on_worm_inject(self, worm, fate) -> None:
        """A worm offered at its source: injected, or lost to a fault
        when ``fate`` is the ``(reason, hops)`` of its drop."""
        ledger = self._txns.get(worm.txn)
        if ledger is not None:
            ledger.sent += 1
        detail = f"{worm.kind.value} -> {list(worm.dests)}"
        if fate is None:
            self._worm("worm.inject", worm.src, worm, detail)
        else:
            self._worm("worm.drop", worm.src, worm, f"{detail} ({fate[0]})")

    def on_worm_deliver(self, node: int, worm, final: bool) -> None:
        self._worm("worm.deliver", node, worm, "final" if final else "absorb")

    def on_worm_chain_wait(self, node: int, worm) -> None:
        self._worm("worm.chain-wait", node, worm)

    def on_worm_resume(self, node: int, worm) -> None:
        """A parked i-gather worm is released to move on."""
        self._worm("worm.resume", node, worm, f"acks={worm.acks_carried}")

    # ------------------------------------------------------------------
    # Final sweep
    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """End-of-run sweep of what only an auditor tracks: open
        transactions, worm counts, and SWMR and directory/cache
        agreement at rest.

        Worm conservation is only decidable when the network is idle; a
        run stopped with traffic still in flight (e.g. an eviction
        writeback racing program completion) skips that part.
        """
        self.final_checks += 1
        self._record("audit.final")
        net = self.net
        if self.engine is not None and self.engine._txns:
            self._violate(
                "txn-conservation",
                f"{len(self.engine._txns)} invalidation transaction(s) "
                f"still open at quiescence: "
                f"{sorted(self.engine._txns)}")
        if net.idle():
            # Fault-dropped worms are filtered at injection time and
            # never counted in ``injected``, so they do not appear here.
            swallowed = sum(iface.iack.swallowed
                            for iface in net.interfaces)
            accounted = net.delivered + swallowed
            if net.injected != accounted:
                self._violate(
                    "worm-conservation",
                    f"{net.injected} worm(s) entered the mesh but only "
                    f"{accounted} left it (delivered={net.delivered}, "
                    f"swallowed={swallowed}; {net.worms_dropped} more "
                    f"dropped at injection)")
        if self.system is not None:
            self.check_settled()

    def check_settled(self) -> None:
        """:meth:`check_entry` over every settled directory entry."""
        from repro.coherence.directory import DirectoryState
        for directory in self.system.dirs:
            for block in directory.known_blocks():
                entry = directory.entry(block)
                if entry.state is not DirectoryState.WAITING:
                    self.check_entry(entry)


def violate(audit: Optional[Auditor], sim, invariant: str, message: str,
            *, node: Optional[int] = None, block: Optional[int] = None,
            txn: Any = None) -> NoReturn:
    """Raise an :class:`InvariantViolation` of ``invariant`` at
    ``sim.now``, at every audit level: through ``audit`` (which records
    it and attaches the trail) when one is installed, bare otherwise."""
    if audit is not None:
        audit._violate(invariant, message, node=node, block=block, txn=txn)
    raise InvariantViolation(invariant, message, cycle=sim.now, node=node,
                             block=block, txn=txn)
