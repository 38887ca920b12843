"""Router interface: consumption channels and i-ack buffers.

The *router interface* sits between a router's local port and its node.
The paper augments it with two mechanisms:

* **Multiple consumption channels** [2, 39].  A multidestination worm must
  hold a consumption channel at every intermediate destination while its
  flits are copied to the node (forward-and-absorb).  Four channels per
  interface suffice for deadlock freedom on a 2-D mesh.

* **A small file of i-ack buffers** (2-4 entries; paper Fig. 7).  An
  i-reserve worm reserves an entry as it passes; the node later deposits
  its invalidation-acknowledgment signal into the reserved entry by a
  memory-mapped write; a passing i-gather worm picks the signal up without
  involving the node.  Each entry also has a *message field* so that a
  blocked i-gather worm can park itself (virtual cut-through deferred
  delivery [36]) instead of holding channels across the network.

Entries are keyed by ``(transaction, level)``: level 0 holds a sharer's own
ack, level 1 holds a column-combined ack at a row-junction router (used by
the hierarchical gathering schemes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.network.worm import Worm


class IAckProtocolError(RuntimeError):
    """A deposit or pickup violated the reserve-before-use discipline."""


@dataclass
class IAckEntry:
    """One i-ack buffer entry (signal bit + count + message field)."""

    key: Hashable
    #: True once an i-reserve (or reserving unicast) worm claimed the entry.
    reserved: bool = False
    #: True once the node deposited its ack signal.
    ready: bool = False
    #: Number of ack signals the entry represents (combined acks > 1).
    count: int = 0
    #: Parked i-gather worm awaiting this signal (deferred delivery).
    parked: Optional[Worm] = None
    #: True while the parked worm's flits are still draining into the
    #: message field; a deposit during the drain must not re-inject it
    #: (the tail-drain handler finishes the pickup instead).
    draining: bool = False


class IAckBufferFile:
    """The per-interface file of i-ack buffers."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("need at least one i-ack buffer")
        self.capacity = capacity
        self._entries: dict[Hashable, IAckEntry] = {}
        # Statistics for the buffer-sensitivity experiment (E7).
        self.reserve_blocked = 0
        self.parks = 0
        self.pickups = 0
        self.deposits = 0
        #: Transactions whose entries were purged after a failed attempt
        #: (fault recovery).  Keys of a dead transaction get *blackhole*
        #: semantics: reserves succeed without storing, deposits are
        #: swallowed, pickups read as an empty signal, and parks drain
        #: into nothing — so straggler worms of an abandoned attempt can
        #: never re-occupy (and leak) buffer entries.  May be a set
        #: shared across every interface of a network.
        self.dead_txns: set[Hashable] = set()
        #: Parked worms swallowed by a purge or its blackhole — they
        #: left the network without a delivery.  Worm-conservation
        #: audits charge them here: injected == delivered + swallowed.
        self.swallowed = 0

    def _dead(self, key: Hashable) -> bool:
        return (bool(self.dead_txns) and isinstance(key, tuple)
                and bool(key) and key[0] in self.dead_txns)

    def purge_txn(self, txn: Hashable) -> int:
        """Drop every entry keyed by ``txn`` and mark it dead forever.

        Returns the number of entries freed.  Called by the recovery
        layer before retransmitting, so the retry starts from clean
        buffers and late worms of the dead attempt are blackholed.
        """
        self.dead_txns.add(txn)
        stale = [k for k in self._entries
                 if isinstance(k, tuple) and k and k[0] == txn]
        for k in stale:
            entry = self._entries.pop(k)
            if entry.parked is not None and not entry.draining:
                # A still-draining worm is counted when its tail-drain
                # handler hits the dead branch of finish_park_drain.
                self.swallowed += 1
        return len(stale)

    # ------------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        """Unused entries."""
        return self.capacity - len(self._entries)

    def entry(self, key: Hashable) -> Optional[IAckEntry]:
        """Entry for ``key`` or None."""
        return self._entries.get(key)

    # ------------------------------------------------------------------
    def try_reserve(self, key: Hashable) -> bool:
        """Claim an entry for ``key``.

        Returns False (and counts a blocked cycle) when the file is full
        and no entry for ``key`` exists yet — the reserving worm must stall
        and retry.  Reserving an entry that a gather worm already created
        by parking simply marks it reserved.
        """
        if self._dead(key):
            return True
        entry = self._entries.get(key)
        if entry is not None:
            entry.reserved = True
            return True
        if len(self._entries) >= self.capacity:
            self.reserve_blocked += 1
            return False
        self._entries[key] = IAckEntry(key, reserved=True)
        return True

    def deposit(self, key: Hashable, count: int = 1) -> Optional[Worm]:
        """Node-side memory-mapped write of an ack signal.

        Requires a prior reservation (the protocol guarantees one; a
        missing entry is a protocol bug).  Returns a parked worm to
        re-inject, if one was waiting for this signal — the caller picks
        the signal up on the worm's behalf (entry is freed).
        """
        if self._dead(key):
            return None
        entry = self._entries.get(key)
        if entry is None or not entry.reserved:
            raise IAckProtocolError(
                f"deposit for {key!r} without a reservation")
        if entry.ready:
            raise IAckProtocolError(f"double deposit for {key!r}")
        entry.ready = True
        entry.count += count
        self.deposits += 1
        if entry.parked is not None and not entry.draining:
            worm = entry.parked
            worm.acks_carried += entry.count
            self.pickups += 1
            del self._entries[key]
            return worm
        return None

    def try_pickup(self, key: Hashable) -> Optional[int]:
        """Gather-worm pickup of a ready signal; frees the entry.

        Returns the signal count, or None when the signal is not ready yet
        (entry missing or reserved-but-not-deposited).
        """
        if self._dead(key):
            return 0  # keep a straggler gather moving, never parked
        entry = self._entries.get(key)
        if entry is None or not entry.ready:
            return None
        if entry.parked is not None:
            raise IAckProtocolError(
                f"pickup of {key!r} while a worm is parked on it")
        del self._entries[key]
        self.pickups += 1
        return entry.count

    def try_park(self, key: Hashable, worm: Worm) -> bool:
        """Deferred delivery: store ``worm`` in the entry's message field.

        Creates the entry if needed (a gather can overtake the reserving
        worm).  Returns False when the file is full and no entry exists —
        the gather must stall in place and retry.
        """
        if self._dead(key):
            return True
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                return False
            entry = IAckEntry(key)
            self._entries[key] = entry
        if entry.parked is not None:
            raise IAckProtocolError(f"entry {key!r} already holds a worm")
        entry.parked = worm
        entry.draining = True
        self.parks += 1
        return True

    def finish_park_drain(self, key: Hashable) -> Optional[Worm]:
        """Called when a parked worm's tail has drained into the entry.

        If the ack signal arrived mid-drain the pickup completes now:
        returns the worm for re-injection (entry freed).  Otherwise the
        worm stays parked and None is returned.
        """
        if self._dead(key):
            self.swallowed += 1
            return None  # the swallowed worm stays gone
        entry = self._entries.get(key)
        if entry is None or entry.parked is None:
            raise IAckProtocolError(f"no parked worm on {key!r}")
        entry.draining = False
        if entry.ready:
            worm = entry.parked
            worm.acks_carried += entry.count
            self.pickups += 1
            del self._entries[key]
            return worm
        return None


class RouterInterface:
    """Consumption channels + i-ack buffer file of one router."""

    def __init__(self, consumption_channels: int, iack_buffers: int) -> None:
        self.total_cc = consumption_channels
        self.free_cc = consumption_channels
        self.iack = IAckBufferFile(iack_buffers)
        #: Cycles some worm spent stalled for a consumption channel.
        self.cc_blocked = 0
        #: Chain-worm completion flags: keys whose local action finished.
        self.chain_done: set[Hashable] = set()

    def try_acquire_cc(self) -> bool:
        """Grab one consumption channel if available."""
        if self.free_cc > 0:
            self.free_cc -= 1
            return True
        self.cc_blocked += 1
        return False

    def release_cc(self) -> None:
        """Return a consumption channel."""
        if self.free_cc >= self.total_cc:
            raise RuntimeError("releasing an idle consumption channel")
        self.free_cc += 1
