"""Worm (message) representation.

A *worm* is one wormhole message: a pipeline of flits led by routing
headers.  Unicast worms have a single destination.  Multidestination worms
carry an ordered destination list that must form a base-routing-conformed
path (validated by :mod:`repro.brcp`); the router interface at each
intermediate destination acts on the worm according to its kind:

==============  =====================================================
kind            behaviour at an intermediate destination
==============  =====================================================
UNICAST         (none — single destination)
MULTICAST       forward-and-absorb: copy flits to a consumption
                channel while forwarding [39]
IRESERVE        multicast behaviour *plus* reserve an i-ack buffer
                entry at the router interface (paper Sec. 4/5)
IGATHER         pick up the ack signal from the i-ack buffer and move
                on; no consumption channel needed [38]; may park via
                deferred delivery when the ack is not ready [36]
CHAIN           SCI-style: deliver the invalidation and *wait* for the
                local cache to finish before proceeding [11]
==============  =====================================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class WormKind(Enum):
    """Message kinds understood by the router interface."""

    UNICAST = "unicast"
    MULTICAST = "multicast"
    IRESERVE = "i-reserve"
    IGATHER = "i-gather"
    CHAIN = "chain"


#: Virtual network indices (logically separate request/reply networks).
VNET_REQUEST = 0
VNET_REPLY = 1

_uid_counter = itertools.count(1)


@dataclass(slots=True)
class Worm:
    """One wormhole message in flight.

    ``dests`` is the ordered list of destinations along the worm's path;
    ``ptr`` indexes the next destination still ahead of the header.  For
    multidestination kinds, extra per-destination behaviour flags live in
    ``reserve_only``: destinations listed there get an i-ack buffer
    reservation but *no* local delivery (used for row-junction routers in
    hierarchical gathering).
    """

    kind: WormKind
    src: int
    dests: tuple[int, ...]
    size_flits: int
    vnet: int = VNET_REQUEST
    #: Coherence-transaction key; i-ack buffer entries are keyed by it.
    txn: Any = None
    #: Opaque payload handed to the destination node(s) on delivery.
    payload: Any = None
    #: Destinations that only take a level-1 reservation (no delivery).
    reserve_only: frozenset[int] = frozenset()
    #: Delivery destinations that *additionally* take a level-1
    #: reservation (a row junction that is itself a sharer).
    extra_reserve: frozenset[int] = frozenset()
    #: Delivery destinations that skip the level-0 reservation (their ack
    #: is never picked up by a gather worm — e.g. gather launchers, whose
    #: ack rides at the head of the gather itself).
    no_reserve: frozenset[int] = frozenset()
    #: For IGATHER: number of ack signals to pick up along the way
    #: (accumulated into :attr:`acks_carried`).
    acks_carried: int = 0
    #: For IGATHER: i-ack buffer level picked up at intermediate stops
    #: (0 = a sharer's own ack, 1 = a column-combined ack at a junction).
    pickup_level: int = 0
    #: Monotonically increasing id; also the deterministic tie-breaker.
    uid: int = field(default_factory=lambda: next(_uid_counter))

    # ------------------------------------------------------------------
    # Runtime state (owned by the network while in flight)
    # ------------------------------------------------------------------
    ptr: int = 0
    injected_at: Optional[int] = None
    delivered_at: Optional[int] = None
    #: Total link traversals of all flits (filled by the network).
    flit_hops: int = 0
    #: Non-minimal detour hops taken so far (fault-aware routing budget).
    misroutes: int = 0

    def __post_init__(self) -> None:
        if not self.dests:
            raise ValueError("worm needs at least one destination")
        if self.kind is WormKind.UNICAST and len(self.dests) != 1:
            raise ValueError("unicast worm must have exactly one destination")
        if self.src in self.dests:
            raise ValueError("worm source cannot be one of its destinations")
        if len(set(self.dests)) != len(self.dests):
            raise ValueError("duplicate destinations in worm path")
        if self.size_flits < 1:
            raise ValueError("worm must have at least one flit")

    # ------------------------------------------------------------------
    @property
    def next_dest(self) -> int:
        """Destination the header is currently routed toward."""
        return self.dests[self.ptr]

    @property
    def at_last_leg(self) -> bool:
        """True when the header is headed for the final destination."""
        return self.ptr == len(self.dests) - 1

    def advance(self) -> None:
        """Move the header's target to the next destination."""
        if self.at_last_leg:
            raise ValueError("cannot advance past the final destination")
        self.ptr += 1

    def delivers_at(self, node: int) -> bool:
        """True if the worm hands its payload to ``node``'s processor."""
        return node in self.dests and node not in self.reserve_only

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Worm #{self.uid} {self.kind.value} {self.src}->"
                f"{list(self.dests)} vnet={self.vnet} txn={self.txn}>")
