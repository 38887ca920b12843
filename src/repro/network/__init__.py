"""Cycle-level wormhole-routed 2-D mesh network.

This package implements the message-passing substrate the paper's DSM sits
on: a ``k x k`` mesh of routers using wormhole switching [33], with

* deterministic e-cube (XY) and adaptive west-first turn-model base
  routing (:mod:`repro.network.routing`);
* virtual-channel flow control with logically separate request and reply
  networks (breaking protocol-level deadlock as in DASH [10]);
* multiple consumption channels per router interface [2, 39];
* multidestination worms — multicast with forward-and-absorb, i-reserve,
  and i-gather worms with i-ack buffers and virtual cut-through deferred
  delivery [36] (:mod:`repro.network.worm`,
  :mod:`repro.network.interface`);
* an SCI-style chained invalidation worm for comparison [11].

The network advances on an integer cycle clock driven from the simulation
calendar; it sleeps whenever no worm is in flight and skips cycles in
which it provably cannot change (:mod:`repro.network.network`).
"""

from repro.network.network import MeshNetwork
from repro.network.routing import (ECubeRouting, FaultAwareRouting, Routing,
                                   RoutingError, WestFirstRouting,
                                   make_routing)
from repro.network.topology import Mesh2D, Port
from repro.network.worm import Worm, WormKind

__all__ = [
    "ECubeRouting",
    "FaultAwareRouting",
    "Mesh2D",
    "MeshNetwork",
    "Port",
    "Routing",
    "RoutingError",
    "WestFirstRouting",
    "Worm",
    "WormKind",
    "make_routing",
]
