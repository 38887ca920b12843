"""Network-wide property tests: flit conservation, ordering, and
structural invariants under randomized traffic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemParameters
from repro.faults import FaultPlan, LinkFault
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.network import IDLE
from repro.network.worm import VNET_REQUEST
from repro.sim import Simulator


def assert_drained(net):
    """Every VC idle with an empty buffer, no owned output, no injection
    work, and every consumption channel free."""
    assert net.idle()
    assert all(state == IDLE for state in net._vstate)
    assert not any(net._occ) and not any(map(len, net._buf))
    assert all(owner < 0 for owner in net._owner)
    assert not any(net._inject_work)
    for iface in net.interfaces:
        assert iface.free_cc == iface.total_cc


#: Every base routing, plain and fault-aware (id ``<base>+ft``).  The
#: fault-aware cases run with the link (3,3)-(3,4) of the 8x8 mesh dead,
#: so the wrapper is built and worms crossing the cut detour.
ROUTINGS = [(base, fault_aware) for fault_aware in (False, True)
            for base in ("adaptive", "ecube", "westfirst")]
ROUTING_IDS = [f"{base}+ft" if fault_aware else base
               for base, fault_aware in ROUTINGS]
DEAD_LINK = (27, 35)


def storm_network(routing, fault_aware):
    """A fresh 8x8 network; fault-aware ones get :data:`DEAD_LINK`."""
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(fault_aware_routing=fault_aware),
                      routing)
    if fault_aware:
        net.install_faults(FaultPlan(link_faults=(LinkFault(*DEAD_LINK),)))
    return sim, net


def drain(sim, net, limit=500_000):
    while not net.idle():
        assert sim.now < limit, "network did not drain"
        if sim.peek() is None:
            break
        sim.run(max_events=1)
    sim.run(until=sim.now)


@pytest.mark.parametrize("routing,fault_aware", ROUTINGS, ids=ROUTING_IDS)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63),
                          st.integers(2, 40), st.integers(0, 1)),
                min_size=1, max_size=25))
def test_unicast_storm_all_delivered_flits_conserved(routing, fault_aware,
                                                     messages):
    """Flit conservation and clean drain hold for *every* routing scheme
    (base and fault-aware alike), so new schemes inherit the harness for
    free."""
    sim, net = storm_network(routing, fault_aware)
    worms = []
    for src, dst, size, vnet in messages:
        if src == dst:
            continue
        w = Worm(kind=WormKind.UNICAST, src=src, dests=(dst,),
                 size_flits=size, vnet=vnet)
        worms.append(w)
        net.inject(w)
    drain(sim, net)
    # Every worm delivered exactly once.
    assert net.delivered == len(worms) and net.worms_dropped == 0
    # Flit conservation: every hop is minimal except a detour, which
    # costs one hop away from the destination and one back.
    assert net.total_flit_hops == sum(
        w.size_flits * (net.mesh.manhattan(w.src, w.dests[0])
                        + 2 * w.misroutes) for w in worms)
    assert net.detours == sum(w.misroutes for w in worms)
    # All router state returned to idle; all channels free.
    assert_drained(net)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(2, 10),
       st.integers(1, 6))
def test_same_pair_messages_deliver_in_fifo_order(src, dst, size, count):
    if src == dst:
        return
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(), "ecube")
    order = []
    net.on_deliver = lambda node, worm, final: order.append(worm.uid)
    worms = [Worm(kind=WormKind.UNICAST, src=src, dests=(dst,),
                  size_flits=size, vnet=VNET_REQUEST)
             for _ in range(count)]
    for w in worms:
        net.inject(w)
    drain(sim, net)
    assert order == [w.uid for w in worms]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=2, max_size=6),
       st.sampled_from(["ecube", "westfirst"]))
def test_multicast_delivers_exactly_once_per_destination(src, dest_set,
                                                         routing):
    dest_set.discard(src)
    if len(dest_set) < 2:
        return
    from repro.brcp.model import is_conformant_path
    from repro.brcp.paths import staircase_paths
    from repro.network.routing import make_routing
    from repro.network.topology import Mesh2D

    mesh = Mesh2D(8, 8)
    paths = staircase_paths(mesh, src, sorted(dest_set))
    r = make_routing(routing, mesh)
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(), routing)
    delivered = []
    net.on_deliver = lambda node, worm, final: delivered.append(node)
    injected_dests = []
    for path in paths:
        if routing == "ecube" and not is_conformant_path(r, src, path):
            return  # staircases are westfirst paths; skip if not ecube-ok
        net.inject(Worm(kind=WormKind.MULTICAST, src=src,
                        dests=tuple(path), size_flits=8))
        injected_dests.extend(path)
    drain(sim, net)
    assert sorted(delivered) == sorted(injected_dests)


@pytest.mark.parametrize("routing,fault_aware", ROUTINGS, ids=ROUTING_IDS)
def test_mixed_vnet_storm_with_multicasts_drains_clean(routing,
                                                       fault_aware):
    """Deadlock freedom under mixed traffic for every routing scheme: the
    storm drains with all deliveries made.  Fault-aware routing must
    carry every worm around the dead link, detouring where the storm
    crosses it."""
    rng = np.random.default_rng(12)
    sim, net = storm_network(routing, fault_aware)
    mesh = net.mesh
    count = 0
    for _ in range(15):
        src = int(rng.integers(64))
        dst = int(rng.integers(64))
        if src != dst:
            net.inject(Worm(kind=WormKind.UNICAST, src=src, dests=(dst,),
                            size_flits=int(rng.integers(2, 38)),
                            vnet=int(rng.integers(2))))
            count += 1
    # A few column multicasts on top.
    for x in (1, 4, 6):
        src = mesh.node_at(x, 0)
        dests = tuple(mesh.node_at(x, y) for y in (2, 5, 7))
        net.inject(Worm(kind=WormKind.MULTICAST, src=src, dests=dests,
                        size_flits=8))
        count += 1
    drain(sim, net)
    assert net.delivered == count and net.worms_dropped == 0
    assert (net.detours > 0) == fault_aware
    assert_drained(net)
