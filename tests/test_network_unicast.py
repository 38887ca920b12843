"""Unicast behaviour of the wormhole network: latency, pipelining,
contention, and virtual-network separation."""

import pytest

from repro.config import SystemParameters
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.worm import VNET_REPLY, VNET_REQUEST
from repro.sim import Simulator, Tally


def make_net(routing="ecube", **overrides):
    params = SystemParameters(**overrides)
    sim = Simulator()
    net = MeshNetwork(sim, params, routing)
    return sim, net, params


def unicast(src, dst, size=6, vnet=VNET_REQUEST, txn=None):
    return Worm(kind=WormKind.UNICAST, src=src, dests=(dst,),
                size_flits=size, vnet=vnet, txn=txn)


def run_until_delivered(sim, net, count, limit=100_000):
    while net.delivered < count:
        if sim.peek() is None:
            raise AssertionError(f"network drained with only "
                                 f"{net.delivered}/{count} deliveries")
        assert sim.now < limit, "cycle limit exceeded"
        sim.run(max_events=1)


def assert_latency(worm, expected):
    """Idle-network latency check: exact up to the one-cycle injection
    jitter that occurs when the clock is mid-cycle at inject time."""
    measured = worm.delivered_at - worm.injected_at
    assert expected <= measured <= expected + 1, (measured, expected)


def test_unicast_idle_latency_matches_pipeline_model():
    sim, net, p = make_net()
    src, dst = net.mesh.node_at(1, 1), net.mesh.node_at(4, 1)
    worm = unicast(src, dst, size=6)
    net.inject(worm)
    run_until_delivered(sim, net, 1)
    hops = net.mesh.manhattan(src, dst)
    # Header: router_delay per traversed router (source + hops); tail
    # follows at one flit per cycle.
    expected = p.router_delay * (hops + 1) + worm.size_flits - 1
    assert_latency(worm, expected)


def test_unicast_single_hop_and_long_haul():
    sim, net, p = make_net()
    a = net.mesh.node_at(0, 0)
    b = net.mesh.node_at(1, 0)
    far = net.mesh.node_at(7, 7)
    w1 = unicast(a, b, size=6)
    net.inject(w1)
    run_until_delivered(sim, net, 1)
    assert_latency(w1, p.router_delay * 2 + 5)

    w2 = unicast(a, far, size=6)
    net.inject(w2)
    run_until_delivered(sim, net, 2)
    assert_latency(w2, p.router_delay * 15 + 5)


def test_flit_hops_counted_per_flit_per_link():
    sim, net, _ = make_net()
    src, dst = net.mesh.node_at(0, 0), net.mesh.node_at(3, 2)
    worm = unicast(src, dst, size=8)
    net.inject(worm)
    run_until_delivered(sim, net, 1)
    assert worm.flit_hops == 8 * 5
    assert net.total_flit_hops == 40


def test_delivery_handler_and_log():
    sim, net, _ = make_net()
    worm = unicast(2, 5, size=4)
    net.inject(worm)
    run_until_delivered(sim, net, 1)
    sim.run()  # let the scheduled delivery callback fire
    records = [(node, w, final) for _, node, w, final in net.delivered_log]
    assert records == [(5, worm, True)]


def test_back_to_back_worms_share_link_fifo():
    sim, net, p = make_net()
    src, dst = net.mesh.node_at(0, 0), net.mesh.node_at(5, 0)
    w1 = unicast(src, dst, size=20)
    w2 = unicast(src, dst, size=20)
    net.inject(w1)
    net.inject(w2)
    run_until_delivered(sim, net, 2)
    assert w1.delivered_at < w2.delivered_at
    # The second worm cannot even begin injecting before the first's tail
    # clears the local VC, so it is delayed well beyond its idle latency.
    idle = p.router_delay * 6 + 19
    assert w2.delivered_at - w2.injected_at > idle


def test_cross_traffic_contends_for_link():
    # Two worms whose XY routes share the (2,1)->(3,1) link.
    sim, net, _ = make_net()
    m = net.mesh
    w1 = unicast(m.node_at(0, 1), m.node_at(5, 1), size=24)
    w2 = unicast(m.node_at(2, 1), m.node_at(6, 1), size=24)
    net.inject(w1)
    net.inject(w2)
    run_until_delivered(sim, net, 2)
    lat1 = w1.delivered_at - w1.injected_at
    lat2 = w2.delivered_at - w2.injected_at
    # One of them must have stalled behind the other.
    assert max(lat1, lat2) > 24 + 4 * 7


def test_different_vnets_do_not_block_each_other():
    sim, net, p = make_net()
    m = net.mesh
    # Same physical route, different virtual networks: the reply worm
    # is not blocked by the long request worm holding the request VC,
    # though they share physical link bandwidth.
    w_req = unicast(m.node_at(0, 0), m.node_at(6, 0), size=30,
                    vnet=VNET_REQUEST)
    w_rep = unicast(m.node_at(0, 0), m.node_at(6, 0), size=6,
                    vnet=VNET_REPLY)
    net.inject(w_req)
    net.inject(w_rep)
    run_until_delivered(sim, net, 2)
    # The short reply finishes long before the 30-flit request drains.
    assert w_rep.delivered_at < w_req.delivered_at


def test_latency_tally_collects():
    sim, net, _ = make_net()
    worms = [unicast(0, 9 + i, size=6) for i in range(3)]
    for worm in worms:
        net.inject(worm)
    run_until_delivered(sim, net, 3)
    tally = Tally()
    for worm in worms:
        tally.add(worm.delivered_at - worm.injected_at)
    assert tally.n == 3
    assert tally.min > 0


def test_injection_outside_mesh_rejected():
    _, net, _ = make_net()
    with pytest.raises(ValueError):
        net.inject(unicast(0, 64))
    with pytest.raises(ValueError):
        net.inject(Worm(kind=WormKind.UNICAST, src=99, dests=(0,),
                        size_flits=2))


def test_network_sleeps_when_idle():
    sim, net, _ = make_net()
    net.inject(unicast(0, 3, size=4))
    run_until_delivered(sim, net, 1)
    sim.run()  # drain
    stepped = net.cycles_stepped
    # Clock is parked: advancing unrelated simulation time costs nothing.
    sim.call_after(10_000, lambda: None)
    sim.run()
    assert net.cycles_stepped == stepped


def test_westfirst_unicast_delivers():
    sim, net, p = make_net(routing="westfirst")
    m = net.mesh
    worm = unicast(m.node_at(5, 5), m.node_at(1, 2), size=6)
    net.inject(worm)
    run_until_delivered(sim, net, 1)
    hops = m.manhattan(m.node_at(5, 5), m.node_at(1, 2))
    assert_latency(worm, p.router_delay * (hops + 1) + 5)
