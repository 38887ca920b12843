"""Multidestination worm behaviour: multicast forward-and-absorb,
i-reserve reservations, i-gather pickup / deferred delivery, and the
SCI-style chained worm."""

from repro.config import SystemParameters
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.worm import VNET_REPLY, VNET_REQUEST
from repro.sim import Simulator


def make_net(routing="ecube", **overrides):
    params = SystemParameters(**overrides)
    sim = Simulator()
    net = MeshNetwork(sim, params, routing)
    return sim, net, params


def run_until(sim, net, predicate, limit=200_000):
    while not predicate():
        if sim.peek() is None:
            raise AssertionError("simulation drained before condition")
        assert sim.now < limit, "cycle limit exceeded"
        sim.run(max_events=1)
    sim.run(until=sim.now)  # flush same-cycle callbacks


def column_nodes(net, x, ys):
    return tuple(net.mesh.node_at(x, y) for y in ys)


# ----------------------------------------------------------------------
# Multicast (forward-and-absorb)
# ----------------------------------------------------------------------
def test_multicast_delivers_at_every_destination():
    sim, net, _ = make_net()
    src = net.mesh.node_at(2, 1)
    dests = column_nodes(net, 2, (3, 5, 7))  # straight column path
    worm = Worm(kind=WormKind.MULTICAST, src=src, dests=dests, size_flits=8)
    net.inject(worm)
    run_until(sim, net, lambda: net.delivered >= 1)
    sim.run()
    seen = {(node, final) for _, node, _, final in net.delivered_log}
    assert seen == {(dests[0], False), (dests[1], False), (dests[2], True)}


def test_multicast_intermediate_deliveries_in_path_order():
    sim, net, _ = make_net()
    src = net.mesh.node_at(0, 0)
    dests = column_nodes(net, 0, (2, 4, 6))
    worm = Worm(kind=WormKind.MULTICAST, src=src, dests=dests, size_flits=8)
    net.inject(worm)
    run_until(sim, net, lambda: net.delivered >= 1)
    sim.run()
    order = [node for _, node, _, _ in net.delivered_log]
    assert order == list(dests)


def test_multicast_single_worm_beats_unicasts_in_traffic():
    # The multidestination worm sends its flits over each link once;
    # separate unicasts repeat the shared prefix of the path.
    sim, net, _ = make_net()
    src = net.mesh.node_at(3, 0)
    dests = column_nodes(net, 3, (2, 4, 6))
    worm = Worm(kind=WormKind.MULTICAST, src=src, dests=dests, size_flits=8)
    net.inject(worm)
    run_until(sim, net, lambda: net.delivered >= 1)
    multicast_hops = net.total_flit_hops

    sim2, net2, _ = make_net()
    for dst in dests:
        net2.inject(Worm(kind=WormKind.UNICAST, src=src, dests=(dst,),
                         size_flits=8))
    run_until(sim2, net2, lambda: net2.delivered >= 3)
    assert multicast_hops < net2.total_flit_hops


def test_multicast_consumption_channel_held_and_released():
    sim, net, p = make_net()
    src = net.mesh.node_at(1, 0)
    dests = column_nodes(net, 1, (2, 4))
    worm = Worm(kind=WormKind.MULTICAST, src=src, dests=dests, size_flits=8)
    net.inject(worm)
    run_until(sim, net, lambda: net.delivered >= 1)
    sim.run()
    for node in dests:
        iface = net.interfaces[node]
        assert iface.free_cc == p.consumption_channels


# ----------------------------------------------------------------------
# i-reserve + deposit + i-gather round trip
# ----------------------------------------------------------------------
def build_column_invalidation(net, sim, home_xy=(3, 1),
                              sharer_ys=(3, 5, 6), txn="t1",
                              deposit_delay=10):
    """Wire up the MI-MA column pattern by hand:

    home --(i-reserve)--> sharers in its column; each sharer deposits its
    ack after ``deposit_delay``; the farthest sharer launches an i-gather
    back down the column to home.  Returns (home, sharers, log).
    """
    home = net.mesh.node_at(*home_xy)
    sharers = column_nodes(net, home_xy[0], sharer_ys)
    log = {"gather": None}

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE:
            # The node invalidates its cache line, then deposits the ack
            # by a memory-mapped write into the reserved entry.
            def deposit():
                net.deposit_ack(node, (txn, 0))
            if node == sharers[-1]:
                # Farthest sharer: ack rides at the head of the gather.
                def launch():
                    gather = Worm(kind=WormKind.IGATHER, src=sharers[-1],
                                  dests=tuple(reversed(sharers[:-1])) + (home,),
                                  size_flits=4, vnet=VNET_REPLY, txn=txn,
                                  acks_carried=1)
                    net.inject(gather)
                sim.call_after(deposit_delay, launch)
            else:
                sim.call_after(deposit_delay, deposit)
        elif worm.kind is WormKind.IGATHER and final:
            log["gather"] = (sim.now, node, worm.acks_carried)

    net.on_deliver = deliver
    reserve = Worm(kind=WormKind.IRESERVE, src=home, dests=sharers,
                   size_flits=8, vnet=VNET_REQUEST, txn=txn)
    net.inject(reserve)
    return home, sharers, log


def test_ireserve_gather_collects_all_acks():
    sim, net, _ = make_net()
    home, sharers, log = build_column_invalidation(net, sim)
    run_until(sim, net, lambda: log["gather"] is not None)
    at, node, acks = log["gather"]
    assert node == home
    assert acks == len(sharers)


def test_gather_parks_when_ack_not_ready_and_resumes():
    # Long deposit delay at intermediate sharers: the gather (launched by
    # the farthest sharer) overtakes their deposits and must park.
    sim, net, _ = make_net(iack_buffers=4)
    home, sharers, log = build_column_invalidation(net, sim,
                                                   deposit_delay=300)

    # The farthest sharer launches at +300 but the nearer ones also
    # deposit at +300; park happens if the gather arrives first, which it
    # does not with equal delays.  Instead delay only intermediates.
    run_until(sim, net, lambda: log["gather"] is not None)
    _, node, acks = log["gather"]
    assert node == home and acks == len(sharers)


def test_gather_defers_at_slow_intermediate():
    sim, net, _ = make_net(iack_buffers=4)
    txn = "t-park"
    home = net.mesh.node_at(2, 0)
    s1, s2 = column_nodes(net, 2, (3, 6))
    parked_iface = net.interfaces[s1]

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE:
            if node == s2:
                # Launch the gather immediately: it will reach s1 long
                # before s1's ack (deposited much later) is ready.
                gather = Worm(kind=WormKind.IGATHER, src=s2,
                              dests=(s1, home), size_flits=4,
                              vnet=VNET_REPLY, txn=txn, acks_carried=1)
                net.inject(gather)
                sim.call_after(2000, lambda: net.deposit_ack(s1, (txn, 0)))
        elif worm.kind is WormKind.IGATHER and final:
            results.append((sim.now, node, worm.acks_carried))

    results = []
    net.on_deliver = deliver
    net.inject(Worm(kind=WormKind.IRESERVE, src=home, dests=(s1, s2),
                    size_flits=8, txn=txn))
    run_until(sim, net, lambda: bool(results))
    at, node, acks = results[0]
    assert node == home
    assert acks == 2
    assert parked_iface.iack.parks == 1
    assert at >= 2000  # could not finish before the slow deposit


def test_gather_blocks_in_place_without_deferred_delivery():
    sim, net, _ = make_net(deferred_delivery=False)
    txn = "t-block"
    home = net.mesh.node_at(2, 0)
    s1, s2 = column_nodes(net, 2, (3, 6))
    results = []

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE and node == s2:
            gather = Worm(kind=WormKind.IGATHER, src=s2, dests=(s1, home),
                          size_flits=4, vnet=VNET_REPLY, txn=txn,
                          acks_carried=1)
            net.inject(gather)
            sim.call_after(500, lambda: net.deposit_ack(s1, (txn, 0)))
        elif worm.kind is WormKind.IGATHER and final:
            results.append((sim.now, worm.acks_carried))

    net.on_deliver = deliver
    net.inject(Worm(kind=WormKind.IRESERVE, src=home, dests=(s1, s2),
                    size_flits=8, txn=txn))
    run_until(sim, net, lambda: bool(results))
    at, acks = results[0]
    assert acks == 2
    assert at >= 500
    assert net.interfaces[s1].iack.parks == 0


def test_reservation_only_junction_gets_level1_entry():
    sim, net, _ = make_net()
    txn = "t-junction"
    home = net.mesh.node_at(0, 3)
    junction = net.mesh.node_at(4, 3)   # on home's row
    sharer = net.mesh.node_at(4, 6)     # in the junction's column
    worm = Worm(kind=WormKind.IRESERVE, src=home,
                dests=(junction, sharer), size_flits=8, txn=txn,
                reserve_only=frozenset({junction}))
    deliveries = []
    net.on_deliver = lambda node, w, final: deliveries.append((node, final))
    net.inject(worm)
    run_until(sim, net, lambda: net.delivered >= 1)
    sim.run()
    # Junction gets no delivery, only a level-1 reservation.
    assert deliveries == [(sharer, True)]
    jfile = net.interfaces[junction].iack
    assert jfile.entry((txn, 1)) is not None
    assert jfile.entry((txn, 1)).reserved
    sfile = net.interfaces[sharer].iack
    assert sfile.entry((txn, 0)) is not None


def test_ireserve_blocks_when_buffer_file_full():
    sim, net, _ = make_net(iack_buffers=1)
    home = net.mesh.node_at(0, 0)
    sharer = net.mesh.node_at(0, 5)
    # Fill the sharer's single buffer with an unrelated reservation.
    assert net.interfaces[sharer].iack.try_reserve(("other", 0))
    worm = Worm(kind=WormKind.IRESERVE, src=home, dests=(sharer,),
                size_flits=6, txn="t-full")
    net.inject(worm)
    # Free the entry after a while; the worm then proceeds.
    released = []
    sim.call_after(400, lambda: (
        net.interfaces[sharer].iack._entries.clear(),
        released.append(sim.now)))
    run_until(sim, net, lambda: net.delivered >= 1)
    assert net.delivered == 1
    assert net.interfaces[sharer].iack.reserve_blocked > 0
    assert sim.now >= 400


# ----------------------------------------------------------------------
# SCI-style chained worm
# ----------------------------------------------------------------------
def test_chain_worm_serializes_on_local_invalidations():
    sim, net, _ = make_net()
    txn = "t-chain"
    home = net.mesh.node_at(1, 0)
    dests = column_nodes(net, 1, (2, 4, 6))
    inval_time = 50
    chain_log = []

    final_log = []

    def deliver(node, worm, final):
        if final:
            final_log.append((sim.now, node))
            return
        chain_log.append((sim.now, node))
        sim.call_after(inval_time,
                       lambda: net.signal_chain_done(node, worm.txn))

    net.on_deliver = deliver
    worm = Worm(kind=WormKind.CHAIN, src=home, dests=dests,
                size_flits=8, txn=txn)
    net.inject(worm)
    run_until(sim, net, lambda: bool(final_log))
    # Each intermediate stop waited >= inval_time before the next header
    # arrival: deliveries are spaced by at least the invalidation time.
    assert [n for _, n in chain_log] == [dests[0], dests[1]]
    gaps = [b - a for (a, _), (b, _) in zip(chain_log, chain_log[1:])]
    assert all(g >= inval_time for g in gaps)
    assert final_log[0][1] == dests[2]
    assert final_log[0][0] - chain_log[-1][0] >= inval_time
