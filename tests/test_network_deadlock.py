"""Deadlock detection and hold-and-wait behaviour of the network."""

import pytest

from repro.config import SystemParameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork, Worm, WormKind
from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_detector_reports_circular_iack_wait():
    """Two crossing MI-MA transactions with a single i-ack buffer can
    hold-and-wait on each other's entries forever; the network must
    raise instead of spinning."""
    params = SystemParameters(iack_buffers=1)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 5_000
    engine = InvalidationEngine(sim, net, params)
    mesh = net.mesh

    # Occupy the single buffer at a depositing sharer's router with a
    # reservation that will never be released: the i-reserve worm blocks
    # there forever (a launcher sharer never reserves, so the column
    # needs two sharers for the nearer one to be a depositor).
    s_near, s_far = mesh.node_at(3, 4), mesh.node_at(3, 6)
    net.interfaces[s_near].iack.try_reserve(("foreign", 0))
    st1 = engine.execute(build_plan("mi-ma-ec", mesh, mesh.node_at(3, 1),
                                    [s_near, s_far]))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(st1.done, limit=10_000_000)


def test_detector_tolerates_long_legitimate_waits():
    """A gather blocked on a slow deposit is not a deadlock as long as
    the deposit eventually comes."""
    params = SystemParameters(deferred_delivery=False)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 50_000
    mesh = net.mesh
    txn = "slow"
    home = mesh.node_at(2, 0)
    s1, s2 = mesh.node_at(2, 3), mesh.node_at(2, 6)
    results = []

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE and node == s2:
            net.inject(Worm(kind=WormKind.IGATHER, src=s2,
                            dests=(s1, home), size_flits=4, vnet=1,
                            txn=txn, acks_carried=1))
            sim.call_after(20_000, lambda: net.deposit_ack(s1, (txn, 0)))
        elif worm.kind is WormKind.IGATHER and final:
            results.append(worm.acks_carried)

    net.on_deliver = deliver
    net.inject(Worm(kind=WormKind.IRESERVE, src=home, dests=(s1, s2),
                    size_flits=6, txn=txn))
    while not results:
        assert sim.peek() is not None
        sim.run(max_events=1)
    assert results == [2]


def test_normal_traffic_never_trips_detector():
    params = SystemParameters()
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 2_000
    engine = InvalidationEngine(sim, net, params)
    for home, sharers in ((0, [9, 18, 27]), (63, [1, 2, 3])):
        plan = build_plan("mi-ma-ec", net.mesh, home, sharers)
        record = engine.run(plan, limit=1_000_000)
        assert record.latency > 0
