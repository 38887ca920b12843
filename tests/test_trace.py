"""Worm events on the auditor's trail.

An :class:`~repro.audit.Auditor` built on a network records that
network's worm events — injection (or fault drop), absorb and final
delivery, chain wait, parked-gather resume — on the same trail as the
protocol events, each tagged with the worm's uid.
"""

from repro.audit import Auditor
from repro.config import SystemParameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork, Worm, WormKind
from repro.sim import Simulator


def make():
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(), "ecube")
    return sim, net, Auditor("cheap", sim=sim, net=net)


def timeline(auditor, worm):
    """The trail events of one worm, in order."""
    return [e for e in auditor.trail.events() if e.worm == worm.uid]


def drain(sim, net):
    # Run the calendar dry: the network clock parks off-calendar when
    # idle, so this terminates once all traffic (and any scheduled
    # deposits that revive parked worms) has completed.
    while sim.peek() is not None:
        sim.run(max_events=1)


def test_unicast_timeline():
    sim, net, auditor = make()
    worm = Worm(kind=WormKind.UNICAST, src=0, dests=(9,), size_flits=4)
    net.inject(worm)
    drain(sim, net)
    events = timeline(auditor, worm)
    assert [e.kind for e in events] == ["worm.inject", "worm.deliver"]
    assert events[0].node == 0 and events[1].node == 9
    assert events[1].cycle > events[0].cycle
    text = "\n".join(e.format() for e in events)
    assert "unicast" in text and "deliver" in text


def test_multicast_timeline_orders_absorbs():
    sim, net, auditor = make()
    mesh = net.mesh
    dests = tuple(mesh.node_at(2, y) for y in (2, 4, 6))
    worm = Worm(kind=WormKind.MULTICAST, src=mesh.node_at(2, 0),
                dests=dests, size_flits=6)
    net.inject(worm)
    drain(sim, net)
    events = timeline(auditor, worm)
    kinds = [(e.kind, e.node) for e in events]
    assert kinds == [("worm.inject", mesh.node_at(2, 0)),
                     ("worm.deliver", dests[0]),
                     ("worm.deliver", dests[1]),
                     ("worm.deliver", dests[2])]
    assert events[1].detail == "absorb"
    assert events[-1].detail == "final"


def test_parked_gather_resume_traced():
    sim, net, auditor = make()
    mesh = net.mesh
    txn = "t"
    home, s1, s2 = (mesh.node_at(2, 0), mesh.node_at(2, 3),
                    mesh.node_at(2, 6))
    gather = Worm(kind=WormKind.IGATHER, src=s2, dests=(s1, home),
                  size_flits=4, vnet=1, txn=txn, acks_carried=1)

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE and node == s2:
            net.inject(gather)
            sim.call_after(1500, lambda: net.deposit_ack(s1, (txn, 0)))

    net.on_deliver = deliver
    net.inject(Worm(kind=WormKind.IRESERVE, src=home, dests=(s1, s2),
                    size_flits=6, txn=txn))
    drain(sim, net)
    events = timeline(auditor, gather)
    assert [e.kind for e in events] == ["worm.inject", "worm.resume",
                                        "worm.deliver"]
    assert events[1].node == s1
    assert all(e.txn == txn for e in events)
    assert gather.acks_carried == 2


def test_chain_wait_traced():
    sim, net, auditor = make()
    mesh = net.mesh
    dests = (mesh.node_at(1, 2), mesh.node_at(1, 5))
    worm = Worm(kind=WormKind.CHAIN, src=mesh.node_at(1, 0), dests=dests,
                size_flits=6, txn="c")

    def deliver(node, w, final):
        if not final:
            sim.call_after(10, lambda: net.signal_chain_done(node, w.txn))

    net.on_deliver = deliver
    net.inject(worm)
    drain(sim, net)
    events = [e.kind for e in timeline(auditor, worm)]
    assert events == ["worm.inject", "worm.chain-wait", "worm.deliver"]


def test_tracer_with_engine_transaction():
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(), "ecube")
    engine = InvalidationEngine(sim, net, SystemParameters())
    auditor = Auditor.install_engine(engine, "cheap")
    plan = build_plan("mi-ma-ec", net.mesh, 18, [2, 10, 34, 50])
    record = engine.run(plan, limit=5_000_000)
    assert record.latency > 0
    # Every injected worm has a timeline starting with its injection,
    # on the transaction's own key.
    worms: dict[int, list] = {}
    for event in auditor.trail.events():
        if event.worm is not None:
            worms.setdefault(event.worm, []).append(event)
    assert len(worms) == record.total_messages
    for events in worms.values():
        assert events[0].kind == "worm.inject"
        assert all(e.txn == record.txn for e in events)
