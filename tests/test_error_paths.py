"""Misuse and error-path coverage across layers."""

import pytest

from repro.audit import InvariantViolation
from repro.config import SystemParameters
from repro.coherence import DSMSystem
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork, Worm, WormKind
from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_access_validates_op():
    sim = Simulator()
    system = DSMSystem(sim, SystemParameters())
    gen = system.access(0, "X", 5)
    with pytest.raises(ValueError, match="op must be"):
        next(gen)


def test_sc_double_outstanding_access_is_a_bug():
    sim = Simulator()
    system = DSMSystem(sim, SystemParameters())
    boom = []

    def p1():
        yield from system.access(0, "R", 9)

    def p2():
        try:
            yield from system.access(0, "R", 9)
        except RuntimeError as exc:
            boom.append(str(exc))

    sim.spawn(p1())
    sim.spawn(p2())
    sim.run(until=2000)
    assert boom and "second outstanding" in boom[0]


def test_delivery_for_unknown_transaction_raises():
    sim = Simulator()
    params = SystemParameters()
    net = MeshNetwork(sim, params, "ecube")
    InvalidationEngine(sim, net, params)
    # A stray gather with a transaction the engine never started.
    net.inject(Worm(kind=WormKind.UNICAST, src=0, dests=(5,),
                    size_flits=4, txn=999,
                    payload={"role": "ack", "count": 1}))
    with pytest.raises(InvariantViolation, match="unknown transaction"):
        sim.run()


def test_engine_overcounted_acks_detected():
    sim = Simulator()
    params = SystemParameters()
    net = MeshNetwork(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params)
    st = engine.execute(build_plan("ui-ua", net.mesh, 0, [9]))
    # Forge an extra ack for the same transaction.
    net.inject(Worm(kind=WormKind.UNICAST, src=20, dests=(0,),
                    size_flits=4, txn=st.txn,
                    payload={"role": "ack", "count": 5}))
    with pytest.raises(InvariantViolation, match="acks for"):
        sim.run_until_event(st.done, limit=1_000_000)


def test_network_event_limit_raises():
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(), "ecube")
    never = sim.event("never")
    net.inject(Worm(kind=WormKind.UNICAST, src=0, dests=(63,),
                    size_flits=4))
    with pytest.raises(SimulationError, match="cycle limit"):
        sim.run_until_event(never, limit=10)
