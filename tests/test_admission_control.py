"""Admission control for i-ack-buffer transactions."""

import numpy as np

from repro.config import SystemParameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork
from repro.sim import Simulator
from repro.workloads.patterns import pattern_column_clustered


def make(cap, **overrides):
    params = SystemParameters(**overrides)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params, max_concurrent_ma=cap)
    return sim, net, engine


def test_cap_queues_excess_transactions():
    sim, net, engine = make(cap=2)
    rng = np.random.default_rng(7)
    states = []
    for _ in range(5):
        pat = pattern_column_clustered(net.mesh, 6, rng)
        states.append(engine.execute(
            build_plan("mi-ma-ec", net.mesh, pat.home, pat.sharers)))
    assert engine._ma_active == 2
    assert len(engine._ma_queue) == 3
    assert engine.ma_admission_waits == 3
    for st in states:
        sim.run_until_event(st.done, limit=20_000_000)
    assert engine._ma_active == 0
    assert not engine._ma_queue
    for iface in net.interfaces:
        assert not iface.iack._entries


def test_non_ma_transactions_bypass_cap():
    sim, net, engine = make(cap=1)
    states = [engine.execute(build_plan("ui-ua", net.mesh, 0, [9 + i]))
              for i in range(4)]
    # Unicast transactions never queue.
    assert engine.ma_admission_waits == 0
    for st in states:
        sim.run_until_event(st.done, limit=5_000_000)


def test_cap_prevents_buffer_deadlock():
    """The exact overload that deadlocks an uncapped engine completes
    under the safe cap (buffers // 2)."""
    params = SystemParameters(iack_buffers=2)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 50_000
    engine = InvalidationEngine(sim, net, params, max_concurrent_ma=1)
    rng = np.random.default_rng(5)
    for _ in range(3):
        states = []
        for _ in range(6):
            pat = pattern_column_clustered(net.mesh, 10, rng)
            states.append(engine.execute(
                build_plan("mi-ma-ec", net.mesh, pat.home, pat.sharers)))
        for st in states:
            record = sim.run_until_event(st.done, limit=50_000_000)
            assert record.latency > 0
    for iface in net.interfaces:
        assert not iface.iack._entries


def test_dsm_system_enables_cap():
    from repro.coherence import DSMSystem

    sim = Simulator()
    system = DSMSystem(sim, SystemParameters(iack_buffers=4), "mi-ma-ec")
    assert system.engine._ma_cap == 2
