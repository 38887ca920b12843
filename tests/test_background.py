"""Background traffic generator tests and load-interaction behaviour."""

import pytest

from repro.config import SystemParameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork
from repro.sim import Simulator
from repro.workloads.background import BackgroundTraffic, delivery_filter


def make_loaded_net(rate, **overrides):
    params = SystemParameters(**overrides)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    bg = BackgroundTraffic(sim, net, rate, seed=4)
    return sim, net, bg, params


def test_rate_zero_injects_nothing():
    sim, net, bg, _ = make_loaded_net(0.0)
    sim.call_after(1000, lambda: None)
    sim.run()
    assert bg.injected == 0
    assert net.injected == 0


def test_traffic_injected_and_delivered():
    sim, net, bg, _ = make_loaded_net(0.005)
    sim.call_after(2000, bg.stop)
    sim.run(until=12_000)
    # Expected ~ 0.005 * 64 nodes * 2000 cycles = ~640 messages.
    assert 400 <= bg.injected <= 900
    assert net.delivered >= bg.injected * 0.95


def test_rate_validation():
    sim = Simulator()
    net = MeshNetwork(sim, SystemParameters(), "ecube")
    with pytest.raises(ValueError):
        BackgroundTraffic(sim, net, rate=1.5)


def test_latency_grows_with_load():
    def mean_latency(rate):
        sim, net, bg, _ = make_loaded_net(rate)
        sim.call_after(4000, bg.stop)
        sim.run(until=30_000)
        latencies = [worm.delivered_at - worm.injected_at
                     for _, _, worm, final in net.delivered_log if final]
        assert latencies
        return sum(latencies) / len(latencies)

    idle_ish = mean_latency(0.001)
    loaded = mean_latency(0.012)
    assert loaded > idle_ish * 1.1


def test_invalidation_under_load_with_filter():
    params = SystemParameters()
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params)
    # The engine's handler must not see background deliveries.
    net.on_deliver = delivery_filter(net.on_deliver)
    bg = BackgroundTraffic(sim, net, 0.006, seed=8)
    plan = build_plan("mi-ma-ec", net.mesh, 27, [3, 11, 19, 35, 51])
    record = engine.run(plan, limit=5_000_000)
    bg.stop()
    assert record.sharers == 5
    assert record.latency > 0
    assert bg.injected > 0


def test_invalidation_latency_rises_under_load():
    def run_at(rate):
        params = SystemParameters()
        sim = Simulator()
        net = MeshNetwork(sim, params, "ecube")
        engine = InvalidationEngine(sim, net, params)
        net.on_deliver = delivery_filter(net.on_deliver)
        bg = BackgroundTraffic(sim, net, rate, seed=8)
        # Warm the network up before measuring.
        warm = sim.event("warm")
        warm.schedule(2_000)
        sim.run_until_event(warm)
        plan = build_plan("ui-ua", net.mesh, 27,
                          [3, 11, 19, 35, 51, 59, 12, 44])
        record = engine.run(plan, limit=20_000_000)
        bg.stop()
        return record.latency

    assert run_at(0.012) > run_at(0.0)
