"""End-to-end recovery: NACKs, watchdogs, retransmission, fallback.

The acceptance bar: under fault injection every transaction either
completes (possibly via retransmission or unicast fallback) or raises a
typed :class:`TransactionFailed` — never the kernel's generic
:class:`SimulationError` deadlock report.
"""

import pytest

from repro.analysis.experiments import run_fault_sweep
from repro.config import SystemParameters, paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.core.grouping import SCHEMES
from repro.faults import FaultPlan, LinkFault, RouterFault, TransactionFailed
from repro.network import MeshNetwork
from repro.sim import Simulator


def _rig(params=None, scheme="ui-ua", fault_plan=None):
    params = params or SystemParameters()
    sim = Simulator()
    net = MeshNetwork(sim, params, SCHEMES[scheme][1])
    engine = InvalidationEngine(sim, net, params)
    if fault_plan is not None:
        net.install_faults(fault_plan)
    return sim, net, engine


def _no_iack_leaks(net):
    return all(not iface.iack._entries for iface in net.interfaces)


# ----------------------------------------------------------------------
# Retransmission
# ----------------------------------------------------------------------
def test_nack_triggers_retransmit_and_completes():
    # Injection #0 is the first invalidation worm: kill it.
    sim, net, engine = _rig(fault_plan=FaultPlan(drop_nth=(0,)))
    plan = build_plan("ui-ua", net.mesh, 0, [9, 18, 27])
    record = engine.run(plan, limit=5_000_000)
    assert net.worms_dropped == 1
    assert record.attempts == 2
    assert record.retries == 1
    assert record.sharers == 3
    assert _no_iack_leaks(net)


def test_retry_costs_latency():
    def run(fault_plan):
        sim, net, engine = _rig(fault_plan=fault_plan)
        plan = build_plan("ui-ua", net.mesh, 0, [9, 18, 27])
        return engine.run(plan, limit=5_000_000)

    clean = run(None)
    faulted = run(FaultPlan(drop_nth=(0,)))
    assert faulted.latency > clean.latency
    assert faulted.total_messages > clean.total_messages


def test_watchdog_recovers_without_nacks():
    params = SystemParameters(fault_nack=False, txn_timeout=2_000)
    sim, net, engine = _rig(params, fault_plan=FaultPlan(drop_nth=(0,)))
    plan = build_plan("ui-ua", net.mesh, 0, [9, 18])
    record = engine.run(plan, limit=5_000_000)
    assert record.attempts == 2
    # Losing the only notification channel means waiting out the timer.
    assert record.latency >= 2_000


def test_exhausted_retries_fail_typed():
    # A sharer sits on a permanently dead router: unreachable forever.
    params = SystemParameters(txn_max_retries=2)
    sim, net, engine = _rig(
        params, fault_plan=FaultPlan(router_faults=(RouterFault(27),)))
    plan = build_plan("ui-ua", net.mesh, 0, [9, 27])
    with pytest.raises(TransactionFailed) as exc:
        engine.run(plan, limit=50_000_000)
    assert exc.value.attempts == 3          # 1 launch + 2 retries
    assert exc.value.scheme == "ui-ua"
    assert engine.failures and engine.failures[0] is exc.value
    assert _no_iack_leaks(net)


def test_zero_retries_fail_on_first_loss():
    params = SystemParameters(txn_max_retries=0)
    sim, net, engine = _rig(params, fault_plan=FaultPlan(drop_nth=(0,)))
    plan = build_plan("ui-ua", net.mesh, 0, [9])
    with pytest.raises(TransactionFailed):
        engine.run(plan, limit=5_000_000)


def test_transient_fault_window_heals():
    # Every worm dies for the first 3000 cycles; retries with backoff
    # outlive the outage and the transaction completes.
    params = SystemParameters(txn_max_retries=8)
    sim, net, engine = _rig(params, fault_plan=FaultPlan(
        drop_prob=1.0, drop_start=0, drop_end=3_000))
    plan = build_plan("ui-ua", net.mesh, 0, [9, 18])
    record = engine.run(plan, limit=50_000_000)
    assert record.attempts > 1
    assert record.end >= 3_000
    assert _no_iack_leaks(net)


# ----------------------------------------------------------------------
# Multidestination / i-ack machinery under loss
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["mi-ua-ec", "mi-ma-ec", "mi-ma-tm",
                                    "sci-chain"])
@pytest.mark.parametrize("nth", [0, 1, 2])
def test_multidest_schemes_recover_from_any_early_loss(scheme, nth):
    params = SystemParameters(txn_max_retries=6)
    sim, net, engine = _rig(params, scheme,
                            fault_plan=FaultPlan(drop_nth=(nth,)))
    home = net.mesh.node_at(3, 1)
    sharers = [net.mesh.node_at(3, 4), net.mesh.node_at(3, 6),
               net.mesh.node_at(5, 4), net.mesh.node_at(5, 6)]
    plan = build_plan(scheme, net.mesh, home, sharers)
    record = engine.run(plan, limit=50_000_000)
    assert record.attempts >= 1
    if net.worms_dropped:
        assert record.attempts >= 2
    # No leaked i-ack entries despite abandoned reservations/parks.
    assert _no_iack_leaks(net)
    assert engine.stale_deliveries >= 0


def test_downgrade_restores_reachability_and_is_recorded():
    # Dead link (12,13) cuts the multidestination worm 11->21 of
    # mi-ua-tm from home 0, but neither the per-sharer westfirst unicast
    # requests nor the ack return paths: the degraded plan completes
    # without a single loss.
    sim, net, engine = _rig(
        scheme="mi-ua-tm",
        fault_plan=FaultPlan(link_faults=(LinkFault(12, 13),)))
    plan = build_plan("mi-ua-tm", net.mesh, 0, [11, 21])
    assert any(len(g.dests) > 1 for g in plan.groups)
    record = engine.run(plan, limit=5_000_000)
    assert record.downgrades == 1
    assert record.attempts == 1      # proactive, not reactive
    assert net.worms_dropped == 0


# ----------------------------------------------------------------------
# The sweep itself
# ----------------------------------------------------------------------
def test_sweep_terminates_every_transaction():
    rows = run_fault_sweep(["ui-ua", "mi-ma-ec"], [0.0, 0.08],
                           degree=6, per_point=4,
                           params=paper_parameters(8), seed=13)
    for row in rows:
        assert row["completed"] + row["failed"] == row["issued"] == 4
    clean = {r["scheme"]: r for r in rows if r["drop_prob"] == 0.0}
    for scheme, row in clean.items():
        assert row["completion_rate"] == 1.0
        assert row["retries"] == 0.0


def test_sweep_is_deterministic():
    kw = dict(degree=5, per_point=3, params=paper_parameters(8), seed=21)
    a = run_fault_sweep(["mi-ua-ec"], [0.0, 0.1], **kw)
    b = run_fault_sweep(["mi-ua-ec"], [0.0, 0.1], **kw)
    assert a == b


# ----------------------------------------------------------------------
# DSM integration
# ----------------------------------------------------------------------
def test_dsm_recovers_coherence_messages():
    from repro.coherence import DSMSystem
    from repro.coherence.processor import run_program
    from repro.workloads import apsp

    def once(fault_plan):
        params = paper_parameters(4)
        sim = Simulator()
        system = DSMSystem(sim, params, "mi-ua-ec", fault_plan=fault_plan)
        traces, _ = apsp.generate_traces(
            apsp.APSPConfig(vertices=8, processors=8), list(range(8)))
        result = run_program(system, traces)
        return system, result

    clean_system, clean = once(None)
    system, faulted = once(FaultPlan(drop_prob=0.01, seed=5))
    assert system.net.worms_dropped > 0
    # Losses were recovered, not silently swallowed: the program ran to
    # completion and did the same work.
    assert system.total_misses() == clean_system.total_misses()
    assert system.coh_resends + sum(
        r.retries for r in system.engine.records) > 0
