"""Bit-exact reproducibility: identical runs produce identical results."""

from repro.analysis.experiments import run_invalidation_sweep
from repro.config import SystemParameters, paper_parameters
from repro.coherence import DSMSystem
from repro.coherence.processor import run_program
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork
from repro.sim import Simulator
from repro.workloads import apsp


def run_transaction_trace():
    params = SystemParameters()
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params)
    records = []
    for home, sharers in ((10, [2, 18, 34, 50]), (33, [1, 9, 41]),
                          (0, [63, 7, 56])):
        plan = build_plan("mi-ma-ec", net.mesh, home, sharers)
        r = engine.run(plan, limit=5_000_000)
        records.append((r.latency, r.total_messages, r.flit_hops,
                        r.home_occupancy, r.end))
    return records, net.total_flit_hops, sim.dispatched


def test_transactions_bit_exact_across_runs():
    a = run_transaction_trace()
    b = run_transaction_trace()
    assert a == b


def test_sweep_bit_exact_across_runs():
    params = paper_parameters(8)
    a = run_invalidation_sweep(["ui-ua", "mi-ma-tm"], [4, 12],
                               per_degree=3, params=params, seed=5)
    b = run_invalidation_sweep(["ui-ua", "mi-ma-tm"], [4, 12],
                               per_degree=3, params=params, seed=5)
    assert a == b


def test_application_run_bit_exact():
    def once():
        params = paper_parameters(4)
        sim = Simulator()
        system = DSMSystem(sim, params, "mi-ma-ec")
        traces, _ = apsp.generate_traces(
            apsp.APSPConfig(vertices=10, processors=8), list(range(8)))
        return run_program(system, traces)

    a, b = once(), once()
    assert a == b


def test_different_seeds_differ():
    params = paper_parameters(8)
    a = run_invalidation_sweep(["ui-ua"], [8], per_degree=3,
                               params=params, seed=1)
    b = run_invalidation_sweep(["ui-ua"], [8], per_degree=3,
                               params=params, seed=2)
    assert a != b


# ----------------------------------------------------------------------
# Fault injection must not compromise reproducibility
# ----------------------------------------------------------------------
def run_faulted_trace(fault_plan, fault_aware=False):
    from repro.core.metrics import TransactionRecord

    params = SystemParameters(fault_aware_routing=fault_aware)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params)
    if fault_plan is not None:
        net.install_faults(fault_plan)
    records = []
    for home, sharers in ((10, [2, 18, 34, 50]), (33, [1, 9, 41]),
                          (0, [63, 7, 56])):
        plan = build_plan("mi-ma-ec", net.mesh, home, sharers)
        r = engine.run(plan, limit=50_000_000)
        assert isinstance(r, TransactionRecord)
        records.append((r.latency, r.total_messages, r.flit_hops,
                        r.home_occupancy, r.end, r.attempts, r.downgrades))
    return records, net.total_flit_hops, net.worms_dropped


def test_fixed_seed_faults_bit_exact_across_runs():
    from repro.faults import FaultPlan

    plan = FaultPlan(drop_prob=0.05, seed=17)
    a = run_faulted_trace(plan)
    b = run_faulted_trace(plan)
    assert a == b
    assert a[2] > 0, "the chosen seed should actually drop worms"


def test_empty_fault_plan_is_bit_identical_to_no_faults():
    """Installing an *empty* plan activates the whole robustness code
    path (injection filter, watchdog timers, degradation check) yet must
    not move a single cycle of any result."""
    from repro.faults import FaultPlan

    clean = run_faulted_trace(None)
    armed = run_faulted_trace(FaultPlan())
    assert clean == armed


def test_ft_routing_with_empty_plan_is_bit_identical_to_base():
    """Fault-aware routing costs nothing when healthy: with the switch on
    but an *empty* fault plan (or none), the network routes with the
    base scheme itself, so every record field, flit-hop count, and
    event count is bit-identical to the switch off."""
    from repro.faults import FaultPlan
    from repro.network import ECubeRouting

    base = run_faulted_trace(None)
    ft_no_plan = run_faulted_trace(None, fault_aware=True)
    ft_empty = run_faulted_trace(FaultPlan(), fault_aware=True)
    assert base == ft_no_plan == ft_empty
    params = SystemParameters(fault_aware_routing=True)
    net = MeshNetwork(Simulator(), params, "ecube")
    net.install_faults(FaultPlan())
    assert type(net.routing) is ECubeRouting


def test_ft_routing_with_lossy_plan_is_bit_exact_across_runs():
    """Random drops under the ft wrapper stay deterministic (the drop
    stream is consumed identically)."""
    from repro.faults import FaultPlan

    plan = FaultPlan(drop_prob=0.05, seed=17)
    a = run_faulted_trace(plan, fault_aware=True)
    b = run_faulted_trace(plan, fault_aware=True)
    assert a == b
    # Pure drops (no topology faults) build no wrapper, so the outcome
    # also matches the base routing under the same plan.
    assert a == run_faulted_trace(plan)


def test_audited_trace_bit_exact_across_runs():
    """A fully-audited engine run is reproducible run to run."""
    from repro.audit import Auditor

    def audited():
        params = SystemParameters()
        sim = Simulator()
        net = MeshNetwork(sim, params, "ecube")
        engine = InvalidationEngine(sim, net, params)
        auditor = Auditor.install_engine(engine, "full")
        records = []
        for home, sharers in ((10, [2, 18, 34, 50]), (33, [1, 9, 41])):
            plan = build_plan("mi-ma-ec", net.mesh, home, sharers)
            r = engine.run(plan, limit=5_000_000)
            records.append((r.latency, r.total_messages, r.flit_hops))
        auditor.final_check()
        return records, net.total_flit_hops, sim.dispatched, \
            auditor.txns_checked

    a, b = audited(), audited()
    assert a == b
    assert a[3] == 2, "both transactions audited"


def test_audit_levels_bit_identical_to_off():
    """Auditing is observation-only: every level produces the exact
    event calendar and record stream of the unaudited engine."""
    from repro.audit import Auditor

    def run(level):
        params = SystemParameters()
        sim = Simulator()
        net = MeshNetwork(sim, params, "ecube")
        engine = InvalidationEngine(sim, net, params)
        Auditor.install_engine(engine, level)
        records = []
        for home, sharers in ((10, [2, 18, 34, 50]), (0, [63, 7, 56])):
            plan = build_plan("ui-ua", net.mesh, home, sharers)
            r = engine.run(plan, limit=5_000_000)
            records.append((r.latency, r.total_messages, r.flit_hops,
                            r.home_occupancy, r.end))
        return records, net.total_flit_hops, sim.dispatched

    assert run("off") == run("cheap") == run("full")


def test_faults_disabled_results_unchanged_from_seed():
    """With no fault plan the records are exactly the fault-free
    simulator's (attempts all 1, no downgrades, nothing dropped)."""
    records, _hops, dropped = run_faulted_trace(None)
    assert dropped == 0
    assert all(r[5] == 1 and r[6] == 0 for r in records)
    base, _, _ = run_transaction_trace()
    assert [r[:5] for r in records] == base
