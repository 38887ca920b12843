"""Golden-output proof that the cycle engine matches the oracle.

:class:`~repro.network.network.MeshNetwork` (flat-array state, batched
phases, cycle skipping) must produce *exactly* the same simulation as
the frozen object-per-router kernel in ``tests/reference_kernel.py`` —
the full :class:`TransactionRecord` stream, the flit-hop totals, and
even the simulator's dispatched-callback count.  Any divergence here
means the engine changed semantics, not just speed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import repro.coherence.system as coherence_system
import repro.network.network as network_mod
from repro.analysis.experiments import run_application_experiment
from repro.config import SystemParameters, paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork, Worm, WormKind
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.workloads import apsp, barnes_hut, lu
from repro.workloads.patterns import make_pattern
from tests.reference_kernel import (KERNEL_PRIVATE_COUNTERS,
                                    LegacyMeshNetwork)

#: The structure-of-arrays engine under test and the legacy oracle.
KERNELS = {"soa": MeshNetwork, "legacy": LegacyMeshNetwork}
#: Every kernel that is checked against the oracle.
UNDER_TEST = sorted(k for k in KERNELS if k != "legacy")


def run_record_stream(net_cls, schemes=("mi-ma-ec", "ui-ua", "mi-ua-tm"),
                      degrees=(2, 8, 16), per_degree=3, seed=3,
                      audit="off"):
    """Full TransactionRecord stream for a mid-size paired workload,
    optionally with the runtime invariant auditor attached."""
    from repro.audit import Auditor

    params = paper_parameters(8)
    sim = Simulator()
    net = net_cls(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params)
    if audit != "off":
        Auditor.install_engine(engine, audit)
    rng = np.random.default_rng(seed)
    records = []
    for degree in degrees:
        for _ in range(per_degree):
            pat = make_pattern("uniform", net.mesh, degree, rng)
            for scheme in schemes:
                plan = build_plan(scheme, net.mesh, pat.home, pat.sharers)
                records.append(dataclasses.astuple(
                    engine.run(plan, limit=5_000_000)))
    return records, net.total_flit_hops, sim.dispatched


def digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()


def shared_counters(net):
    return {k: v for k, v in net.phase_counters().items()
            if k not in KERNEL_PRIVATE_COUNTERS}


@pytest.mark.parametrize("kernel", UNDER_TEST)
def test_record_streams_bit_identical_across_kernels(kernel):
    records, hops, dispatched = run_record_stream(KERNELS[kernel])
    ref_records, ref_hops, ref_dispatched = \
        run_record_stream(LegacyMeshNetwork)
    # Field-for-field equality of every TransactionRecord, in order.
    assert records == ref_records
    assert digest(records) == digest(ref_records)
    assert hops == ref_hops
    # Even the event-calendar activity matches callback for callback.
    assert dispatched == ref_dispatched
    assert records, "workload produced no transactions"


@pytest.mark.parametrize("kernel", UNDER_TEST)
def test_kernels_identical_under_adaptive_routing(kernel):
    kwargs = dict(schemes=("mi-ma-ec-u",), degrees=(4, 12), seed=9)
    assert run_record_stream(KERNELS[kernel], **kwargs) == \
        run_record_stream(LegacyMeshNetwork, **kwargs)


#: DSM application runs on the 4x4 mesh: coherence traffic with
#: concurrent invalidations, the path the dsm-apps benchmark times.
COHERENCE_RUNS = [
    ("apsp", apsp.APSPConfig(vertices=6, processors=16), scheme)
    for scheme in ("ui-ua", "mi-ma-ec", "mi-ua-tm")
] + [
    ("barnes-hut", barnes_hut.BHConfig(bodies=8, steps=1, processors=8),
     scheme) for scheme in ("ui-ua", "mi-ma-ec", "sci-chain")
] + [("lu", lu.LUConfig(n=16, block=8, processors=16), "ui-ua")]


def run_application(monkeypatch, net_cls, app, config, scheme):
    """Result row, shared counters and calendar dispatch count of one
    application run whose DSM is built on ``net_cls``."""
    networks = []
    monkeypatch.setattr(coherence_system, "MeshNetwork", net_cls)
    monkeypatch.setattr(network_mod, "PROFILE_REGISTRY", networks)
    row = run_application_experiment(app, scheme,
                                     params=paper_parameters(4),
                                     app_config=config)
    (net,) = networks
    assert type(net) is net_cls
    return row, shared_counters(net), net.sim.dispatched


@pytest.mark.parametrize("app, config, scheme", COHERENCE_RUNS,
                         ids=[f"{a}-{s}" for a, _, s in COHERENCE_RUNS])
def test_coherence_runs_identical_to_oracle(monkeypatch, app, config,
                                            scheme):
    mesh = run_application(monkeypatch, MeshNetwork, app, config, scheme)
    ref = run_application(monkeypatch, LegacyMeshNetwork, app, config,
                          scheme)
    assert mesh == ref
    assert mesh[1]["moves_applied"] > 0


def same_cycle_absorb_and_consume(net_cls):
    """Delivery log of a multicast absorbed at node 1 and a unicast
    consumed there, sized so both tails leave node 1 in one cycle."""
    sim = Simulator()
    net = net_cls(sim, SystemParameters(mesh_width=4, mesh_height=1),
                  "ecube")
    net.inject(Worm(kind=WormKind.MULTICAST, src=0, dests=(1, 2),
                    size_flits=5))
    net.inject(Worm(kind=WormKind.UNICAST, src=2, dests=(1,),
                    size_flits=6))
    sim.run()
    return [(t, node, worm.kind, final)
            for t, node, worm, final in net.delivered_log]


def test_same_cycle_deliveries_keep_apply_order():
    """A node's forward moves apply before its sink moves, so the
    absorb delivery is called back before the final one."""
    log = same_cycle_absorb_and_consume(MeshNetwork)
    assert log == same_cycle_absorb_and_consume(LegacyMeshNetwork)
    assert log[0][:2] == log[1][:2], "both tails must finish together"


def test_reference_kernel_is_unmemoized():
    """The oracle computes routing candidates per lookup, so the
    engine's memoized candidate sets are checked against fresh ones."""
    mesh = MeshNetwork(Simulator(), SystemParameters(), "ecube")
    ref = LegacyMeshNetwork(Simulator(), SystemParameters(), "ecube")
    assert mesh.routing._memo_enabled is True
    assert ref.routing._memo_enabled is False
    assert [r.interface for r in ref.routers] == ref.interfaces


def test_phase_counters_shapes_match():
    """Both kernels expose the same profiling counters, and every
    counter outside the documented kernel-private allowlist is
    bit-identical."""
    results = {}
    for name, net_cls in KERNELS.items():
        params = paper_parameters(8)
        sim = Simulator()
        net = net_cls(sim, params, "ecube")
        engine = InvalidationEngine(sim, net, params)
        plan = build_plan("mi-ma-ec", net.mesh, 0, [9, 18, 27, 36])
        engine.run(plan, limit=5_000_000)
        results[name] = net.phase_counters()
    mesh, ref = results["soa"], results["legacy"]
    assert set(mesh) == set(ref)
    for key in mesh:
        if key not in KERNEL_PRIVATE_COUNTERS:
            assert mesh[key] == ref[key], key
    # The kernel-private counters document *how* each kernel ran: the
    # oracle sorts every cycle, the dirty flag sorts only on changes.
    assert ref["busy_sorts"] == ref["cycles_stepped"]
    assert mesh["busy_sorts"] < ref["busy_sorts"]
    # Skipped windows account exactly for the cycles the oracle steps.
    assert (mesh["cycles_stepped"] + mesh["cycles_skipped"]
            == ref["cycles_stepped"])
    assert ref["cycles_skipped"] == 0


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_audit_levels_golden_identical(kernel):
    """Auditing must not perturb the golden record stream on either
    kernel: same records, flit hops, and dispatched-callback count at
    every level."""
    net_cls = KERNELS[kernel]
    golden = run_record_stream(net_cls)
    for level in ("off", "cheap", "full"):
        assert run_record_stream(net_cls, audit=level) == golden


def run_stall_workload(net_cls, rounds=3, delay=2_000, trace=False):
    """Raw-network stall workload: a gather worm waits out a slow i-ack
    deposit each round, leaving the network at a stalled fixed point for
    thousands of cycles — the case cycle skipping targets."""
    params = paper_parameters(8, deferred_delivery=False)
    sim = Simulator()
    net = net_cls(sim, params, "ecube")
    net.deadlock_threshold = 10 * delay
    if trace:
        net._skip_trace = []
    mesh = net.mesh
    home = mesh.node_at(2, 0)
    s1, s2 = mesh.node_at(2, 3), mesh.node_at(2, 6)
    results = []

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE and node == s2:
            net.inject(Worm(kind=WormKind.IGATHER, src=s2,
                            dests=(s1, home), size_flits=4, vnet=1,
                            txn=worm.txn, acks_carried=1))
            sim.call_after(delay, lambda t=worm.txn:
                           net.deposit_ack(s1, (t, 0)))
        elif worm.kind is WormKind.IGATHER and final:
            results.append((worm.txn, sim.now, worm.acks_carried))

    net.on_deliver = deliver
    for r in range(rounds):
        net.inject(Worm(kind=WormKind.IRESERVE, src=home,
                        dests=(s1, s2), size_flits=6, txn=f"stall-{r}"))
        while len(results) <= r:
            assert sim.peek() is not None
            sim.run(max_events=1)
        net.purge_txn(f"stall-{r}")
    return results, net, sim


def test_quiescence_property_on_stall_workload():
    """The cycle-skip quiescence property, on a workload where skipping
    actually fires: (a) every skipped window stops strictly before the
    next scheduled calendar event, (b) ``cycles_stepped +
    cycles_skipped`` equals the cycles the oracle steps through, and
    (c) the observable results are identical anyway."""
    results, net, sim = run_stall_workload(MeshNetwork, trace=True)
    ref_results, ref_net, ref_sim = run_stall_workload(LegacyMeshNetwork)
    assert results == ref_results
    assert sim.now == ref_sim.now
    assert sim.dispatched == ref_sim.dispatched
    assert net.total_flit_hops == ref_net.total_flit_hops
    # The workload stalls for ~delay cycles per round; skipping must
    # have engaged and must account for every elided step.
    assert net.cycles_skipped > 0
    assert (net.cycles_stepped + net.cycles_skipped
            == ref_net.cycles_stepped)
    assert net.cycles_skipped == sum(n for _, n, _ in net._skip_trace)
    for t0, n, nxt_event in net._skip_trace:
        assert n > 0
        # A skip never crosses (or lands on) a scheduled event
        # timestamp: the cycle that processes the event is stepped.
        assert nxt_event is None or t0 + n < nxt_event


# ----------------------------------------------------------------------
# Run bounds: the inline cycle loop stops at the caller's cycle bound
# ----------------------------------------------------------------------
def observe(net, sim, outcome):
    return (outcome, sim.now, sim.dispatched, shared_counters(net),
            [(t, node, final) for t, node, _worm, final
             in net.delivered_log])


def run_until_slices(net_cls):
    """One 8-flit unicast 0→63, driven by ``run(until=...)`` in slices
    shorter than its flight time; the clock must land on every bound."""
    sim = Simulator()
    net = net_cls(sim, SystemParameters(), "ecube")
    net.inject(Worm(kind=WormKind.UNICAST, src=0, dests=(63,),
                    size_flits=8))
    snapshots = [observe(net, sim, sim.run(until=10))]
    previous = sim.now
    for until in range(20, 130, 10):
        assert sim.run(until=until) == until and sim.bound is None
        assert sim.now >= previous  # the clock never decreases
        previous = sim.now
        snapshots.append(observe(net, sim, until))
    return snapshots


def test_run_until_bound_stops_the_cycle_loop():
    snapshots = run_until_slices(MeshNetwork)
    assert snapshots == run_until_slices(LegacyMeshNetwork)
    # run(until=10): eleven cycles (0..10) stepped, nothing delivered.
    outcome, now, dispatched, counters, delivered = snapshots[0]
    assert (outcome, now, dispatched, delivered) == (10, 10, 11, [])
    assert snapshots[-1][4], "the worm must arrive in a later slice"


def run_limited_deadlock(net_cls):
    """The foreign-reservation deadlock of test_network_deadlock, with a
    deadlock threshold far past the run's cycle limit."""
    params = SystemParameters(iack_buffers=1)
    sim = Simulator()
    net = net_cls(sim, params, "ecube")
    net.deadlock_threshold = 50_000
    engine = InvalidationEngine(sim, net, params)
    mesh = net.mesh
    s_near, s_far = mesh.node_at(3, 4), mesh.node_at(3, 6)
    net.interfaces[s_near].iack.try_reserve(("foreign", 0))
    st = engine.execute(build_plan("mi-ma-ec", mesh, mesh.node_at(3, 1),
                                   [s_near, s_far]))
    with pytest.raises(SimulationError) as info:
        sim.run_until_event(st.done, limit=2_000)
    assert sim.bound is None  # the bound ends with the call
    return observe(net, sim, str(info.value))


def test_run_until_event_limit_stops_the_cycle_loop():
    observed = run_limited_deadlock(MeshNetwork)
    assert observed == run_limited_deadlock(LegacyMeshNetwork)
    outcome, now = observed[:2]
    assert "not fired by cycle limit 2000" in outcome
    assert now == 2_000
