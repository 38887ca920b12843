"""Fault plans, injection-time filtering, blackholed buffers, and
proactive MI→UI degradation."""

import pytest

from repro.config import SystemParameters
from repro.core.grouping import build_plan, degrade_plan
from repro.faults import FaultPlan, FaultState, LinkFault, RouterFault
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.interface import IAckBufferFile
from repro.network.routing import make_routing
from repro.network.topology import MESH_PORTS, Mesh2D
from repro.sim import Simulator


def _mesh():
    return Mesh2D(8, 8)


def _state(mesh, plan):
    return FaultState(plan, mesh, make_routing("ecube", mesh))


def _worm(src, dests, **kw):
    return Worm(kind=kw.pop("kind", WormKind.UNICAST), src=src,
                dests=tuple(dests), size_flits=kw.pop("size_flits", 6),
                **kw)


# ----------------------------------------------------------------------
# Plan values
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(ValueError):
        LinkFault(3, 3)
    with pytest.raises(ValueError):
        LinkFault(0, 1, start=5, end=5)
    with pytest.raises(ValueError):
        RouterFault(0, start=-1)
    with pytest.raises(ValueError):
        FaultPlan(drop_prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan(drop_nth=(-1,))


def test_empty_plan():
    assert FaultPlan().empty
    assert not FaultPlan(drop_prob=0.1).empty
    assert not FaultPlan(link_faults=(LinkFault(0, 1),)).empty


def test_fault_windows():
    f = LinkFault(0, 1, start=10, end=20)
    assert not f.active(9)
    assert f.active(10) and f.active(19)
    assert not f.active(20)
    assert not f.permanent
    assert LinkFault(0, 1).permanent


def test_random_plan_is_seed_deterministic():
    mesh = _mesh()
    a = FaultPlan.random(mesh, seed=42, link_faults=3, router_faults=2,
                         drop_prob=0.05)
    b = FaultPlan.random(mesh, seed=42, link_faults=3, router_faults=2,
                         drop_prob=0.05)
    assert a == b
    c = FaultPlan.random(mesh, seed=43, link_faults=3, router_faults=2,
                         drop_prob=0.05)
    assert a != c
    # Faulted links are real, distinct mesh links.
    assert len({(f.a, f.b) for f in a.link_faults}) == 3
    for f in a.link_faults:
        assert f.b in [mesh.neighbor(f.a, p) for p in MESH_PORTS]


def test_random_plan_bounds():
    mesh = _mesh()
    with pytest.raises(ValueError):
        FaultPlan.random(mesh, seed=0, link_faults=1000)
    with pytest.raises(ValueError):
        FaultPlan.random(mesh, seed=0, router_faults=65)


# ----------------------------------------------------------------------
# Injection-time filtering
# ----------------------------------------------------------------------
def test_drop_nth_kills_exactly_that_injection():
    mesh = _mesh()
    fs = _state(mesh, FaultPlan(drop_nth=(1,)))
    assert fs.filter_injection(_worm(0, [7]), now=0) is None
    fate = fs.filter_injection(_worm(0, [7]), now=0)
    assert fate is not None and fate[0] == "random-drop"
    assert fs.filter_injection(_worm(0, [7]), now=0) is None
    assert fs.injections_seen == 3


def test_dead_source_router_drops():
    mesh = _mesh()
    fs = _state(mesh, FaultPlan(router_faults=(RouterFault(5),)))
    fate = fs.filter_injection(_worm(5, [7]), now=0)
    assert fate is not None and fate[0] == "router-fault"


def test_link_fault_blocks_crossing_walks_only():
    mesh = _mesh()
    # ecube from 0 to 3 walks 0-1-2-3; kill link 1-2.
    fs = _state(mesh, FaultPlan(link_faults=(LinkFault(1, 2),)))
    fate = fs.filter_injection(_worm(0, [3]), now=0)
    assert fate is not None and fate[0] == "link-fault"
    assert fs.filter_injection(_worm(0, [1]), now=0) is None
    assert fs.drops["link-fault"] == 1


def test_windowed_fault_expires():
    mesh = _mesh()
    fs = _state(mesh, FaultPlan(link_faults=(LinkFault(1, 2, 0, 100),)))
    assert fs.filter_injection(_worm(0, [3]), now=50) is not None
    assert fs.filter_injection(_worm(0, [3]), now=100) is None


def test_known_blocked_sees_only_started_permanent_faults():
    mesh = _mesh()
    fs = _state(mesh, FaultPlan(link_faults=(
        LinkFault(1, 2, start=0, end=None),
        LinkFault(9, 10, start=500, end=None),
        LinkFault(17, 18, start=0, end=100))))

    def known_blocked(src, dst):
        walk = fs.walk_of(src, [dst])
        return fs.blocking_hop(walk, now=0, permanent_only=True)

    assert known_blocked(0, 3) == 1                      # permanent, live
    assert known_blocked(8, 11) is None                  # not started yet
    assert known_blocked(16, 19) is None                 # transient
    assert fs.blocking_hop(fs.walk_of(16, [19]), now=0) == 1


# ----------------------------------------------------------------------
# i-ack buffer blackholing
# ----------------------------------------------------------------------
def test_purge_frees_entries_and_blackholes_the_txn():
    f = IAckBufferFile(2)
    assert f.try_reserve((7, 0))
    assert f.try_reserve((7, 1))
    assert f.free_slots == 0
    assert f.purge_txn(7) == 2
    assert f.free_slots == 2
    # Every later touch by the dead transaction is swallowed.
    assert f.try_reserve((7, 0))
    assert f.free_slots == 2
    assert f.deposit((7, 0)) is None
    assert f.try_pickup((7, 0)) == 0
    w = _worm(0, [1], kind=WormKind.IGATHER, vnet=1)
    assert f.try_park((7, 0), w)
    assert f.free_slots == 2
    assert f.finish_park_drain((7, 0)) is None
    # Other transactions are untouched.
    assert f.try_reserve((8, 0))
    assert f.entry((8, 0)) is not None


def test_purge_of_absent_txn_is_harmless():
    f = IAckBufferFile(2)
    assert f.purge_txn(99) == 0
    assert f.try_reserve((1, 0))
    assert f.entry((1, 0)) is not None


def test_network_purge_scrubs_every_interface():
    params = SystemParameters()
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.interfaces[3].iack.try_reserve((5, 0))
    net.interfaces[9].iack.try_reserve((5, 1))
    net.interfaces[9].chain_done.add((5, 9))
    net.interfaces[9].iack.try_reserve((6, 0))
    assert net.purge_txn(5) == 2
    assert net.interfaces[3].iack.entry((5, 0)) is None
    assert not net.interfaces[9].chain_done
    assert net.interfaces[9].iack.entry((6, 0)) is not None


# ----------------------------------------------------------------------
# Proactive degradation (MI→UI fallback)
# ----------------------------------------------------------------------
def test_degrade_splits_blocked_multidest_groups():
    mesh = _mesh()
    home = mesh.node_at(0, 0)
    sharers = [mesh.node_at(0, 3), mesh.node_at(0, 5)]
    plan = build_plan("mi-ua-ec", mesh, home, sharers)
    assert any(len(g.dests) > 1 for g in plan.groups)
    # Kill the column link the multidestination worm must cross.
    fs = _state(mesh, FaultPlan(link_faults=(
        LinkFault(mesh.node_at(0, 1), mesh.node_at(0, 2)),)))
    degraded, downgrades, _reroutes = degrade_plan(plan, mesh, fs, now=0)
    assert downgrades == 1
    assert degraded.scheme == plan.scheme
    assert all(g.kind is WormKind.UNICAST and len(g.dests) == 1
               for g in degraded.groups)
    assert sorted(d for g in degraded.groups for d in g.dests) \
        == sorted(sharers)


def test_degrade_leaves_clean_paths_alone():
    mesh = _mesh()
    plan = build_plan("mi-ua-ec", mesh, 0, [8, 16, 24])
    fs = _state(mesh, FaultPlan(link_faults=(
        LinkFault(62, 63),)))  # far corner, not on any path
    degraded, downgrades, _reroutes = degrade_plan(plan, mesh, fs, now=0)
    assert downgrades == 0
    assert degraded is plan


def test_degrade_ma_plan_falls_back_whole():
    mesh = _mesh()
    home = mesh.node_at(3, 1)
    sharers = [mesh.node_at(3, 4), mesh.node_at(3, 6), mesh.node_at(5, 4)]
    plan = build_plan("mi-ma-ec", mesh, home, sharers)
    fs = _state(mesh, FaultPlan(link_faults=(
        LinkFault(mesh.node_at(3, 2), mesh.node_at(3, 3)),)))
    degraded, downgrades, _reroutes = degrade_plan(plan, mesh, fs, now=0)
    assert downgrades >= 1
    assert degraded.scheme == "mi-ma-ec"   # attribution preserved
    assert not degraded.junctions
    assert all(g.kind is WormKind.UNICAST for g in degraded.groups)


def test_degrade_ignores_not_yet_started_faults():
    mesh = _mesh()
    home = mesh.node_at(0, 0)
    plan = build_plan("mi-ua-ec", mesh, home,
                      [mesh.node_at(0, 3), mesh.node_at(0, 5)])
    fs = _state(mesh, FaultPlan(link_faults=(
        LinkFault(mesh.node_at(0, 1), mesh.node_at(0, 2), start=10_000),)))
    _, downgrades, _reroutes = degrade_plan(plan, mesh, fs, now=0)
    assert downgrades == 0


# ----------------------------------------------------------------------
# Deadlock diagnosis (hold-and-wait extraction)
# ----------------------------------------------------------------------
def test_deadlock_report_names_waited_resources():
    from repro.core import InvalidationEngine
    from repro.sim.engine import SimulationError

    params = SystemParameters(iack_buffers=1)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 5_000
    engine = InvalidationEngine(sim, net, params)
    mesh = net.mesh
    s_near, s_far = mesh.node_at(3, 4), mesh.node_at(3, 6)
    net.interfaces[s_near].iack.try_reserve(("foreign", 0))
    st = engine.execute(build_plan("mi-ma-ec", mesh, mesh.node_at(3, 1),
                                   [s_near, s_far]))
    with pytest.raises(SimulationError) as exc:
        sim.run_until_event(st.done, limit=10_000_000)
    msg = str(exc.value)
    assert "deadlock" in msg
    # The report names each blocked worm, its node, and the resource.
    assert "waits for" in msg
    assert f"a free i-ack buffer slot at node {s_near}" in msg
    assert "'foreign'" in msg
