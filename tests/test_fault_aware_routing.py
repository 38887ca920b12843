"""Property and acceptance tests for fault-aware routing.

The headline guarantees, checked here with hypothesis at >= 200 examples
per property:

* **reachability** — with a single permanent dead link on any ``w x h``
  mesh (both dims >= 2) the mesh stays connected, and the fault-aware
  walk reaches every destination from every source;
* **turn legality** — every fault-filtered walk is conformant under the
  wrapper's turn model (no 180-degree reversals) and crosses no dead
  hop;
* **plan soundness** — chains re-planned by :func:`degrade_plan` around
  permanent faults stay BRCP-conformant for the *base* routing.

Plus the engine-level acceptance scenario from the issue: a single
permanent dead link on the 8x8 mesh makes downgrade-only recovery fail
terminally while fault-aware routing completes every transaction with zero
:class:`~repro.faults.plan.TransactionFailed`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ConfigError, SystemParameters, paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.core.grouping import SCHEMES, degrade_plan
from repro.brcp.model import is_conformant_path
from repro.faults import (FaultPlan, FaultState, LinkFault, RouterFault,
                          TransactionFailed)
from repro.network import MeshNetwork, Worm, WormKind
from repro.network.routing import FaultAwareRouting, make_routing
from repro.network.topology import Mesh2D, Port
from repro.sim import Simulator
from tests.test_network_properties import assert_drained


def armed_ft(mesh, fault_plan, base_name="ecube", detour_limit=8):
    """Stand-alone wrapper + fault state, no simulator needed."""
    base = make_routing(base_name, mesh)
    fs = FaultState(fault_plan, mesh, base)
    ft = fs.ft_routing = FaultAwareRouting(base, fs, detour_limit)
    return ft, fs


@st.composite
def mesh_and_dead_link(draw):
    """A mesh with both dims >= 2 and one of its links, chosen uniformly
    enough for hypothesis to shrink nicely."""
    w = draw(st.integers(2, 8))
    h = draw(st.integers(2, 8))
    mesh = Mesh2D(w, h)
    a = draw(st.integers(0, mesh.num_nodes - 1))
    nbrs = [mesh.neighbor(a, p)
            for p in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)]
    b = draw(st.sampled_from([n for n in nbrs if n is not None]))
    return mesh, a, b


# ----------------------------------------------------------------------
# Reachability: one dead link never disconnects a >= 2x2 mesh
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(mesh_and_dead_link(), st.data())
def test_single_dead_link_full_reachability(mesh_link, data):
    mesh, a, b = mesh_link
    plan = FaultPlan(link_faults=(LinkFault(a, b),))
    ft, _fs = armed_ft(mesh, plan)
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, mesh.num_nodes - 1), label="dst")
    walk = ft.route_walk(src, [dst], now=0)
    assert walk is not None, (
        f"{src}->{dst} unreachable with only link {a}<->{b} dead")
    assert walk[0] == src and walk[-1] == dst


@settings(max_examples=200, deadline=None)
@given(mesh_and_dead_link(), st.sampled_from(["westfirst", "adaptive"]),
       st.data())
def test_single_dead_link_reachability_all_bases(mesh_link, base, data):
    """The guarantee is independent of which base scheme is wrapped."""
    mesh, a, b = mesh_link
    plan = FaultPlan(link_faults=(LinkFault(a, b),))
    ft, _fs = armed_ft(mesh, plan, base_name=base)
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, mesh.num_nodes - 1), label="dst")
    walk = ft.route_walk(src, [dst], now=0)
    assert walk is not None
    assert walk[0] == src and walk[-1] == dst


# ----------------------------------------------------------------------
# Turn legality + fault avoidance of every produced walk
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(mesh_and_dead_link(), st.data())
def test_fault_filtered_walks_are_turn_legal_and_avoid_faults(mesh_link,
                                                              data):
    mesh, a, b = mesh_link
    plan = FaultPlan(link_faults=(LinkFault(a, b),))
    ft, fs = armed_ft(mesh, plan)
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, mesh.num_nodes - 1), label="dst")
    walk = ft.route_walk(src, [dst], now=0)
    assert walk is not None
    # Single hops only, and legal under the wrapper's turn model (which
    # is_conformant_path checks via turn_allowed on the wrapper).
    assert is_conformant_path(ft, walk[0], walk[1:])
    for u, v in zip(walk, walk[1:]):
        assert mesh.manhattan(u, v) == 1
        assert not fs.link_down(u, v, 0), "walk crosses the dead link"


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=4,
                unique=True),
       st.data())
def test_multi_fault_walks_are_sound(w, h, link_seeds, data):
    """With *several* dead links the mesh may partition, so reachability
    is not promised — but any walk the router does produce must be a
    real, fault-free, turn-legal walk (soundness)."""
    mesh = Mesh2D(w, h)
    faults = []
    for seed in link_seeds:
        a = seed % mesh.num_nodes
        nbrs = [mesh.neighbor(a, p)
                for p in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)]
        nbrs = [n for n in nbrs if n is not None]
        b = nbrs[seed % len(nbrs)]
        faults.append(LinkFault(a, b))
    ft, fs = armed_ft(mesh, FaultPlan(link_faults=tuple(faults)))
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dests = data.draw(st.lists(st.integers(0, mesh.num_nodes - 1),
                               min_size=1, max_size=3), label="dests")
    walk = ft.route_walk(src, dests, now=0)
    if walk is None:
        return  # may legitimately be unreachable
    assert walk[0] == src and walk[-1] == dests[-1]
    assert is_conformant_path(ft, walk[0], walk[1:])
    for u, v in zip(walk, walk[1:]):
        assert mesh.manhattan(u, v) == 1
        assert not fs.link_down(u, v, 0)
        assert not fs.router_down(v, 0)


# ----------------------------------------------------------------------
# Re-planned chains stay BRCP-conformant for the base routing
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(mesh_and_dead_link(), st.data())
def test_rerouted_plans_stay_brcp_conformant(mesh_link, data):
    mesh, a, b = mesh_link
    home = data.draw(st.integers(0, mesh.num_nodes - 1), label="home")
    sharers = data.draw(
        st.lists(st.integers(0, mesh.num_nodes - 1), min_size=1,
                 max_size=6, unique=True).map(
            lambda s: [n for n in s if n != home]),
        label="sharers")
    if not sharers:
        return
    plan = build_plan("mi-ua-ec", mesh, home, sharers)
    ft, fs = armed_ft(mesh, FaultPlan(link_faults=(LinkFault(a, b),)))
    degraded, _downgrades, _reroutes = degrade_plan(plan, mesh, fs, now=0)
    base = ft.base
    for g in degraded.groups:
        if len(g.dests) > 1:
            assert is_conformant_path(base, degraded.home, g.dests), (
                f"multi-dest group {g.dests} from home {degraded.home} "
                f"is not a legal BRCP path")
    # The degraded plan is still a valid plan object (covers all
    # sharers exactly once) — InvalidationPlan validates in __post_init__,
    # so surviving construction is the assertion.
    assert sorted(d for grp in degraded.groups for d in grp.dests
                  if d not in grp.reserve_only) == sorted(plan.sharers)


# ----------------------------------------------------------------------
# Engine-level acceptance scenario (issue): dead link on the 8x8 mesh
# ----------------------------------------------------------------------
DEAD_LINK_SCENARIO = dict(home=(3, 2), sharers=[(3, 6), (1, 1), (6, 4)],
                          dead=((3, 4), (3, 5)))


def run_dead_link_scenario(scheme, fault_aware):
    params = paper_parameters(8, fault_aware_routing=fault_aware)
    sim = Simulator()
    net = MeshNetwork(sim, params, SCHEMES[scheme][1])
    engine = InvalidationEngine(sim, net, params)
    mesh = net.mesh
    (ax, ay), (bx, by) = DEAD_LINK_SCENARIO["dead"]
    net.install_faults(FaultPlan(link_faults=(
        LinkFault(mesh.node_at(ax, ay), mesh.node_at(bx, by)),)))
    home = mesh.node_at(*DEAD_LINK_SCENARIO["home"])
    sharers = [mesh.node_at(x, y) for x, y in DEAD_LINK_SCENARIO["sharers"]]
    plan = build_plan(scheme, mesh, home, sharers)
    record = engine.run(plan, limit=50_000_000)
    return record, net


ALL_SCHEMES = ["ui-ua", "mi-ua-ec", "mi-ma-ec", "mi-ua-fa", "mi-ma-fa"]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_dead_link_downgrade_only_fails_terminally(scheme):
    """Without fault-aware routing the column path through the dead link
    has no alternative: retries and unicast downgrades cannot help, and
    the transaction dies with the *typed* error after exhausting
    retries."""
    with pytest.raises(TransactionFailed) as exc:
        run_dead_link_scenario(scheme, fault_aware=False)
    assert exc.value.attempts >= 1
    assert exc.value.scheme == scheme


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_dead_link_ft_routing_completes_every_transaction(scheme):
    """With fault-aware routing the same scenario completes outright: no
    retries, no drops, and the worms detour around the dead link."""
    record, net = run_dead_link_scenario(scheme, fault_aware=True)
    assert record.attempts == 1
    assert net.worms_dropped == 0
    assert net.detours > 0, "completion should come via actual detours"


def test_dead_link_ft_keeps_multidest_chains_rerouted():
    """mi-ma-ec keeps its blocked gather paths whole by rerouting (not
    downgrading), and the record says so."""
    record, _net = run_dead_link_scenario("mi-ma-ec", fault_aware=True)
    assert record.reroutes >= 1
    assert record.downgrades == 0


# ----------------------------------------------------------------------
# One switch: install_faults builds the wrapper, and only when needed
# ----------------------------------------------------------------------
INSTALL_PLANS = {
    "link": FaultPlan(link_faults=(LinkFault(0, 1),)),
    "router": FaultPlan(router_faults=(RouterFault(5),)),
    "windowed-link": FaultPlan(link_faults=(LinkFault(0, 1, 100, 200),)),
    "drops-only": FaultPlan(drop_prob=0.1),
}


@pytest.mark.parametrize("fault_aware", [False, True])
@pytest.mark.parametrize("kind", sorted(INSTALL_PLANS))
def test_install_faults_wraps_only_for_link_or_router_faults(fault_aware,
                                                             kind):
    """``net.routing`` is a :class:`FaultAwareRouting` iff the switch is
    on and the plan kills a link or router; the fault map judges walks
    against the base routing either way."""
    params = SystemParameters(fault_aware_routing=fault_aware,
                              detour_limit=3)
    net = MeshNetwork(Simulator(), params, "westfirst")
    base = net.routing
    faults = net.install_faults(INSTALL_PLANS[kind])
    assert faults.routing is base
    if fault_aware and kind != "drops-only":
        assert isinstance(net.routing, FaultAwareRouting)
        assert net.routing.base is base and net.routing.faults is faults
        assert net.routing.detour_limit == 3
        assert faults.ft_routing is net.routing
    else:
        assert net.routing is base and faults.ft_routing is None


def test_second_install_faults_raises():
    net = MeshNetwork(Simulator(), SystemParameters(fault_aware_routing=True),
                      "ecube")
    net.install_faults(INSTALL_PLANS["link"])
    routing, faults = net.routing, net.faults
    with pytest.raises(RuntimeError, match="already installed"):
        net.install_faults(INSTALL_PLANS["router"])
    assert net.routing is routing and net.faults is faults


@pytest.mark.parametrize("plan", [
    FaultPlan(link_faults=(LinkFault(0, 5), LinkFault(3, 999))),
    FaultPlan(link_faults=(LinkFault(0, 999),)),
    FaultPlan(router_faults=(RouterFault(500),)),
], ids=["not-adjacent", "off-mesh-link", "off-mesh-router"])
def test_plan_off_the_mesh_is_a_config_error_and_installs_nothing(plan):
    net = MeshNetwork(Simulator(), SystemParameters(fault_aware_routing=True),
                      "ecube")
    base = net.routing
    with pytest.raises(ConfigError, match="8x8 mesh"):
        net.install_faults(plan)
    assert net.faults is None and net.routing is base


# ----------------------------------------------------------------------
# Cycle-level delivery through a detour on the live network
# ----------------------------------------------------------------------
def test_unicast_storm_detours_around_dead_link_and_drains():
    params = SystemParameters(fault_aware_routing=True)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    mesh = net.mesh
    net.install_faults(FaultPlan(link_faults=(
        LinkFault(mesh.node_at(4, 3), mesh.node_at(4, 4)),)))
    count = 0
    for x in range(8):  # whole-column traffic straight across the cut
        net.inject(Worm(kind=WormKind.UNICAST, src=mesh.node_at(x, 0),
                        dests=(mesh.node_at(x, 7),), size_flits=6))
        count += 1
    while not net.idle():
        if sim.peek() is None:
            break
        sim.run(max_events=1)
    assert net.delivered == count
    assert net.worms_dropped == 0
    assert net.detours > 0
    assert_drained(net)


def test_router_fault_is_routed_around_for_other_pairs():
    """A dead router blocks traffic *to* it but fault-aware walks still
    find paths between all other pairs on the 4x4 mesh."""
    mesh = Mesh2D(4, 4)
    dead = mesh.node_at(1, 1)
    ft, _fs = armed_ft(mesh, FaultPlan(router_faults=(RouterFault(dead),)))
    for src in mesh.nodes():
        for dst in mesh.nodes():
            if dead in (src, dst):
                continue
            walk = ft.route_walk(src, [dst], now=0)
            assert walk is not None
            assert dead not in walk


# ----------------------------------------------------------------------
# Degenerate 1xN meshes: the wrapper must stay correct on a line
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [(1, 6), (6, 1)])
def test_line_mesh_healthy_ft_reaches_everything(dims):
    mesh = Mesh2D(*dims)
    ft, _fs = armed_ft(mesh, FaultPlan())
    for src in mesh.nodes():
        for dst in mesh.nodes():
            walk = ft.route_walk(src, [dst], now=0)
            assert walk is not None
            assert len(walk) - 1 == mesh.manhattan(src, dst)


@pytest.mark.parametrize("dims", [(1, 6), (6, 1)])
def test_line_mesh_dead_link_partitions_cleanly(dims):
    """On a 1xN line a dead link genuinely partitions the mesh: walks
    within each side succeed, walks across return None (no livelock, no
    exception)."""
    mesh = Mesh2D(*dims)
    a, b = 2, 3  # nodes 2 and 3 are adjacent on the line either way
    ft, _fs = armed_ft(mesh, FaultPlan(link_faults=(LinkFault(a, b),)))
    for src in mesh.nodes():
        for dst in mesh.nodes():
            walk = ft.route_walk(src, [dst], now=0)
            if (src <= a) == (dst <= a):
                assert walk is not None, f"{src}->{dst} on same side"
            else:
                assert walk is None, f"{src}->{dst} crosses the cut"
