"""Fully-adaptive routing, diagonal chain grouping, and the fa schemes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.brcp.model import is_conformant_path
from repro.brcp.paths import adaptive_chain_paths
from repro.core import InvalidationEngine, build_plan
from repro.core.grouping import plan_mi_ua_ec, plan_mi_ua_fa
from repro.network import MeshNetwork
from repro.network.routing import (ECubeRouting, FaultAwareRouting,
                                   FullyAdaptiveRouting, make_routing)
from repro.network.topology import Mesh2D, Port
from repro.config import SystemParameters
from repro.sim import Simulator
from tests.test_routing import candidate_mismatches, turn_mismatches


MESH = Mesh2D(8, 8)


# ----------------------------------------------------------------------
# Routing behaviour
# ----------------------------------------------------------------------
def test_adaptive_candidates_prefer_long_dimension():
    r = FullyAdaptiveRouting(MESH)
    src = MESH.node_at(0, 0)
    dst = MESH.node_at(5, 2)
    assert r.candidates(src, dst)[0] == Port.EAST
    dst2 = MESH.node_at(2, 5)
    assert r.candidates(src, dst2)[0] == Port.NORTH
    # Both productive directions offered.
    assert set(r.candidates(src, dst)) == {Port.EAST, Port.NORTH}

    # Every pair: every port nearer the destination, the axis with the
    # longer remaining offset first (X on a tie).
    def long_axis_first(m, node, dst, closer):
        (cx, cy), (dx, dy) = m.coords(node), m.coords(dst)
        xs = [p for p in closer if p in (Port.EAST, Port.WEST)]
        ys = [p for p in closer if p in (Port.NORTH, Port.SOUTH)]
        return xs + ys if abs(dx - cx) >= abs(dy - cy) else ys + xs

    assert candidate_mismatches(FullyAdaptiveRouting, long_axis_first) == []


def test_adaptive_turns_allow_everything_but_reversals():
    r = FullyAdaptiveRouting(MESH)
    for inc in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
        for out in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
            expected = out != inc  # re-exiting the entry port = reversal
            assert r.turn_allowed(inc, out) == expected
    assert r.turn_allowed(None, Port.WEST)
    # The fault-aware wrapper relaxes every base to the same rule.
    everything_but = {None: set(Port) - {Port.LOCAL}}
    everything_but.update({p: everything_but[None] - {p}
                           for p in everything_but[None]})
    ft = FaultAwareRouting(ECubeRouting(MESH), None, 3)
    assert turn_mismatches(r, everything_but) == []
    assert turn_mismatches(ft, everything_but) == []


@given(st.integers(0, 63), st.integers(0, 63))
def test_adaptive_routes_minimal(a, b):
    r = FullyAdaptiveRouting(MESH)
    hops = r.route_hops(a, b)
    assert len(hops) == MESH.manhattan(a, b)
    assert is_conformant_path(r, a, hops)


def test_make_routing_knows_adaptive():
    assert isinstance(make_routing("adaptive", MESH), FullyAdaptiveRouting)


def test_adaptive_legalizes_zigzags_ecube_rejects():
    r = FullyAdaptiveRouting(MESH)
    home = MESH.node_at(0, 0)
    dests = [MESH.node_at(2, 3), MESH.node_at(5, 4), MESH.node_at(7, 7)]
    assert is_conformant_path(r, home, dests)


# ----------------------------------------------------------------------
# Chain cover
# ----------------------------------------------------------------------
def test_single_diagonal_is_one_chain():
    home = MESH.node_at(0, 0)
    sharers = [MESH.node_at(i, i) for i in range(1, 8)]
    paths = adaptive_chain_paths(MESH, home, sharers)
    assert len(paths) == 1
    assert paths[0] == sharers  # sorted along the diagonal


def test_antichain_needs_one_worm_each():
    # Points on an anti-diagonal dominate nothing pairwise.
    home = MESH.node_at(0, 0)
    sharers = [MESH.node_at(x, 7 - x) for x in range(1, 7)]
    paths = adaptive_chain_paths(MESH, home, sharers)
    assert len(paths) == len(sharers)


def test_quadrants_split():
    home = MESH.node_at(4, 4)
    sharers = [MESH.node_at(6, 6), MESH.node_at(7, 7),   # NE chain
               MESH.node_at(2, 2), MESH.node_at(1, 1),   # SW chain
               MESH.node_at(6, 2), MESH.node_at(2, 6)]   # SE, NW
    paths = adaptive_chain_paths(MESH, home, sharers)
    assert len(paths) == 4


@settings(max_examples=80)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=24))
def test_chain_paths_cover_and_conform(home, sharer_set):
    sharer_set.discard(home)
    if not sharer_set:
        return
    routing = FullyAdaptiveRouting(MESH)
    paths = adaptive_chain_paths(MESH, home, sorted(sharer_set))
    covered = [n for p in paths for n in p]
    assert sorted(covered) == sorted(sharer_set)
    for path in paths:
        assert is_conformant_path(routing, home, path)
        # The reverse chain plus the home is also conformant (used by
        # the mi-ma-fa gathers).
        rev = list(reversed(path))
        assert is_conformant_path(routing, rev[0], rev[1:] + [home])


@settings(max_examples=40)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=2, max_size=20))
def test_chain_cover_bounded_by_sharers_and_column_structure(home,
                                                             sharer_set):
    """No scheme dominates on every pattern (chains split at quadrant
    boundaries, staircases cross them, columns batch verticals), but the
    chain cover is always bounded: never more worms than sharers, and
    never more than one worm per (column, quadrant-side) pair."""
    sharer_set.discard(home)
    if len(sharer_set) < 2:
        return
    sharers = sorted(sharer_set)
    fa = len(plan_mi_ua_fa(MESH, home, sharers).groups)
    ec = len(plan_mi_ua_ec(MESH, home, sharers).groups)
    assert fa <= len(sharers)
    hx, hy = MESH.coords(home)
    col_sides = len({(MESH.coords(s)[0], MESH.coords(s)[1] >= hy)
                     for s in sharers})
    assert fa <= col_sides
    assert ec <= col_sides  # column grouping has the same bound


def test_chains_beat_columns_on_diagonal_patterns():
    home = MESH.node_at(0, 0)
    sharers = ([MESH.node_at(i, i) for i in range(1, 8)]
               + [MESH.node_at(i, i - 1) for i in range(2, 8)])
    fa = len(plan_mi_ua_fa(MESH, home, sharers).groups)
    ec = len(plan_mi_ua_ec(MESH, home, sharers).groups)
    assert fa == 1   # one zigzag chain covers both parallel diagonals
    assert ec == 7   # one worm per column


def test_chain_rejects_home_and_duplicates():
    with pytest.raises(ValueError):
        adaptive_chain_paths(MESH, 5, [5])
    with pytest.raises(ValueError):
        adaptive_chain_paths(MESH, 0, [3, 3])
    assert adaptive_chain_paths(MESH, 0, []) == []


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["mi-ua-fa", "mi-ma-fa"])
def test_fa_schemes_execute(scheme):
    params = SystemParameters()
    sim = Simulator()
    net = MeshNetwork(sim, params, "adaptive")
    engine = InvalidationEngine(sim, net, params)
    home = net.mesh.node_at(3, 3)
    sharers = [net.mesh.node_at(x, y) for x, y in
               [(5, 5), (6, 6), (1, 1), (6, 1), (1, 6), (4, 7)]]
    plan = build_plan(scheme, net.mesh, home, sharers)
    record = engine.run(plan, limit=5_000_000)
    assert record.sharers == 6
    for iface in net.interfaces:
        assert not iface.iack._entries


def test_fa_uses_fewer_messages_on_diagonal_pattern():
    params = SystemParameters()
    results = {}
    for scheme in ("mi-ua-ec", "mi-ua-fa"):
        sim = Simulator()
        from repro.core.grouping import SCHEMES
        net = MeshNetwork(sim, params, SCHEMES[scheme][1])
        engine = InvalidationEngine(sim, net, params)
        home = net.mesh.node_at(0, 0)
        sharers = [net.mesh.node_at(i, i) for i in range(1, 8)]
        plan = build_plan(scheme, net.mesh, home, sharers)
        results[scheme] = engine.run(plan, limit=5_000_000)
    assert results["mi-ua-fa"].home_sent == 1     # one diagonal worm
    assert results["mi-ua-ec"].home_sent == 7     # one per column
    assert results["mi-ua-fa"].flit_hops < results["mi-ua-ec"].flit_hops