"""Unit tests for e-cube and west-first routing."""

import pytest
from hypothesis import given, strategies as st

from repro.brcp.model import is_conformant_path
from repro.network.routing import (ECubeRouting, FullyAdaptiveRouting,
                                   Routing, RoutingError, WestFirstRouting,
                                   make_routing)
from repro.network.topology import MESH_PORTS, Mesh2D, Port

N, S, E, W = Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST

#: Meshes every candidate list is pinned on: one node, both line
#: shapes, a rectangle and two paper sizes.
TABLE_MESHES = ((1, 1), (1, 5), (5, 1), (3, 4), (8, 8), (16, 8))


@pytest.fixture
def mesh():
    return Mesh2D(8, 8)


def closer_ports(mesh, node, dst):
    """Mesh ports whose neighbour lies nearer ``dst``, in port order."""
    d = mesh.manhattan(node, dst)
    return [p for p in MESH_PORTS
            if (n := mesh.neighbor(node, p)) is not None
            and mesh.manhattan(n, dst) < d]


def candidate_mismatches(routing_cls, expected):
    """``(w, h, node, dst)`` of every pair on :data:`TABLE_MESHES` where
    ``routing_cls`` offers other candidates than ``expected(mesh, node,
    dst, closer)``, ``closer`` being :func:`closer_ports`."""
    bad = []
    for w, h in TABLE_MESHES:
        m = Mesh2D(w, h)
        r = routing_cls(m)
        for node in m.nodes():
            for dst in m.nodes():
                want = expected(m, node, dst, closer_ports(m, node, dst))
                if r.candidates(node, dst) != want:
                    bad.append((w, h, node, dst))
    return bad


def turn_mismatches(routing, allowed):
    """``(incoming, outgoing)`` pairs over injection (None) and the four
    mesh ports where ``routing.turn_allowed`` disagrees with
    ``allowed[incoming]``, the set of ports that incoming port may
    leave through."""
    return [(inc, out) for inc in (None,) + MESH_PORTS for out in MESH_PORTS
            if routing.turn_allowed(inc, out) != (out in allowed[inc])]


# ----------------------------------------------------------------------
# E-cube
# ----------------------------------------------------------------------
def test_ecube_resolves_x_first(mesh):
    r = ECubeRouting(mesh)
    src = mesh.node_at(1, 1)
    dst = mesh.node_at(4, 5)
    assert r.candidates(src, dst) == [Port.EAST]
    # Once X matches, move in Y.
    aligned = mesh.node_at(4, 1)
    assert r.candidates(aligned, dst) == [Port.NORTH]

    # Every pair: the one port nearer the destination in X, else in Y.
    def x_then_y(m, node, dst, closer):
        return ([p for p in closer if p in (E, W)]
                or [p for p in closer if p in (N, S)])

    assert candidate_mismatches(ECubeRouting, x_then_y) == []


def test_ecube_at_destination_empty(mesh):
    r = ECubeRouting(mesh)
    assert r.candidates(10, 10) == []


def test_ecube_route_hops_shape(mesh):
    r = ECubeRouting(mesh)
    src, dst = mesh.node_at(1, 1), mesh.node_at(3, 4)
    hops = r.route_hops(src, dst)
    coords = [mesh.coords(n) for n in hops]
    assert coords == [(2, 1), (3, 1), (3, 2), (3, 3), (3, 4)]


@given(st.integers(0, 63), st.integers(0, 63))
def test_ecube_route_is_minimal(a, b):
    mesh = Mesh2D(8, 8)
    r = ECubeRouting(mesh)
    hops = r.route_hops(a, b)
    assert len(hops) == mesh.manhattan(a, b)
    if hops:
        assert hops[-1] == b


def test_ecube_turns():
    mesh = Mesh2D(8, 8)
    r = ECubeRouting(mesh)
    # Entered from the WEST port => travelling east.
    assert r.turn_allowed(Port.WEST, Port.EAST)      # straight on
    assert r.turn_allowed(Port.WEST, Port.NORTH)     # X -> Y turn fine
    assert not r.turn_allowed(Port.WEST, Port.WEST)  # 180 reversal
    # Entered from the SOUTH port => travelling north: Y -> X banned.
    assert r.turn_allowed(Port.SOUTH, Port.NORTH)
    assert not r.turn_allowed(Port.SOUTH, Port.EAST)
    assert not r.turn_allowed(Port.SOUTH, Port.WEST)
    # Injection may go anywhere.
    assert r.turn_allowed(None, Port.WEST)
    # The whole table: X travel continues or turns into Y; Y travel
    # only continues straight.
    assert turn_mismatches(r, {None: {N, S, E, W}, N: {S}, S: {N},
                               E: {W, N, S}, W: {E, N, S}}) == []


# ----------------------------------------------------------------------
# West-first turn model
# ----------------------------------------------------------------------
def test_westfirst_goes_west_first(mesh):
    r = WestFirstRouting(mesh)
    src = mesh.node_at(5, 5)
    dst = mesh.node_at(2, 7)
    assert r.candidates(src, dst) == [Port.WEST]


def test_westfirst_adaptive_eastward(mesh):
    r = WestFirstRouting(mesh)
    src = mesh.node_at(1, 1)
    dst = mesh.node_at(4, 6)
    assert r.candidates(src, dst) == [Port.EAST, Port.NORTH]
    dst_south = mesh.node_at(4, 0)
    assert r.candidates(src, dst_south) == [Port.EAST, Port.SOUTH]

    # Every pair: west alone while the destination lies west, else
    # every port nearer it, east before the Y port.
    def west_first(m, node, dst, closer):
        return [W] if W in closer else [p for p in (E, N, S) if p in closer]

    assert candidate_mismatches(WestFirstRouting, west_first) == []


def test_westfirst_turns():
    mesh = Mesh2D(8, 8)
    r = WestFirstRouting(mesh)
    # Travelling north (entered from SOUTH): may not turn west.
    assert not r.turn_allowed(Port.SOUTH, Port.WEST)
    assert r.turn_allowed(Port.SOUTH, Port.EAST)
    assert r.turn_allowed(Port.SOUTH, Port.NORTH)
    # Travelling east: all but reversal allowed.
    assert r.turn_allowed(Port.WEST, Port.NORTH)
    assert r.turn_allowed(Port.WEST, Port.SOUTH)
    assert not r.turn_allowed(Port.WEST, Port.WEST)
    # Travelling west: may continue west or turn off west.
    assert r.turn_allowed(Port.EAST, Port.WEST)
    assert r.turn_allowed(Port.EAST, Port.NORTH)
    assert not r.turn_allowed(Port.EAST, Port.EAST)
    # The whole table: no reversal, and Y travel never turns west.
    assert turn_mismatches(r, {None: {N, S, E, W}, N: {S, E}, S: {N, E},
                               E: {W, N, S}, W: {E, N, S}}) == []


@given(st.integers(0, 63), st.integers(0, 63))
def test_westfirst_route_is_minimal_and_conformant(a, b):
    mesh = Mesh2D(8, 8)
    r = WestFirstRouting(mesh)
    hops = r.route_hops(a, b)
    assert len(hops) == mesh.manhattan(a, b)
    assert is_conformant_path(r, a, hops)


@given(st.integers(0, 63), st.integers(0, 63))
def test_ecube_route_is_conformant(a, b):
    mesh = Mesh2D(8, 8)
    r = ECubeRouting(mesh)
    hops = r.route_hops(a, b)
    assert is_conformant_path(r, a, hops)


def test_yx_walk_not_ecube_conformant():
    mesh = Mesh2D(8, 8)
    r = ECubeRouting(mesh)
    # Walk north then east: banned under XY routing.
    walk = [mesh.node_at(2, 2), mesh.node_at(2, 3), mesh.node_at(3, 3)]
    assert not is_conformant_path(r, walk[0], walk[1:])
    # Same walk is fine under west-first.
    assert is_conformant_path(WestFirstRouting(mesh), walk[0], walk[1:])


def test_make_routing_factory():
    mesh = Mesh2D(4, 4)
    assert isinstance(make_routing("ecube", mesh), ECubeRouting)
    assert isinstance(make_routing("westfirst", mesh), WestFirstRouting)
    with pytest.raises(ValueError, match="unknown routing"):
        make_routing("bogus", mesh)


def test_make_routing_aliases_and_ft_suffix():
    """Fault-aware routing is a ``SystemParameters`` switch, not a name:
    the factory knows the three base schemes and nothing else."""
    mesh = Mesh2D(4, 4)
    assert isinstance(make_routing("adaptive", mesh), FullyAdaptiveRouting)
    for name in ("ecube+ft", "fa+ft", "fa", "ec", "wf", "ecube+turbo"):
        with pytest.raises(ValueError, match="unknown routing scheme"):
            make_routing(name, mesh)


# ----------------------------------------------------------------------
# Typed routing errors (no bare asserts off the mesh)
# ----------------------------------------------------------------------
class _OffMeshRouting(Routing):
    name = "offmesh"

    def candidates(self, current, dst):
        return [Port.WEST]  # marches off the western edge


class _StuckRouting(Routing):
    name = "stuck"

    def candidates(self, current, dst):
        return []  # never offers a port


def test_route_hops_off_mesh_raises_typed_error():
    mesh = Mesh2D(4, 4)
    with pytest.raises(RoutingError, match="walked off the mesh"):
        _OffMeshRouting(mesh).route_hops(0, 3)


def test_route_hops_without_candidates_raises_typed_error():
    mesh = Mesh2D(4, 4)
    with pytest.raises(RoutingError, match="no candidate port"):
        _StuckRouting(mesh).route_hops(0, 3)


def test_routing_error_is_not_assertion_error():
    # Callers can catch it without relying on -O-stripped asserts.
    assert issubclass(RoutingError, Exception)
    assert not issubclass(RoutingError, AssertionError)
