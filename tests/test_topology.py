"""Unit tests for mesh geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.network.topology import MESH_PORTS, OPPOSITE, Mesh2D, Port


def test_coords_roundtrip():
    mesh = Mesh2D(5, 3)
    for node in mesh.nodes():
        x, y = mesh.coords(node)
        assert mesh.node_at(x, y) == node


def test_row_major_numbering():
    mesh = Mesh2D(4, 4)
    assert mesh.coords(0) == (0, 0)
    assert mesh.coords(3) == (3, 0)
    assert mesh.coords(4) == (0, 1)
    assert mesh.coords(15) == (3, 3)


def test_out_of_range_rejected():
    mesh = Mesh2D(4, 4)
    with pytest.raises(ValueError):
        mesh.coords(16)
    with pytest.raises(ValueError):
        mesh.node_at(4, 0)
    with pytest.raises(ValueError):
        Mesh2D(0, 4)


def test_neighbors_interior_and_edges():
    mesh = Mesh2D(3, 3)
    center = mesh.node_at(1, 1)
    assert mesh.neighbor(center, Port.NORTH) == mesh.node_at(1, 2)
    assert mesh.neighbor(center, Port.SOUTH) == mesh.node_at(1, 0)
    assert mesh.neighbor(center, Port.EAST) == mesh.node_at(2, 1)
    assert mesh.neighbor(center, Port.WEST) == mesh.node_at(0, 1)
    corner = mesh.node_at(0, 0)
    assert mesh.neighbor(corner, Port.WEST) is None
    assert mesh.neighbor(corner, Port.SOUTH) is None


def test_opposite_ports_consistent():
    mesh = Mesh2D(4, 4)
    node = mesh.node_at(2, 2)
    for port in MESH_PORTS:
        neighbor = mesh.neighbor(node, port)
        assert neighbor is not None
        assert mesh.neighbor(neighbor, OPPOSITE[port]) == node



def test_manhattan_distance():
    mesh = Mesh2D(8, 8)
    assert mesh.manhattan(mesh.node_at(0, 0), mesh.node_at(7, 7)) == 14
    assert mesh.manhattan(mesh.node_at(3, 3), mesh.node_at(3, 3)) == 0


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_average_distance_matches_bruteforce(w, h):
    mesh = Mesh2D(w, h)
    if mesh.num_nodes == 1:
        assert mesh.average_distance() == 0.0
        return
    total = sum(mesh.manhattan(a, b)
                for a in mesh.nodes() for b in mesh.nodes() if a != b)
    pairs = mesh.num_nodes * (mesh.num_nodes - 1)
    assert mesh.average_distance() == pytest.approx(total / pairs)
