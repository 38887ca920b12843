"""Degenerate topologies: 1-D meshes and tiny systems must work."""

import pytest

from repro.config import SystemParameters
from repro.core import InvalidationEngine, SCHEMES, build_plan
from repro.network import MeshNetwork
from repro.network.topology import Mesh2D
from repro.sim import Simulator


def run_on(width, height, scheme, home, sharers):
    params = SystemParameters(mesh_width=width, mesh_height=height)
    sim = Simulator()
    net = MeshNetwork(sim, params, SCHEMES[scheme][1])
    engine = InvalidationEngine(sim, net, params)
    plan = build_plan(scheme, net.mesh, home, sharers)
    record = engine.run(plan, limit=5_000_000)
    for iface in net.interfaces:
        assert not iface.iack._entries
        assert iface.free_cc == iface.total_cc
    return record


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_row_mesh(scheme):
    # 8x1: everything lives on one row.
    record = run_on(8, 1, scheme, home=2, sharers=[0, 4, 6, 7])
    assert record.sharers == 4


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_column_mesh(scheme):
    # 1x8: everything lives in one column.
    record = run_on(1, 8, scheme, home=2, sharers=[0, 4, 6, 7])
    assert record.sharers == 4


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_two_by_two(scheme):
    record = run_on(2, 2, scheme, home=0, sharers=[1, 2, 3])
    assert record.sharers == 3


def test_rectangular_mesh():
    record = run_on(8, 3, "mi-ma-ec", home=9,
                    sharers=[0, 5, 12, 17, 20, 23])
    assert record.sharers == 6


def test_one_by_one_rejects_traffic():
    mesh = Mesh2D(1, 1)
    with pytest.raises(ValueError):
        build_plan("ui-ua", mesh, 0, [0])  # home cannot share with itself
