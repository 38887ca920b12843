"""Analytical-model parity on degenerate topologies.

The screening engine is only trustworthy if the closed-form model (and
its vectorized replay) holds on the meshes where routing collapses to
one dimension — 1xN rows, Nx1 columns, 2x2 corners — and on the
lightest transactions (a single sharer).  Counts must match the
simulator exactly; latency must sit inside the calibrated error band
machinery that the atlas relies on.
"""

import math

import pytest

from repro.config import ConfigError, SystemParameters
from repro.core import InvalidationEngine, SCHEMES, build_plan
from repro.explore import evaluate_plans
from repro.explore.calibrate import (Calibration, apply_samples,
                                     simulate_cells)
from repro.explore.grid import ScreenGrid, screen
from repro.network import MeshNetwork
from repro.network.topology import Mesh2D
from repro.sim import Simulator
from repro.analysis.analytical import (estimate_latency,
                                       plan_message_count, plan_traffic)

#: (width, height, home, sharers) covering rows, columns, corners and
#: the single-sharer case on each.
CASES = [
    (8, 1, 2, [5]),            # row mesh, one sharer
    (1, 8, 2, [0]),            # column mesh, one sharer
    (2, 2, 0, [3]),            # minimal 2-D mesh, one sharer
    (2, 1, 0, [1]),            # smallest legal system
    (8, 1, 2, [0, 4, 6, 7]),   # row mesh, spread sharers
    (1, 8, 2, [0, 4, 6, 7]),   # column mesh, spread sharers
    (2, 2, 0, [1, 2, 3]),      # full 2x2 occupancy
]


def _simulate(width, height, scheme, home, sharers):
    params = SystemParameters(mesh_width=width, mesh_height=height)
    sim = Simulator()
    net = MeshNetwork(sim, params, SCHEMES[scheme][1])
    engine = InvalidationEngine(sim, net, params)
    plan = build_plan(scheme, net.mesh, home, sharers)
    record = engine.run(plan, limit=5_000_000)
    return plan, net.mesh, params, record


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_vectorized_matches_scalar_on_degenerate_meshes(scheme):
    """The batched evaluator replays the scalar model exactly even
    when the mesh has no second dimension."""
    for width, height, home, sharers in CASES:
        mesh = Mesh2D(width, height)
        params = SystemParameters(mesh_width=width, mesh_height=height)
        plan = build_plan(scheme, mesh, home, sharers)
        lat, msg, traffic = evaluate_plans([plan], mesh, params)
        assert lat[0] == estimate_latency(plan, params, mesh)
        assert msg[0] == plan_message_count(plan)
        assert traffic[0] == plan_traffic(plan, params, mesh)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_degenerate_counts_match_simulator_exactly(scheme):
    """Messages and flit-hops are exact claims of the model — the
    simulator must agree to the flit on every degenerate case."""
    for width, height, home, sharers in CASES:
        plan, mesh, params, record = _simulate(width, height, scheme,
                                               home, sharers)
        assert record.total_messages == plan_message_count(plan)
        assert record.flit_hops == plan_traffic(plan, params, mesh)


@pytest.mark.parametrize("scheme", sorted(set(SCHEMES) - {"sci-chain"}))
def test_single_sharer_latency_is_exact(scheme):
    """With one sharer there is no contention, so the contention-free
    model must land on the simulator's cycle count exactly."""
    for width, height, home, sharers in CASES:
        if len(sharers) != 1:
            continue
        plan, mesh, params, record = _simulate(width, height, scheme,
                                               home, sharers)
        assert record.latency == estimate_latency(plan, params, mesh)


def test_sci_chain_single_sharer_within_band():
    # The chain scheme models successive pointer hops without the
    # per-node protocol turnaround the simulator charges; it stays a
    # strict, close lower bound even at degree 1.
    for width, height, home, sharers in CASES:
        if len(sharers) != 1:
            continue
        plan, mesh, params, record = _simulate(width, height,
                                               "sci-chain", home,
                                               sharers)
        est = estimate_latency(plan, params, mesh)
        assert est <= record.latency <= est * 1.25


def test_degenerate_screen_calibrates_within_band():
    """End-to-end on degenerate meshes: screen the grid, simulate every
    cell, and require the fitted per-scheme bands to be tight."""
    grid = ScreenGrid.make(meshes=((8, 1), (1, 8), (2, 2)),
                           degrees=(1, 3), per_degree=2, seed=5,
                           schemes=("ui-ua", "mi-ma-ec", "sci-chain"))
    result = screen(grid)
    assert len(result) == 3 * 2 * 3          # meshes x degrees x schemes

    calib = Calibration()
    sims = simulate_cells(result, range(len(result)), jobs=2)
    # apply_samples raises on any message/flit-hop disagreement.
    apply_samples(result, calib, sims)
    for scheme in grid.schemes:
        band = calib.band(scheme)
        assert band.n > 0
        assert 0.85 <= band.lo <= band.hi <= 1.40
        assert math.isfinite(band.width)
    # Every simulated latency sits inside its scheme's fitted interval.
    for sample in calib.samples:
        lo, hi = calib.band(sample["scheme"]).interval(
            sample["analytical"])
        assert lo <= sample["simulated"] <= hi


def test_one_by_one_mesh_screens_to_nothing():
    # A 1x1 system has no remote sharers, so no requested degree can be
    # drawn there: the grid is refused rather than screened to no cells.
    with pytest.raises(ConfigError, match="1x1 mesh.*max_degree 0"):
        ScreenGrid.make(meshes=((1, 1),), degrees=(1, 2))
