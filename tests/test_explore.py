"""The vectorized screening engine (repro.explore).

Three layers of guarantees:

* **Exactness** — the batched evaluator replays the scalar analytical
  model bit-for-bit: a differential sweep over hundreds of random
  configurations, plus row-level parity between :func:`screen` and
  single-degree ``run_analytical_sweep`` calls.
* **Dedup soundness** — broadcast axes (parameters the model ignores)
  multiply the config count without changing any value.
* **Calibration plumbing** — stratified sampling is deterministic,
  simulated cells share the content-addressed cache with
  ``run_invalidation_sweep``, bands round-trip through JSON, and the
  refinement loop honors its simulation budget.
"""

import json
import math
import random

import numpy as np
import pytest

from repro.analysis.analytical import (estimate_latency,
                                       plan_message_count, plan_traffic)
from repro.analysis.experiments import run_analytical_sweep
from repro.brcp.encoding import worm_flits
from repro.config import SystemParameters, paper_parameters
from repro.core import SCHEMES, build_plan
from repro.explore import ANALYTICAL_FIELDS, ParamVector, evaluate_plans
from repro.explore.atlas import build_atlas, render_markdown, write_atlas
from repro.explore.calibrate import (Calibration, SchemeBand, calibrate,
                                     stratified_sample)
from repro.explore.grid import DEFAULT_SCHEMES, ScreenGrid, screen
from repro.explore.refine import pareto_cells, refine, region_keys
from repro.explore.vectorized import (_SZ_CMF, _SZ_IG, _SZ_MC, PlanBatch,
                                      _sizes, compile_plan)
from repro.network.topology import Mesh2D
from repro.network.worm import WormKind
from repro.runner import ResultCache
from repro.sim.stats import Tally


def _random_params(rng: random.Random, width: int,
                   height: int) -> SystemParameters:
    return SystemParameters(
        mesh_width=width, mesh_height=height,
        router_delay=rng.randint(1, 6),
        send_overhead=rng.randint(1, 8),
        recv_overhead=rng.randint(1, 8),
        cache_invalidate=rng.randint(1, 6),
        iack_deposit=rng.randint(1, 4),
        iack_pickup=rng.randint(1, 4),
        header_flits=rng.randint(1, 3),
        control_flits=rng.randint(1, 4),
        gather_payload_flits=rng.randint(1, 4),
        multidest_encoding=rng.choice(["bitstring", "list"]),
    )


# ----------------------------------------------------------------------
# Exactness: vectorized == scalar
# ----------------------------------------------------------------------
def test_differential_vectorized_vs_scalar_200_random_configs():
    """The acceptance gate: >= 200 random configurations across every
    scheme, mesh shape (including degenerate), and parameter draw must
    agree exactly with the scalar model."""
    rng = random.Random(1234)
    meshes = [(4, 4), (8, 8), (5, 3), (2, 2), (1, 16), (16, 1), (6, 6)]
    schemes = sorted(SCHEMES)
    checked = 0
    for trial in range(30):
        width, height = meshes[trial % len(meshes)]
        params = _random_params(rng, width, height)
        mesh = Mesh2D(width, height)
        nodes = width * height
        plans = []
        for _ in range(8):
            scheme = schemes[rng.randrange(len(schemes))]
            home = rng.randrange(nodes)
            degree = rng.randint(1, min(12, nodes - 1))
            sharers = rng.sample(
                [n for n in range(nodes) if n != home], degree)
            plans.append(build_plan(scheme, mesh, home, sharers))
        lat, msg, tfc = evaluate_plans(plans, mesh, params)
        for k, plan in enumerate(plans):
            assert lat[k] == estimate_latency(plan, params, mesh)
            assert msg[k] == plan_message_count(plan)
            assert tfc[k] == plan_traffic(plan, params, mesh)
            checked += 1
    assert checked >= 200


def test_vectorized_sizes_equal_worm_flits():
    """``_sizes`` is the array form of the one worm-size rule the
    engine and the scalar model share."""
    rng = random.Random(99)
    classes = [(WormKind.UNICAST, _SZ_CMF), (WormKind.MULTICAST, _SZ_MC),
               (WormKind.IRESERVE, _SZ_MC), (WormKind.CHAIN, _SZ_MC),
               (WormKind.IGATHER, _SZ_IG)]
    nd = np.arange(1, 13)[None, :]
    for width, height in [(4, 4), (8, 8), (5, 3), (1, 16), (16, 9)]:
        mesh = Mesh2D(width, height)
        plan = build_plan("mi-ma-ec", mesh, 0, [mesh.num_nodes - 1])
        batch = PlanBatch([compile_plan(plan, mesh)])
        for _ in range(6):
            params = _random_params(rng, width, height)
            pv = ParamVector.of(params)
            for kind, code in classes:
                got = _sizes(batch, pv, np.full(nd.shape, code), nd)
                assert got[0].tolist() == [worm_flits(params, kind, int(d))
                                           for d in nd[0]]


def test_screen_rows_equal_scalar_sweep_rows_exactly():
    """A screen cell must equal the corresponding single-degree
    ``run_analytical_sweep`` row bit-for-bit (same pattern stream, same
    Welford mean)."""
    grid = ScreenGrid.make(
        meshes=((4, 4), (8, 8)), degrees=(2, 5, 9),
        schemes=("ui-ua", "mi-ma-ec", "mi-ua-tm", "sci-chain"),
        per_degree=3, seed=7,
        axes={"multidest_encoding": ("bitstring", "list")})
    result = screen(grid)
    by_cell = {(int(result.mesh_w[i]), grid.schemes[result.scheme[i]],
                int(result.degree[i]),
                result.acombos[result.acombo[i]]["multidest_encoding"]): i
               for i in range(len(result))}
    for width in (4, 8):
        for encoding in ("bitstring", "list"):
            params = grid.params_for(width, width,
                                     multidest_encoding=encoding)
            for scheme in grid.schemes:
                for degree in (2, 5, 9):
                    rows = run_analytical_sweep(
                        [scheme], (degree,), per_degree=3,
                        params=params, seed=7, jobs=1, use_cache=False)
                    i = by_cell[(width, scheme, degree, encoding)]
                    assert float(result.latency[i]) == rows[0]["latency"]
                    assert (float(result.messages[i])
                            == rows[0]["messages"])
                    assert (float(result.traffic[i])
                            == rows[0]["flit_hops"])


def test_welford_means_replays_tally():
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 500.0, size=(20, 7))
    means = np.asarray([0.0] * 20)
    for row in range(20):
        tally = Tally()
        for v in values[row]:
            tally.add(float(v))
        means[row] = tally.mean
    from repro.explore.vectorized import welford_means
    assert np.array_equal(welford_means(values), means)


def test_param_vector_covers_only_analytical_fields():
    params = paper_parameters(4)
    pv = ParamVector.of(params)
    for name in ANALYTICAL_FIELDS:
        assert getattr(pv, name) == getattr(params, name)
    # Fields the model ignores must stay out (they drive broadcast).
    assert "consumption_channels" not in ANALYTICAL_FIELDS
    assert "iack_buffers" not in ANALYTICAL_FIELDS


# ----------------------------------------------------------------------
# Broadcast dedup
# ----------------------------------------------------------------------
def test_broadcast_axes_multiply_configs_without_recompute():
    kw = dict(meshes=((4, 4),), degrees=(2, 4), per_degree=2,
              schemes=("ui-ua", "mi-ma-ec"))
    plain = screen(ScreenGrid.make(**kw))
    wide = screen(ScreenGrid.make(
        axes={"consumption_channels": (1, 2, 4)}, **kw))
    assert len(wide) == len(plain)              # same evaluated cells
    assert wide.n_configs == 3 * plain.n_configs
    assert np.array_equal(wide.latency, plain.latency)
    rows = list(wide.rows())
    assert len(rows) == wide.n_configs
    channels = {r["consumption_channels"] for r in rows}
    assert channels == {1, 2, 4}
    # Broadcast copies are value-identical.
    assert len({(r["scheme"], r["degree"], r["latency"])
                for r in rows}) == len(plain)


def test_default_schemes_are_real():
    assert set(DEFAULT_SCHEMES) <= set(SCHEMES)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_stratified_sample_is_deterministic_and_per_scheme():
    grid = ScreenGrid.make(meshes=((4, 4), (8, 8)), degrees=(2, 4, 8),
                           per_degree=2, schemes=("ui-ua", "mi-ma-ec"))
    result = screen(grid)
    a = stratified_sample(result, per_scheme=3, seed=11)
    b = stratified_sample(result, per_scheme=3, seed=11)
    assert a == b
    assert stratified_sample(result, per_scheme=3, seed=12) != a or \
        len(a) <= 2       # tiny grids can coincide; larger must differ
    picked_schemes = {int(result.scheme[i]) for i in a}
    assert picked_schemes == {0, 1}


def test_scheme_band_accumulates_ratios():
    band = SchemeBand(scheme="ui-ua")
    assert band.interval(100.0) == (0.0, math.inf)   # uncalibrated
    for ratio in (0.9, 1.1, 1.05):
        band.add(ratio)
    assert band.lo == 0.9 and band.hi == 1.1
    assert band.interval(100.0) == pytest.approx((90.0, 110.0))
    assert band.width == pytest.approx(0.2)
    band.add(1.3)
    assert band.center == pytest.approx((0.9 + 1.1 + 1.05 + 1.3) / 4)
    calib = Calibration(bands={"ui-ua": band})
    assert calib.to_dict()["bands"]["ui-ua"] == {
        "scheme": "ui-ua", "lo": 0.9, "hi": 1.3,
        "center": band.center, "n": 4}


def test_calibrate_shares_cache_with_invalidation_sweep(tmp_path):
    """Calibration jobs use byte-identical keys to single-degree
    ``run_invalidation_sweep`` calls, so a later sweep replays them
    from the shared cache without simulating."""
    from repro.analysis.experiments import run_invalidation_sweep

    grid = ScreenGrid.make(meshes=((4, 4),), degrees=(3,),
                           per_degree=2, seed=3, schemes=("ui-ua",))
    result = screen(grid)
    cache = ResultCache(str(tmp_path / "cache"))
    calib = calibrate(result, per_scheme=1, jobs=1, use_cache=True,
                      cache=cache)
    assert len(calib.samples) == 1
    stores = cache.stores

    rows = run_invalidation_sweep(
        ["ui-ua"], [3], per_degree=2, params=grid.params_for(4, 4),
        seed=3, jobs=1, use_cache=True, cache=cache)
    assert cache.hits >= 1                 # replayed, not re-simulated
    assert cache.stores == stores
    assert rows[0]["latency"] == calib.samples[0]["simulated"]


def test_refine_honors_budget_and_reports(tmp_path):
    grid = ScreenGrid.make(meshes=((4, 4),), degrees=(2, 4),
                           per_degree=2, seed=1,
                           schemes=("ui-ua", "mi-ma-ec", "mi-ua-tm"))
    result = screen(grid)
    cache = ResultCache(str(tmp_path / "cache"))
    calib = Calibration()                  # skip the stratified pass
    budget_fraction = 4 / result.n_configs
    report = refine(result, calib, budget_fraction=budget_fraction,
                    tol=0.02, max_rounds=3, jobs=2, use_cache=True,
                    cache=cache)
    assert report.budget_cells == 4
    assert report.simulated_cells <= 4
    assert len(calib.samples) <= 4
    assert report.sim_fraction <= budget_fraction + 1e-9
    assert calib.meta["sim_fraction"] == report.sim_fraction
    assert len(report.band_width_history) == report.rounds + 1
    d = report.to_dict()
    assert d["rounds"] == report.rounds
    assert json.dumps(d)                   # JSON-serializable


def test_pareto_cells_are_nondominated():
    grid = ScreenGrid.make(meshes=((8, 8),), degrees=(4,),
                           per_degree=2, schemes=DEFAULT_SCHEMES)
    result = screen(grid)
    frontier = set(pareto_cells(result))
    assert frontier
    regions = region_keys(result)
    for key in np.unique(regions):
        idx = np.flatnonzero(regions == key)
        for i in idx:
            if i in frontier:
                continue
            dominated = any(
                result.latency[j] <= result.latency[i]
                and result.traffic[j] <= result.traffic[i]
                and (result.latency[j] < result.latency[i]
                     or result.traffic[j] < result.traffic[i])
                for j in idx)
            assert dominated        # off-frontier cells are dominated


# ----------------------------------------------------------------------
# Atlas
# ----------------------------------------------------------------------
def test_atlas_winner_map_and_artifacts(tmp_path):
    grid = ScreenGrid.make(meshes=((4, 4), (8, 8)), degrees=(2, 8),
                           per_degree=2, schemes=("ui-ua", "mi-ma-ec"))
    result = screen(grid)
    calib = Calibration()
    for scheme in grid.schemes:            # synthetic tight bands
        band = calib.band(scheme)
        band.add(1.0)
        band.add(1.02)
    atlas = build_atlas(result, calib)

    assert atlas["meta"]["n_regions"] == len(np.unique(
        region_keys(result)))
    assert atlas["meta"]["n_configs"] == result.n_configs
    for entry in atlas["regions"]:
        ranking = entry["ranking"]
        assert entry["winner"] == ranking[0]["scheme"]
        lats = [r["latency"] for r in ranking]
        assert lats == sorted(lats)
        assert ranking[0]["latency_hi"] == pytest.approx(
            ranking[0]["latency"] * 1.02)
    # Margins are relative to the winner and never negative; a region
    # is confident only when the calibrated intervals separate.
    for entry in atlas["regions"]:
        assert entry["margin"] >= 0
        if entry["confident"]:
            assert (entry["ranking"][0]["latency_hi"]
                    < entry["ranking"][1]["latency_lo"])

    paths = write_atlas(atlas, tmp_path / "results")
    assert paths["markdown"].exists() and paths["json"].exists()
    loaded = json.loads(paths["json"].read_text())
    assert loaded["meta"]["n_regions"] == atlas["meta"]["n_regions"]
    md = render_markdown(atlas)
    assert "Scenario atlas" in md and "mi-ma-ec" in md
    assert "8x8 mesh" in md


def test_atlas_uncalibrated_bands_are_never_confident():
    grid = ScreenGrid.make(meshes=((4, 4),), degrees=(4,),
                           per_degree=2, schemes=("ui-ua", "mi-ma-ec"))
    atlas = build_atlas(screen(grid))      # no calibration at all
    assert all(not e["confident"] for e in atlas["regions"])
    assert "uncalibrated" in render_markdown(atlas)
