"""Workload tests: numeric correctness of the application kernels and
structural properties of pattern/trace generators."""

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, strategies as st

from repro.analysis.experiments import check_sweep, run_invalidation_sweep
from repro.config import ConfigError, paper_parameters
from repro.network.topology import Mesh2D
from repro.workloads import (BlockAllocator, draw_patterns,
                             pattern_column_clustered,
                             pattern_row_clustered, pattern_uniform,
                             trace_stats)
from repro.workloads import apsp, barnes_hut, lu
from repro.workloads.patterns import make_pattern, max_degree
from repro.workloads.traces import blocks_for_bytes


MESH = Mesh2D(8, 8)


# ----------------------------------------------------------------------
# Synthetic patterns
# ----------------------------------------------------------------------
@given(st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_uniform_pattern_properties(degree, seed):
    rng = np.random.default_rng(seed)
    p = pattern_uniform(MESH, degree, rng)
    assert p.degree == degree
    assert p.home not in p.sharers
    assert len(set(p.sharers)) == degree


def test_column_clustered_stays_in_columns():
    rng = np.random.default_rng(3)
    p = pattern_column_clustered(MESH, 10, rng)
    cols = {MESH.coords(s)[0] for s in p.sharers}
    assert len(cols) <= 2


def test_row_clustered_stays_in_rows():
    rng = np.random.default_rng(3)
    p = pattern_row_clustered(MESH, 10, rng)
    rows = {MESH.coords(s)[1] for s in p.sharers}
    assert len(rows) <= 2


def test_pattern_degree_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        pattern_uniform(MESH, 64, rng)
    with pytest.raises(ValueError):
        pattern_column_clustered(MESH, 17, rng)
    with pytest.raises(ValueError):
        make_pattern("spiral", MESH, 2, rng)


@pytest.mark.parametrize("seed", range(6))
def test_column_sweep_at_max_degree(seed):
    """Degree 8 fills both picked columns of a 4x4 mesh; a home drawn
    inside them is redrawn outside, so every seed draws."""
    rows = run_invalidation_sweep(["ui-ua"], [8], per_degree=3,
                                  params=paper_parameters(4), kind="column",
                                  seed=seed, use_cache=False)
    assert [row["degree"] for row in rows] == [8]


def test_clustered_max_degree_leaves_room_for_the_home():
    assert max_degree("column", Mesh2D(4, 4)) == 8
    assert max_degree("column", Mesh2D(2, 4)) == 7
    assert max_degree("row", Mesh2D(4, 1)) == 3
    with pytest.raises(ConfigError, match="degree 8"):
        check_sweep(["ui-ua"], kind="column", degrees=[8],
                    params=paper_parameters(2, 4))
    check_sweep(["ui-ua"], kind="column", degrees=[7],
                params=paper_parameters(2, 4))
    # The largest degree draws for any seed, with or without a home.
    for mesh in (Mesh2D(2, 4), Mesh2D(4, 4), Mesh2D(5, 3)):
        for kind in ("column", "row"):
            degree = max_degree(kind, mesh)
            for seed in range(10):
                for home in (None, 0, mesh.num_nodes - 1):
                    rng = np.random.default_rng(seed)
                    p = make_pattern(kind, mesh, degree, rng, home=home)
                    assert p.degree == degree and p.home not in p.sharers
                    assert home is None or p.home == home
                    axis = 0 if kind == "column" else 1
                    assert len({mesh.coords(s)[axis]
                                for s in p.sharers}) <= 2


def test_sweep_is_reproducible():
    a = draw_patterns(MESH, [2, 4], 3, seed=9)
    b = draw_patterns(MESH, [2, 4], 3, seed=9)
    assert a == b
    assert {d: [p.degree for p in ps] for d, ps in a.items()} == \
        {2: [2, 2, 2], 4: [4, 4, 4]}
    # One generator, drawn degree by degree: the stream is the same as
    # drawing every pattern in turn from one seeded generator.
    rng = np.random.default_rng(9)
    assert a == {d: [make_pattern("uniform", MESH, d, rng)
                     for _ in range(3)] for d in (2, 4)}


def test_fixed_home_sweep():
    for p in draw_patterns(MESH, [3], 5, seed=1, home=27)[3]:
        assert p.home == 27


# ----------------------------------------------------------------------
# Block allocator
# ----------------------------------------------------------------------
def test_block_allocator_sequential_regions():
    alloc = BlockAllocator()
    a = alloc.alloc(10, "a")
    b = alloc.alloc(5, "b")
    assert a == 0 and b == 10
    assert list(alloc.region("b")) == list(range(10, 15))
    assert alloc.total_blocks == 15
    with pytest.raises(ValueError):
        alloc.alloc(1, "a")
    with pytest.raises(ValueError):
        alloc.alloc(0, "c")


def test_blocks_for_bytes():
    assert blocks_for_bytes(32, 32) == 1
    assert blocks_for_bytes(33, 32) == 2
    assert blocks_for_bytes(1, 32) == 1


# ----------------------------------------------------------------------
# Barnes-Hut numeric correctness
# ----------------------------------------------------------------------
def test_quadtree_mass_conservation():
    cfg = barnes_hut.BHConfig(bodies=64, steps=1, processors=8)
    pos, vel, masses = barnes_hut.initial_conditions(cfg)
    tree = barnes_hut.QuadTree(pos, masses)
    root = tree.nodes[tree.root]
    assert root.mass == pytest.approx(masses.sum())


def test_barnes_hut_forces_close_to_direct():
    cfg = barnes_hut.BHConfig(bodies=64, steps=1, processors=8, theta=0.3)
    pos, vel, masses = barnes_hut.initial_conditions(cfg)
    tree = barnes_hut.QuadTree(pos, masses)
    direct = barnes_hut.direct_forces(pos, masses)
    for b in range(cfg.bodies):
        fx, fy, _, _ = tree.force_on(b, cfg.theta)
        mag = np.hypot(*direct[b]) + 1e-9
        assert abs(fx - direct[b, 0]) / mag < 0.12
        assert abs(fy - direct[b, 1]) / mag < 0.12


def test_barnes_hut_theta_zero_is_exact_pairwise():
    cfg = barnes_hut.BHConfig(bodies=32, steps=1, processors=4)
    pos, vel, masses = barnes_hut.initial_conditions(cfg)
    tree = barnes_hut.QuadTree(pos, masses)
    direct = barnes_hut.direct_forces(pos, masses)
    for b in range(cfg.bodies):
        fx, fy, _, _ = tree.force_on(b, theta=0.0)
        assert fx == pytest.approx(direct[b, 0], rel=1e-6, abs=1e-9)
        assert fy == pytest.approx(direct[b, 1], rel=1e-6, abs=1e-9)


def test_barnes_hut_coincident_bodies_do_not_recurse_forever():
    pos = np.zeros((4, 2))
    masses = np.ones(4)
    tree = barnes_hut.QuadTree(pos, masses, max_depth=6)
    assert tree.nodes[tree.root].mass == pytest.approx(4.0)


def test_barnes_hut_traces_structure():
    cfg = barnes_hut.BHConfig(bodies=32, steps=2, processors=4)
    nodes = [0, 1, 2, 3]
    traces, info = barnes_hut.generate_traces(cfg, nodes)
    stats = trace_stats(traces)
    assert stats.processors == 4
    # 4 barriers per step for every processor.
    assert stats.barriers == 2 * 4 * 4
    assert stats.references > 0
    assert info["tree_nodes_max"] <= 8 * cfg.bodies
    # Tree blocks are both written (build) and read (force) -> sharing.
    tree_writes = set()
    tree_reads = set()
    lo = info["total_blocks"] - info["tree_nodes_max"]
    for t in traces.values():
        for e in t:
            if e[0] == "W" and e[1] >= lo:
                tree_writes.add(e[1])
            if e[0] == "R" and e[1] >= lo:
                tree_reads.add(e[1])
    assert tree_writes & tree_reads


def test_barnes_hut_partition_covers_all_bodies():
    parts = barnes_hut.partition_bodies(10, 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    assert sorted(b for p in parts for b in p) == list(range(10))


# ----------------------------------------------------------------------
# LU numeric correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,block", [(16, 4), (32, 8), (24, 8)])
def test_blocked_lu_reconstructs_matrix(n, block):
    cfg = lu.LUConfig(n=n, block=block, processors=4)
    a = lu.make_matrix(cfg)
    packed = lu.blocked_lu(a, block)
    l, u = lu.unpack_lu(packed)
    assert np.allclose(l @ u, a, atol=1e-8)
    # L unit-lower, U upper.
    assert np.allclose(np.triu(l, 1), 0)
    assert np.allclose(np.diag(l), 1)
    assert np.allclose(np.tril(u, -1), 0)


def test_blocked_lu_matches_unblocked():
    cfg = lu.LUConfig(n=24, block=4, processors=4, seed=3)
    a = lu.make_matrix(cfg)
    packed_small = lu.blocked_lu(a, 4)
    packed_big = lu.blocked_lu(a, 12)
    assert np.allclose(packed_small, packed_big, atol=1e-8)


def test_lu_grid_shape():
    assert lu.grid_shape(16) == (4, 4)
    assert lu.grid_shape(8) == (2, 4)
    assert lu.grid_shape(7) == (1, 7)


def test_lu_traces_structure():
    cfg = lu.LUConfig(n=32, block=8, processors=4)
    traces, info = lu.generate_traces(cfg, [0, 1, 2, 3])
    stats = trace_stats(traces)
    nb = cfg.nblocks
    assert info["nblocks"] == 4
    assert stats.barriers == nb * 3 * 4
    # Every matrix block is written at least once.
    written = {e[1] for t in traces.values() for e in t if e[0] == "W"}
    assert len(written) == nb * nb * cfg.cache_blocks_per_block


def test_lu_owner_is_2d_cyclic():
    assert lu.block_owner(0, 0, 2, 2) == 0
    assert lu.block_owner(0, 1, 2, 2) == 1
    assert lu.block_owner(1, 0, 2, 2) == 2
    assert lu.block_owner(2, 3, 2, 2) == 1


# ----------------------------------------------------------------------
# APSP numeric correctness
# ----------------------------------------------------------------------
def test_floyd_warshall_matches_scipy():
    cfg = apsp.APSPConfig(vertices=30, processors=4, seed=5)
    dist = apsp.random_graph(cfg)
    ours = apsp.floyd_warshall(dist)
    theirs = scipy.sparse.csgraph.shortest_path(
        np.where(np.isinf(dist), 0, dist), method="FW", directed=True)
    # scipy treats 0 as "no edge"; align by comparing reachable entries.
    assert np.allclose(np.where(np.isinf(ours), -1, ours),
                       np.where(np.isinf(theirs), -1, theirs))


def test_floyd_warshall_triangle_inequality():
    cfg = apsp.APSPConfig(vertices=20, processors=4, seed=8)
    d = apsp.floyd_warshall(apsp.random_graph(cfg))
    n = d.shape[0]
    for k in range(n):
        assert np.all(d <= d[:, k, None] + d[None, k, :] + 1e-9)


def test_apsp_traces_structure():
    cfg = apsp.APSPConfig(vertices=16, processors=4)
    traces, info = apsp.generate_traces(cfg, [0, 1, 2, 3])
    stats = trace_stats(traces)
    assert stats.barriers == cfg.vertices * 4
    assert info["blocks_per_row"] == blocks_for_bytes(
        16 * cfg.elem_bytes, cfg.cache_block_bytes)
    # The pivot row of each step is read by every processor.
    reads_of_row0 = sum(
        1 for t in traces.values() for e in t
        if e[0] == "R" and e[1] in range(info["blocks_per_row"]))
    assert reads_of_row0 >= 4  # step k=0: all four read row 0


def test_apsp_row_owner_cyclic():
    assert [apsp.row_owner(r, 4) for r in range(6)] == [0, 1, 2, 3, 0, 1]


def test_config_validation():
    with pytest.raises(ValueError):
        barnes_hut.BHConfig(bodies=1)
    with pytest.raises(ValueError):
        barnes_hut.BHConfig(bodies=8, processors=9)
    with pytest.raises(ValueError):
        lu.LUConfig(n=30, block=8)
    with pytest.raises(ValueError):
        apsp.APSPConfig(vertices=1)
    with pytest.raises(ValueError):
        apsp.APSPConfig(edge_probability=0.0)
