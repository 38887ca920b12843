"""Analytical model and experiment harness tests — including the
cross-validation of the closed-form estimates against the simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (estimate_latency, format_table,
                            miss_latency_micro, plan_home_occupancy,
                            plan_message_count, plan_traffic,
                            read_miss_breakdown, rows_to_markdown,
                            run_invalidation_sweep)
from repro.analysis.experiments import (run_analytical_sweep,
                                        run_application_experiment)
from repro.config import paper_parameters
from repro.core import InvalidationEngine, SCHEMES, build_plan
from repro.network import MeshNetwork
from repro.network.topology import Mesh2D
from repro.sim import Simulator


MESH = Mesh2D(8, 8)
PARAMS = paper_parameters(8)


def simulate_once(scheme, home, sharers, params=PARAMS):
    sim = Simulator()
    net = MeshNetwork(sim, params, SCHEMES[scheme][1])
    engine = InvalidationEngine(sim, net, params)
    plan = build_plan(scheme, net.mesh, home, sharers)
    return engine.run(plan, limit=5_000_000), plan


# ----------------------------------------------------------------------
# Exact measures: message count and traffic match the simulator
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=10),
       st.sampled_from(sorted(SCHEMES)))
def test_message_count_and_traffic_exact(home, sharer_set, scheme):
    sharer_set.discard(home)
    if not sharer_set:
        return
    record, plan = simulate_once(scheme, home, sorted(sharer_set))
    assert record.total_messages == plan_message_count(plan)
    assert record.flit_hops == plan_traffic(plan, PARAMS, MESH)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("width, height", [(2, 2), (4, 4), (5, 3), (8, 8)])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_home_occupancy_exact(width, height, scheme, data):
    """The idle-network simulator's home occupancy (messages sent plus
    received at the home) equals the closed form for every scheme."""
    nodes = width * height
    home = data.draw(st.integers(0, nodes - 1))
    others = [n for n in range(nodes) if n != home]
    sharers = data.draw(st.lists(st.sampled_from(others), min_size=1,
                                 max_size=12, unique=True))
    record, plan = simulate_once(scheme, home, sorted(sharers),
                                 paper_parameters(width, height))
    assert record.home_occupancy == plan_home_occupancy(plan)


# ----------------------------------------------------------------------
# Latency estimate tracks the idle-network simulator
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=10),
       st.sampled_from(sorted(SCHEMES)))
def test_latency_estimate_tracks_simulator(home, sharer_set, scheme):
    sharer_set.discard(home)
    if not sharer_set:
        return
    record, plan = simulate_once(scheme, home, sorted(sharer_set))
    estimate = estimate_latency(plan, PARAMS, MESH)
    # The estimate is contention-free: expect it slightly below (or, for
    # the approximated gather waits, slightly above) the simulation.
    assert abs(estimate - record.latency) <= 0.25 * record.latency + 30, \
        (scheme, home, sorted(sharer_set), estimate, record.latency)


def test_empty_plan_estimates_zero():
    plan = build_plan("ui-ua", MESH, 0, [])
    assert estimate_latency(plan, PARAMS, MESH) == 0
    assert plan_message_count(plan) == 0
    assert plan_traffic(plan, PARAMS, MESH) == 0


def test_ui_ua_message_count_closed_form():
    plan = build_plan("ui-ua", MESH, 0, [1, 2, 3, 4, 5])
    assert plan_message_count(plan) == 10  # 2d
    assert plan_home_occupancy(plan) == 10  # d sent + d received


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_invalidation_sweep_shapes():
    rows = run_invalidation_sweep(["ui-ua", "mi-ma-ec"], [2, 8],
                                  per_degree=3, params=PARAMS, seed=1)
    assert len(rows) == 4
    by = {(r["scheme"], r["degree"]): r for r in rows}
    # Latency grows with degree for the unicast baseline.
    assert by[("ui-ua", 8)]["latency"] > by[("ui-ua", 2)]["latency"]
    # The paper's headline: at high degree the MA scheme beats UI-UA in
    # occupancy and messages.
    assert (by[("mi-ma-ec", 8)]["home_occupancy"]
            < by[("ui-ua", 8)]["home_occupancy"])
    assert by[("mi-ma-ec", 8)]["messages"] < by[("ui-ua", 8)]["messages"]


def test_analytical_sweep_matches_sweep_shape():
    sim_rows = run_invalidation_sweep(["ui-ua"], [4, 16], per_degree=4,
                                      params=PARAMS, seed=2)
    ana_rows = run_analytical_sweep(["ui-ua"], [4, 16], per_degree=4,
                                    params=PARAMS, seed=2)
    for s, a in zip(sim_rows, ana_rows):
        assert s["scheme"] == a["scheme"] and s["degree"] == a["degree"]
        # Contention-free estimate: never far above the simulation, and
        # no more than ~30% below it even at the hot-spot degrees.
        assert a["latency"] <= s["latency"] * 1.10 + 10
        assert a["latency"] >= s["latency"] * 0.65
        assert a["messages"] == s["messages"]
        assert a["flit_hops"] == s["flit_hops"]
        assert a["home_occupancy"] == s["home_occupancy"]


# ----------------------------------------------------------------------
# Miss-latency tables
# ----------------------------------------------------------------------
def test_miss_latency_micro_rows():
    rows = miss_latency_micro(PARAMS)
    by = {r["transaction"]: r["cycles"] for r in rows}
    assert by["read miss, clean, neighbor home"] > 0
    # Dirty-remote costs more than clean; distance costs more than
    # neighbor; local is cheapest remote-free case.
    assert (by["read miss, dirty remote (recall)"]
            > by["read miss, clean, neighbor home"])
    assert (by["read miss, clean, average distance"]
            > by["read miss, clean, neighbor home"])
    assert (by["local read miss (home's own block)"]
            < by["read miss, clean, neighbor home"])
    assert by["upgrade, 4 sharers"] > by["upgrade, no other sharers"]


def test_read_miss_breakdown_model_matches_simulation():
    rows = read_miss_breakdown(PARAMS)
    model = next(r for r in rows if r["component"] == "TOTAL (model)")
    sim = next(r for r in rows if r["component"] == "TOTAL (simulated)")
    assert sim["cycles"] == pytest.approx(model["cycles"], rel=0.05)
    # Comparable to the DASH-class latencies the paper cites: a clean
    # neighbor read miss lands around 100-200 ns-scale 5 ns cycles.
    assert 60 <= sim["cycles"] <= 250


# ----------------------------------------------------------------------
# Application experiment runner
# ----------------------------------------------------------------------
def test_run_application_experiment_small():
    from repro.workloads.apsp import APSPConfig
    row = run_application_experiment(
        "apsp", "mi-ua-ec", params=paper_parameters(4),
        app_config=APSPConfig(vertices=12, processors=8))
    assert row["app"] == "apsp"
    assert row["execution_cycles"] > 0
    assert row["invalidations"] > 0
    assert row["inval_transactions"] > 0
    assert row["inval_latency"] > 0
    assert row["avg_sharers"] == pytest.approx(
        row["invalidations"] / row["inval_transactions"])


def test_application_row_tallies_invalidation_records():
    """The row's transaction count and mean latency are those of the
    engine's records for the same (deterministic) run."""
    from repro.coherence.processor import run_program
    from repro.coherence.system import DSMSystem
    from repro.workloads import apsp
    config = apsp.APSPConfig(vertices=12, processors=8)
    params = paper_parameters(4)
    row = run_application_experiment("apsp", "mi-ua-ec", params=params,
                                     app_config=config)
    traces, _ = apsp.generate_traces(config, list(range(8)))
    sim = Simulator()
    system = DSMSystem(sim, params, "mi-ua-ec")
    run_program(system, traces, limit=200_000_000)
    latencies = [rec.latency for rec in system.engine.records]
    assert latencies
    assert row["inval_transactions"] == len(latencies)
    assert row["inval_latency"] == pytest.approx(
        sum(latencies) / len(latencies))


def test_run_application_experiment_validates():
    from repro.workloads.apsp import APSPConfig
    with pytest.raises(ValueError, match="unknown app"):
        run_application_experiment("doom", "ui-ua")
    with pytest.raises(ValueError, match="exceed"):
        run_application_experiment(
            "apsp", "ui-ua", params=paper_parameters(2),
            app_config=APSPConfig(vertices=12, processors=8))


# ----------------------------------------------------------------------
# Table formatting
# ----------------------------------------------------------------------
def test_format_table_and_markdown():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
    text = format_table(rows, title="T")
    assert "T" in text and "2.50" in text and "10" in text
    md = rows_to_markdown(rows)
    assert md.startswith("| a | b |")
    assert "| 0.25 |" in md
    assert format_table([], title="X").endswith("(no rows)")
    assert rows_to_markdown([]) == "(no rows)"
