"""E13 — ablations of the paper's design choices.

Three knobs DESIGN.md calls out:

1. **Consumption channels** (paper cites [2, 39]): multidestination worms
   hold a consumption channel at every intermediate destination, so a
   single channel serializes concurrent multicasts through shared
   sharers and risks deadlock; four guarantee deadlock freedom on a 2-D
   mesh and also relieve hot-spots.
2. **Deferred delivery** [36]: a blocked i-gather worm that cannot pick
   up its ack parks in the i-ack buffer's message field instead of
   holding channels across the network.
3. **Header encoding**: bit-string presence-bit headers are fixed-size;
   destination-list headers grow with the destination count and
   therefore cost more flit-hops for large groups.
"""

import numpy as np
from conftest import run_once

from repro.analysis import format_table, plan_traffic
from repro.config import paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork
from repro.network.topology import Mesh2D
from repro.sim import Simulator
from repro.workloads.patterns import pattern_column_clustered


def _concurrent_multicast(consumption_channels: int, scheme: str,
                          rounds: int = 4, concurrent: int = 5,
                          degree: int = 8) -> dict:
    from repro.sim.engine import SimulationError

    params = paper_parameters(8, consumption_channels=consumption_channels)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 50_000
    engine = InvalidationEngine(sim, net, params)
    rng = np.random.default_rng(41)
    latencies = []
    deadlocked = False
    try:
        for _ in range(rounds):
            states = [engine.execute(build_plan(
                scheme, net.mesh,
                *(lambda p: (p.home, p.sharers))(
                    pattern_column_clustered(net.mesh, degree, rng))))
                for _ in range(concurrent)]
            for st in states:
                latencies.append(
                    sim.run_until_event(st.done, limit=50_000_000).latency)
    except SimulationError:
        # With too few consumption channels, multicast worms crossing in
        # opposite directions hold-and-wait on each other's channels:
        # the deadlock [39] proves four channels prevent on a 2-D mesh.
        deadlocked = True
    return {
        "consumption_channels": consumption_channels,
        "deadlocked": deadlocked,
        "mi_ua_latency": (float(np.mean(latencies))
                          if latencies else float("inf")),
    }


def test_ablation_consumption_channels(benchmark, scale):
    rows = run_once(benchmark, lambda: [
        _concurrent_multicast(n, "mi-ua-ec") for n in (1, 2, 4)])
    print()
    print(format_table(rows, title="E13a: consumption channels under "
                                   "concurrent multicasts"))
    by = {r["consumption_channels"]: r for r in rows}
    for k, r in by.items():
        benchmark.extra_info[f"cc{k}"] = r["mi_ua_latency"]
        benchmark.extra_info[f"cc{k}_deadlock"] = r["deadlocked"]
    # One channel can deadlock crossing multicasts outright; four (the
    # bound from [39]) never do and are at least as fast as two.
    assert not by[4]["deadlocked"]
    assert by[1]["deadlocked"] or \
        by[1]["mi_ua_latency"] >= by[4]["mi_ua_latency"]
    assert not by[2]["deadlocked"] and \
        by[2]["mi_ua_latency"] >= by[4]["mi_ua_latency"]


def test_ablation_deferred_delivery(benchmark, scale):
    def run(deferred: bool) -> dict:
        params = paper_parameters(8, deferred_delivery=deferred)
        sim = Simulator()
        net = MeshNetwork(sim, params, "ecube")
        engine = InvalidationEngine(sim, net, params)
        rng = np.random.default_rng(43)
        latencies = []
        for _ in range(6):
            pats = [pattern_column_clustered(net.mesh, 10, rng)
                    for _ in range(4)]
            states = [engine.execute(build_plan(
                "mi-ma-ec", net.mesh, p.home, p.sharers)) for p in pats]
            for st in states:
                latencies.append(
                    sim.run_until_event(st.done, limit=50_000_000).latency)
        parks = sum(i.iack.parks for i in net.interfaces)
        return {"deferred_delivery": deferred,
                "mean_latency": float(np.mean(latencies)),
                "p95_latency": float(np.percentile(latencies, 95)),
                "parks": parks}

    rows = run_once(benchmark, lambda: [run(True), run(False)])
    print()
    print(format_table(rows, title="E13b: virtual cut-through deferred "
                                   "delivery for blocked i-gathers"))
    deferred, blocking = rows
    benchmark.extra_info["deferred"] = deferred["mean_latency"]
    benchmark.extra_info["blocking"] = blocking["mean_latency"]
    # Parking only helps when gathers actually overtake deposits; it must
    # never *hurt* and must be exercised.
    assert deferred["parks"] > 0
    assert deferred["mean_latency"] <= blocking["mean_latency"] * 1.05


def test_ablation_header_encoding(benchmark, scale):
    mesh = Mesh2D(8, 8)
    params_bits = paper_parameters(8, multidest_encoding="bitstring")
    params_list = paper_parameters(8, multidest_encoding="list")
    rng = np.random.default_rng(47)

    def traffic_for(degree):
        pat = pattern_column_clustered(mesh, degree, rng)
        plan = build_plan("mi-ua-ec", mesh, pat.home, pat.sharers)
        return {
            "degree": degree,
            "bitstring_flit_hops": plan_traffic(plan, params_bits, mesh),
            "list_flit_hops": plan_traffic(plan, params_list, mesh),
        }

    rows = run_once(benchmark,
                    lambda: [traffic_for(d) for d in (2, 6, 10, 14)])
    print()
    print(format_table(rows, title="E13c: multidestination header "
                                   "encoding (traffic)"))
    # Fixed bit-string headers win for large groups; for tiny groups the
    # list header (0-1 extra flits) can be cheaper.
    big = rows[-1]
    assert big["bitstring_flit_hops"] < big["list_flit_hops"]
    small = rows[0]
    assert small["list_flit_hops"] <= small["bitstring_flit_hops"]
