"""Figure E7 — sensitivity to the number of i-ack buffers.

The paper proposes 2-4 i-ack buffers per router interface.  Under
concurrent MI-MA transactions, a single buffer forces i-reserve worms to
stall for free entries; 2 buffers recover most of the loss and 4
saturate — reproducing the paper's sizing argument.
"""

import numpy as np
from conftest import run_once

from repro.analysis import format_table
from repro.config import paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork
from repro.sim import Simulator
from repro.workloads.patterns import pattern_column_clustered


def _run(iack_buffers: int, width: int, concurrent: int, batches: int,
         degree: int) -> dict:
    from repro.sim.engine import SimulationError

    params = paper_parameters(width, iack_buffers=iack_buffers)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 50_000
    engine = InvalidationEngine(sim, net, params)
    rng = np.random.default_rng(5)
    latencies = []
    deadlocked = False
    try:
        for _ in range(batches):
            states = []
            for _ in range(concurrent):
                pat = pattern_column_clustered(net.mesh, degree, rng)
                states.append(engine.execute(
                    build_plan("mi-ma-ec", net.mesh, pat.home,
                               pat.sharers)))
            for st in states:
                latencies.append(
                    sim.run_until_event(st.done, limit=50_000_000).latency)
    except SimulationError:
        # A single i-ack buffer can genuinely deadlock concurrent MI-MA
        # transactions (circular hold-and-wait on the last entry) — the
        # strongest form of the paper's "use 2-4 buffers" sizing advice.
        deadlocked = True
    return {
        "iack_buffers": iack_buffers,
        "deadlocked": deadlocked,
        "mean_latency": float(np.mean(latencies)) if latencies else float("inf"),
        "p95_latency": (float(np.percentile(latencies, 95))
                        if latencies else float("inf")),
        "reserve_blocked": sum(i.iack.reserve_blocked
                               for i in net.interfaces),
    }


def test_fig_iack_buffer_sensitivity(benchmark, scale):
    width = 8
    concurrent, batches, degree = (6, 4, 10) if scale == "ci" else (10, 8, 14)

    rows = run_once(benchmark, lambda: [
        _run(n, width, concurrent, batches, degree) for n in (1, 2, 4, 8)])
    print()
    print(format_table(rows, title=f"Fig E7: MI-MA latency vs i-ack "
                                   f"buffers ({concurrent} concurrent "
                                   f"transactions, degree {degree})"))
    by = {r["iack_buffers"]: r for r in rows}
    for n, r in by.items():
        benchmark.extra_info[f"buffers_{n}"] = r["mean_latency"]
        benchmark.extra_info[f"buffers_{n}_deadlock"] = r["deadlocked"]
    # One buffer hurts (possibly deadlocking outright); two recover most
    # of it; beyond four, nothing.
    assert by[1]["deadlocked"] or \
        by[1]["mean_latency"] > by[2]["mean_latency"]
    assert not by[2]["deadlocked"] and not by[4]["deadlocked"]
    assert by[1]["reserve_blocked"] > by[4]["reserve_blocked"]
    assert by[4]["mean_latency"] <= by[2]["mean_latency"] * 1.02
    assert abs(by[8]["mean_latency"] - by[4]["mean_latency"]) \
        <= 0.02 * by[4]["mean_latency"]
