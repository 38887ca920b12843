#!/usr/bin/env python
"""i-ack buffer sensitivity under concurrent invalidations.

The paper proposes a *small* set of i-ack buffers (2-4) per router
interface.  This example runs batches of concurrent MI-MA transactions
(different homes, overlapping sharer regions) and sweeps the buffer
count: with one buffer, i-reserve worms stall waiting for free entries
and blocked i-gathers cannot park; a handful suffices.

Run:  python examples/iack_buffer_ablation.py
"""

import numpy as np

from repro.analysis import format_table
from repro.config import paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.network import MeshNetwork
from repro.sim import Simulator
from repro.workloads.patterns import pattern_column_clustered


def run_batch(iack_buffers: int, concurrent: int = 6, batches: int = 4,
              degree: int = 10, seed: int = 3) -> dict:
    params = paper_parameters(8, iack_buffers=iack_buffers)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    engine = InvalidationEngine(sim, net, params)
    rng = np.random.default_rng(seed)
    latencies = []
    for _ in range(batches):
        states = []
        for _ in range(concurrent):
            pattern = pattern_column_clustered(net.mesh, degree, rng)
            plan = build_plan("mi-ma-ec", net.mesh, pattern.home,
                              pattern.sharers)
            states.append(engine.execute(plan))
        for st in states:
            record = sim.run_until_event(st.done, limit=20_000_000)
            latencies.append(record.latency)
    blocked = sum(i.iack.reserve_blocked for i in net.interfaces)
    parks = sum(i.iack.parks for i in net.interfaces)
    return {
        "iack_buffers": iack_buffers,
        "mean_latency": float(np.mean(latencies)),
        "max_latency": int(np.max(latencies)),
        "reserve_blocked_cycles": blocked,
        "gather_parks": parks,
    }


def main():
    rows = [run_batch(n) for n in (1, 2, 4, 8)]
    print(format_table(
        rows, title="MI-MA-EC under 6 concurrent transactions, "
                    "degree 10, column-clustered sharers (8x8 mesh)"))
    one, two = rows[0]["mean_latency"], rows[1]["mean_latency"]
    print(f"\nGoing from 1 to 2 buffers cuts mean latency by "
          f"{(one - two) / one * 100:.1f}%; beyond 4 the return "
          f"vanishes — matching the paper's 2-4 buffer recommendation.")


if __name__ == "__main__":
    main()
