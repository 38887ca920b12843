"""E11 — the SCI-style chained worm vs multidestination schemes.

The paper discusses (and rejects) the SCI approach [11] where a single
worm waits at every sharer for the local invalidation before moving on:
the invalidations become fully serialized along the chain.  Expected
shape: the chain's latency grows linearly in the number of sharers per
chain with slope >= the local invalidation time, while MI-UA overlaps
the invalidations and stays far flatter.
"""

from conftest import run_once

from repro.analysis import format_table, run_invalidation_sweep
from repro.chaos import generate_scenario, run_scenario
from repro.config import paper_parameters
from repro.runner import Job, run_jobs


def test_fig_sci_chain_serialization(benchmark, scale):
    params = paper_parameters(8)
    # Sharers live in two mesh columns (<= 2*height - 1 candidates).
    degrees = [2, 4, 6, 8] if scale == "ci" else [2, 4, 8, 12, 14]
    # Single-column sharers: one chain covers all of them, making the
    # serialization maximally visible.
    rows = run_once(benchmark, lambda: run_invalidation_sweep(
        ["sci-chain", "mi-ua-ec", "mi-ma-ec"], degrees, per_degree=6,
        params=params, seed=29, kind="column"))
    print()
    print(format_table(
        rows, columns=["scheme", "degree", "latency", "messages"],
        title="E11: chained worm vs multidestination "
              "(column-clustered sharers)"))
    by = {(r["scheme"], r["degree"]): r for r in rows}
    top = degrees[-1]
    benchmark.extra_info["chain_at_top"] = by[("sci-chain", top)]["latency"]
    benchmark.extra_info["mi_ua_at_top"] = by[("mi-ua-ec", top)]["latency"]
    # The chain serializes: it loses to MI-UA at high per-chain degree.
    assert by[("sci-chain", top)]["latency"] \
        > by[("mi-ua-ec", top)]["latency"]
    # Chain latency growth per added sharer is at least the local
    # invalidation cost (each stop gates the worm).
    growth = (by[("sci-chain", top)]["latency"]
              - by[("sci-chain", degrees[0])]["latency"]) / (top - degrees[0])
    p = params
    assert growth >= p.cache_invalidate


def test_sci_chain_chaos_soak(benchmark):
    """The chaos generator never draws sci-chain, so soak it here: full
    generator seeds 0-39 (fault storms, 6x6 and 8x4 meshes, capacity
    pressure, limited-pointer directories) re-run under the chained
    worm must all pass at full audit."""
    jobs = [Job(fn=run_scenario,
                args=(generate_scenario(seed).evolve(scheme="sci-chain"),
                      "full"),
                label=f"sci-chain:seed{seed}") for seed in range(40)]
    results = run_once(benchmark, lambda: run_jobs(jobs, workers=0))
    failed = [(r.scenario.seed, r.signature, r.message[:200])
              for r in results if not r.ok]
    benchmark.extra_info["expected_failures"] = sum(
        r.expected_failures for r in results)
    assert not failed, failed
