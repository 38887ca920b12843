#!/usr/bin/env python
"""Reproducible performance harness for the cycle engine.

Runs a registry of figure workloads (mirroring the ``bench_fig_*``
suite at CI scale) in parallel worker processes and emits
``BENCH_perf.json`` at the repo root with, per workload:

* wall-clock seconds,
* network cycles simulated (stepped + skipped) and cycles/second,
* simulator callbacks dispatched (``Simulator.dispatched``) and
  dispatched/second,
* the aggregated per-phase counters (:meth:`MeshNetwork.phase_counters`),
* a SHA-256 digest of the workload's full numeric output.

Two gates make the run exit non-zero: every workload must be
run-to-run deterministic, and its digest, cycles and dispatch count
must equal the committed :data:`BASELINE` for the scale (values every
kernel the repository has had agreed on).  ``fig_iack_stall`` must also
skip at least its pinned number of stalled cycles.

It also records a **parallel-scaling** section: the representative
sweep timed at ``jobs=1`` vs ``jobs=N`` through
:func:`repro.runner.run_jobs` (the shared process-pool scheduler every
sweep entry point uses), plus a cold-vs-warm result-cache replay — all
paths must digest-match (``parallel.deterministic_match``).  With fewer
than two CPUs the jobs=N timing is skipped and ``parallel_speedup`` is
null: one CPU cannot show a speedup.

Usage::

    PYTHONPATH=src python benchmarks/harness.py            # full run
    PYTHONPATH=src python benchmarks/harness.py --smoke    # CI smoke

``--smoke`` shrinks every workload so the whole harness finishes in
well under a minute; CI runs it on every push and uploads the JSON as
an artifact.  The bit-exactness proof over raw ``TransactionRecord``
streams against the reference kernel lives in
``tests/test_golden_kernel.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:  # allow `python benchmarks/harness.py` directly
    sys.path.insert(0, _SRC)

#: The workload the acceptance criteria are judged on.
REPRESENTATIVE = "fig_latency_vs_sharing"

#: Committed baseline per scale and workload: output digest, simulated
#: cycles (stepped + skipped) and ``Simulator.dispatched``.  The object
#: kernels and the cycle-skipping one all produced these values.
BASELINE = {
    "smoke": {
        "fig_latency_vs_sharing": (
            "1c83679d37ef854f35564bf3a22b33c886026e420b5f0a3e2c69c4c5fb17d98e",
            1_841, 2_855),
        "fig_column_traffic": (
            "3bf471a9e4511deeac029610b38674a8a4656b85abe74c87e278bc1bd9be2548",
            719, 1_058),
        "fig_iack_buffers": (
            "9a624f1236e3cc3b2ddb25da81e9f1b403d12fa52b5568cedd9a0f3f23135226",
            280, 544),
        "fig_iack_stall": (
            "dfeb724af9616f7c525f0c2f1fe9926b02c47d840ca6aac347eff7169668d6f4",
            12_294, 12_318),
    },
    "ci": {
        "fig_latency_vs_sharing": (
            "d92fa1c1474a06400b254f32f169d006fc7fa6a832f5435eb189e1e492f1b078",
            32_890, 56_366),
        "fig_column_traffic": (
            "0efb78e57acbeb0b28d830625462282c563d5d49d32bff77050e995f3c089ffc",
            5_183, 8_442),
        "fig_iack_buffers": (
            "e4d97d847a2db6a7949ab268e34a86597a888ec14b666c2ae7b55a3a9445e046",
            660, 1_970),
        "fig_iack_stall": (
            "2c7bc1a98c949add58f9e9779027875af35f09ca0f14eed5559e3baee4c279d6",
            121_176, 121_272),
    },
}

#: Stalled cycles ``fig_iack_stall`` must skip per scale (cycle
#: skipping's showcase: the i-ack wait windows).
MIN_SKIPPED = {"smoke": 11_886, "ci": 119_544}


# ----------------------------------------------------------------------
# Workload registry — each entry: fn(scale) -> digestible result
# ----------------------------------------------------------------------
def _wl_latency_vs_sharing(scale: str):
    """Figure E4 (the paper's central figure): latency vs sharing degree
    across all seven schemes — the representative workload."""
    from repro.analysis import run_invalidation_sweep
    from repro.config import paper_parameters

    if scale == "smoke":
        schemes = ["ui-ua", "mi-ua-ec", "mi-ma-ec"]
        degrees = [1, 4, 8]
        per = 2
    else:
        schemes = ["ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec",
                   "mi-ma-ec", "mi-ma-ec-u", "mi-ma-tm"]
        degrees = [1, 2, 4, 8, 16, 32]
        per = 5
    # Cache off: a timing run must simulate, never replay.
    return run_invalidation_sweep(schemes, degrees, per_degree=per,
                                  params=paper_parameters(8), seed=11,
                                  use_cache=False)


def _wl_column_traffic(scale: str):
    """Figure E6-style column-clustered sweep (dense BRCP chains)."""
    from repro.analysis import run_invalidation_sweep
    from repro.config import paper_parameters

    schemes = ["ui-ua", "mi-ua-ec", "mi-ma-ec"]
    degrees = [2, 8] if scale == "smoke" else [2, 8, 16]
    per = 1 if scale == "smoke" else 4
    return run_invalidation_sweep(schemes, degrees, per_degree=per,
                                  params=paper_parameters(8), kind="column",
                                  seed=7, use_cache=False)


def _wl_iack_buffers(scale: str):
    """Figure E7-style i-ack buffer sensitivity: concurrent MI-MA
    transactions contending for reservation entries."""
    import numpy as np

    from repro.config import paper_parameters
    from repro.core import InvalidationEngine, build_plan
    from repro.network import MeshNetwork
    from repro.sim import Simulator
    from repro.workloads.patterns import pattern_column_clustered

    concurrent, batches, degree = (2, 1, 6) if scale == "smoke" \
        else (4, 2, 10)
    rows = []
    for iack_buffers in (2, 4):
        params = paper_parameters(8, iack_buffers=iack_buffers)
        sim = Simulator()
        net = MeshNetwork(sim, params, "ecube")
        engine = InvalidationEngine(sim, net, params)
        rng = np.random.default_rng(5)
        latencies = []
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
        rows.append({"iack_buffers": iack_buffers,
                     "latencies": latencies,
                     "reserve_blocked": sum(
                         iface.iack.reserve_blocked
                         for iface in net.interfaces)})
    return rows


def _wl_iack_stall(scale: str):
    """I-ack deposit stall windows: gather worms waiting out slow local
    invalidations (the paper's i-ack buffer protocol, section 5).  The
    network idles at a stalled fixed point for thousands of cycles per
    round — the case cycle skipping targets."""
    from repro.config import paper_parameters
    from repro.network import MeshNetwork, Worm, WormKind
    from repro.sim import Simulator

    rounds, delay = (6, 2_000) if scale == "smoke" else (24, 5_000)
    params = paper_parameters(8, deferred_delivery=False)
    sim = Simulator()
    net = MeshNetwork(sim, params, "ecube")
    net.deadlock_threshold = 10 * delay
    mesh = net.mesh
    home = mesh.node_at(2, 0)
    s1, s2 = mesh.node_at(2, 3), mesh.node_at(2, 6)
    results = []

    def deliver(node, worm, final):
        if worm.kind is WormKind.IRESERVE and node == s2:
            # Reservation placed; the gather sweep starts while s1's
            # local invalidation (the deposit) is still `delay` away.
            net.inject(Worm(kind=WormKind.IGATHER, src=s2,
                            dests=(s1, home), size_flits=4, vnet=1,
                            txn=worm.txn, acks_carried=1))
            sim.call_after(delay, lambda t=worm.txn:
                           net.deposit_ack(s1, (t, 0)))
        elif worm.kind is WormKind.IGATHER and final:
            results.append((worm.txn, sim.now, worm.acks_carried))

    net.on_deliver = deliver
    for r in range(rounds):
        net.inject(Worm(kind=WormKind.IRESERVE, src=home,
                        dests=(s1, s2), size_flits=6, txn=f"stall-{r}"))
        while len(results) <= r:
            assert sim.peek() is not None
            sim.run(max_events=1)
        # Release the round's leftover reservation at the gather
        # launcher (the engine's retirement path in a full run).
        net.purge_txn(f"stall-{r}")
    return results


WORKLOADS = {
    "fig_latency_vs_sharing": _wl_latency_vs_sharing,
    "fig_column_traffic": _wl_column_traffic,
    "fig_iack_buffers": _wl_iack_buffers,
    "fig_iack_stall": _wl_iack_stall,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _digest(result) -> str:
    """Order-stable SHA-256 of a workload's full numeric output."""
    if isinstance(result, list):
        canonical = [sorted(r.items()) if isinstance(r, dict) else r
                     for r in result]
    else:
        canonical = result
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def run_workload(name: str, scale: str) -> dict:
    """Run one workload, capturing timing, simulator throughput,
    per-phase counters, and the output digest."""
    from repro.network import network as network_mod

    networks: list = []
    network_mod.PROFILE_REGISTRY = networks
    start = time.perf_counter()
    try:
        result = WORKLOADS[name](scale)
    finally:
        network_mod.PROFILE_REGISTRY = None
    wall = time.perf_counter() - start

    # Stepped + skipped is the simulated-cycle total (the network jumps
    # the clock over stalled windows).
    cycles = sum(net.cycles_stepped + net.cycles_skipped
                 for net in networks)
    sims = {id(net.sim): net.sim for net in networks}
    dispatched = sum(sim.dispatched for sim in sims.values())
    counters: dict = {}
    for net in networks:
        for key, value in net.phase_counters().items():
            if key == "busy_sort_rate":
                continue
            counters[key] = counters.get(key, 0) + value
    return {
        "wall_s": round(wall, 4),
        "cycles": cycles,
        "cycles_per_s": round(cycles / wall) if wall > 0 else None,
        "dispatched": dispatched,
        "dispatched_per_s": round(dispatched / wall) if wall > 0 else None,
        "networks": len(networks),
        "counters": counters,
        "digest": _digest(result),
    }


def baseline_problems(name: str, scale: str, run: dict) -> list[str]:
    """How ``run`` departs from the committed baseline (empty = none)."""
    digest, cycles, dispatched = BASELINE[scale][name]
    problems = [f"{key} {run[key]} != pinned {want}"
                for key, want in (("digest", digest), ("cycles", cycles),
                                  ("dispatched", dispatched))
                if run[key] != want]
    skipped = run["counters"]["cycles_skipped"]
    floor = MIN_SKIPPED[scale] if name == "fig_iack_stall" else 0
    if skipped < floor:
        problems.append(f"skipped {skipped} cycles < pinned {floor}")
    return problems


def bench_one(name: str, scale: str, repeats: int = 1) -> dict:
    """Worker entry: run ``name`` in this process.

    With ``repeats > 1`` the workload runs several times and the best
    (minimum) wall time is kept — the standard way to damp scheduler and
    cache noise.  Digests must agree across repeats, and the run must
    match the committed baseline (``pinned_match``; ``problems`` lists
    any departure).
    """
    runs = [run_workload(name, scale) for _ in range(max(1, repeats))]
    entry = min(runs, key=lambda r: r["wall_s"])
    entry["repeats"] = len(runs)
    entry["deterministic_match"] = len({r["digest"] for r in runs}) == 1
    entry["problems"] = baseline_problems(name, scale, entry)
    entry["pinned_match"] = not entry["problems"]
    return {"workload": name, **entry}


# ----------------------------------------------------------------------
# Parallel sweep scaling + result-cache replay (the `parallel` section)
# ----------------------------------------------------------------------
def bench_parallel(scale: str, parallel_jobs: int = 0,
                   measure_cache: bool = True) -> dict:
    """Time the representative sweep serial vs parallel vs cached.

    Four runs of the *same* config through the shared scheduler:
    ``jobs=1`` (serial), ``jobs=N`` (process pool), a cold cached run
    (simulate + store, into a throwaway cache root), and a warm replay
    (pure cache hits).  All merged row streams must digest-match;
    wall-clock ratios land in ``BENCH_perf.json["parallel"]``.  With
    fewer than two CPUs the ``jobs=N`` run is skipped: its ratio would
    measure pool overhead, not scaling.
    """
    from repro.analysis.experiments import run_invalidation_sweep
    from repro.config import paper_parameters
    from repro.runner import ResultCache, resolve_jobs

    if scale == "smoke":
        schemes = ["ui-ua", "mi-ua-ec", "mi-ma-ec", "mi-ma-tm"]
        degrees = [2, 6]
        per = 2
    else:
        schemes = ["ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec",
                   "mi-ma-ec", "mi-ma-ec-u", "mi-ma-tm"]
        degrees = [1, 2, 4, 8, 16]
        per = 6  # chunky enough that pool startup can't mask scaling
    params = paper_parameters(8)
    jobs_n = resolve_jobs(parallel_jobs)

    def timed(**kwargs):
        start = time.perf_counter()
        rows = run_invalidation_sweep(schemes, degrees, per_degree=per,
                                      params=params, seed=11, **kwargs)
        return time.perf_counter() - start, _digest(rows)

    cpu_count = os.cpu_count() or 1
    serial_wall, serial_digest = timed(jobs=1, use_cache=False)
    digests = {serial_digest}
    section = {
        "cpu_count": cpu_count,
        "jobs": jobs_n,
        "sweep": {"schemes": schemes, "degrees": degrees,
                  "per_degree": per},
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": None,
        "parallel_speedup": None,
        "cache_measured": measure_cache,
    }
    if cpu_count < 2:
        section["parallel_note"] = (
            f"jobs={jobs_n} timing skipped: {cpu_count} CPU cannot show "
            f"a parallel speedup")
    else:
        parallel_wall, parallel_digest = timed(jobs=jobs_n,
                                               use_cache=False)
        digests.add(parallel_digest)
        section["parallel_wall_s"] = round(parallel_wall, 4)
        section["parallel_speedup"] = (
            round(serial_wall / parallel_wall, 3)
            if parallel_wall > 0 else None)
    if measure_cache:
        with tempfile.TemporaryDirectory(prefix="repro-cache-") as root:
            cache = ResultCache(root)
            cold_wall, cold_digest = timed(jobs=1, use_cache=True,
                                           cache=cache)
            warm_wall, warm_digest = timed(jobs=1, use_cache=True,
                                           cache=cache)
            digests |= {cold_digest, warm_digest}
            section.update({
                "cache_cold_wall_s": round(cold_wall, 4),
                "cache_warm_wall_s": round(warm_wall, 4),
                "cache_replay_speedup": (round(cold_wall / warm_wall, 1)
                                         if warm_wall > 0 else None),
                "cache_entries": cache.info()["entries"],
                "cache_hits": cache.hits,
            })
            if cache.hits != len(schemes):
                raise RuntimeError(
                    f"warm cache replay hit {cache.hits}/{len(schemes)} "
                    f"jobs — the cache key is unstable across runs")
    section["deterministic_match"] = len(digests) == 1
    return section


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the figure workloads, check them against the "
                    "committed baseline, and emit BENCH_perf.json")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads for CI (seconds, not "
                             "minutes)")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT, "BENCH_perf.json"),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (default: one "
                             "per workload, capped at CPU count; also "
                             "the jobs=N width of the parallel-scaling "
                             "section)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of: "
                             + ", ".join(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per workload, best wall kept "
                             "(default: 3 full, 1 smoke)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the result-cache replay measurement "
                             "of the parallel-scaling section")
    parser.add_argument("--skip-parallel", action="store_true",
                        help="omit the parallel-scaling section "
                             "entirely (workload timings only)")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=None,
                        help="fail unless the jobs=N sweep speedup "
                             "reaches this factor (only enforced on "
                             "machines with >= 4 cores)")
    args = parser.parse_args(argv)

    names = list(WORKLOADS)
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; "
                         f"choose from {list(WORKLOADS)}")
    scale = "smoke" if args.smoke else "ci"
    jobs = args.jobs or min(len(names), os.cpu_count() or 1)
    repeats = args.repeats or (1 if args.smoke else 3)

    print(f"[harness] {len(names)} workload(s), scale={scale}, "
          f"jobs={jobs}, repeats={repeats}")
    started = time.perf_counter()
    # Workload timings fan out through the shared sweep scheduler; no
    # cache keys — a timing run is never replayed from disk.
    from repro.runner import Job, run_jobs
    entries = run_jobs([Job(fn=bench_one, args=(name, scale, repeats),
                            label=f"bench:{name}") for name in names],
                       workers=jobs)
    parallel = None
    if not args.skip_parallel:
        print("[harness] parallel-scaling section "
              "(serial vs pool vs cache replay)")
        parallel = bench_parallel(scale, parallel_jobs=args.jobs or 0,
                                  measure_cache=not args.no_cache)
    harness_wall = time.perf_counter() - started

    deterministic = pinned = True
    for entry in entries:
        deterministic = deterministic and entry["deterministic_match"]
        pinned = pinned and entry["pinned_match"]
        status = ("matches baseline" if entry["pinned_match"]
                  else "BASELINE MISMATCH: " + "; ".join(entry["problems"]))
        if not entry["deterministic_match"]:
            status = "NOT DETERMINISTIC; " + status
        print(f"[harness] {entry['workload']:<26} "
              f"{entry['wall_s']:7.3f}s  {entry['cycles']:>8} cycles "
              f"({entry['counters']['cycles_skipped']} skipped)  {status}")

    if parallel is not None:
        deterministic = deterministic and parallel["deterministic_match"]
        line = (f"[harness] parallel sweep: serial "
                f"{parallel['serial_wall_s']:.3f}s  ")
        if parallel["parallel_speedup"] is None:
            line += parallel.get("parallel_note", "no jobs=N timing")
        else:
            line += (f"jobs={parallel['jobs']} "
                     f"{parallel['parallel_wall_s']:.3f}s  speedup "
                     f"{parallel['parallel_speedup']:.2f}x")
        if parallel.get("cache_replay_speedup") is not None:
            line += (f"  warm-cache replay "
                     f"{parallel['cache_warm_wall_s']:.3f}s "
                     f"({parallel['cache_replay_speedup']:g}x)")
        print(line + ("  bit-identical"
                      if parallel["deterministic_match"]
                      else "  OUTPUT MISMATCH"))

    payload = {
        "schema": 4,
        "generated_by": "benchmarks/harness.py",
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "harness_wall_s": round(harness_wall, 3),
        "representative": REPRESENTATIVE,
        "all_deterministic": deterministic,
        "all_pinned": pinned,
        "workloads": {e.pop("workload"): e for e in entries},
        "parallel": parallel,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"[harness] wrote {args.out}")

    if not deterministic:
        print("[harness] FAIL: a workload output differed between runs",
              file=sys.stderr)
        return 1
    if not pinned:
        print("[harness] FAIL: a workload departed from the committed "
              "baseline", file=sys.stderr)
        return 1
    if (args.min_parallel_speedup is not None and parallel is not None
            and parallel["cpu_count"] >= 4
            and parallel["parallel_speedup"] < args.min_parallel_speedup):
        print(f"[harness] FAIL: parallel sweep speedup "
              f"{parallel['parallel_speedup']}x < "
              f"{args.min_parallel_speedup}x on "
              f"{parallel['cpu_count']} cores", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
