"""The in-process workloads: fig-sweep, dsm-apps and atlas.

Each runs serially (``jobs=1``) in the benchmark process.  The timed
phase is a closed loop of *passes*; a pass is one unit of the workload
made through the program's public entry points, with a fresh result
cache root and a cold compiled-plan memo, as a fresh ``repro`` command
would see them.  Host time is the process's CPU time
(``time.process_time``) of the pass and of each call in it, which
leaves other tenants' run-queue waits out of the number, scaled to the
reference speed measured by :func:`common.reference_loop` next to
each pass.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager

from common import (DEFAULT_SEED, REFERENCE_LOOP_S, Metrics, cpu_s,
                    digest, median, nearest_rank, pinned_digests,
                    reference_loop)


class PassClock:
    """CPU time of each public call made during one pass."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, bool, float]] = []

    @contextmanager
    def call(self, label: str, simulates: bool):
        start = cpu_s()
        yield
        self.calls.append((label, simulates, cpu_s() - start))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class FigSweep:
    """Figure E4: invalidation latency vs sharing degree, all seven
    schemes, uniform sharers on an 8x8 mesh, one call per scheme
    curve.  Operation: one invalidation transaction."""

    name = "fig-sweep"
    SCHEMES = ("ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec", "mi-ma-ec",
               "mi-ma-ec-u", "mi-ma-tm")
    DEGREES = (1, 2, 4, 8, 16, 32)
    PER_DEGREE = 5

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.config import paper_parameters

        self.seed, self.tiny = seed, tiny
        self.params = paper_parameters(8)
        if tiny:
            self.SCHEMES, self.DEGREES, self.PER_DEGREE = \
                ("ui-ua", "mi-ma-ec"), (2, 8), 1
        self.ops_per_pass = (len(self.SCHEMES) * len(self.DEGREES)
                             * self.PER_DEGREE)

    def warm_up(self) -> None:
        from repro.analysis.experiments import run_invalidation_sweep

        run_invalidation_sweep(["ui-ua", "mi-ma-ec"], [2], per_degree=1,
                               params=self.params, seed=self.seed,
                               jobs=1, use_cache=True)

    def run_pass(self, clock: PassClock, out_dir: str) -> dict:
        from repro.analysis.experiments import run_invalidation_sweep

        rows: list[dict] = []
        for scheme in self.SCHEMES:
            with clock.call(scheme, True):
                rows += run_invalidation_sweep(
                    [scheme], self.DEGREES, per_degree=self.PER_DEGREE,
                    params=self.params, seed=self.seed, jobs=1,
                    use_cache=True)
        per = self.PER_DEGREE
        return {"rows": rows, "digest": digest(rows),
                "sim_cycles": sum(round(r["latency"] * per) for r in rows),
                "flit_hops": sum(round(r["flit_hops"] * per)
                                 for r in rows)}

    def check(self, out: dict) -> list[str]:
        """Independent oracle: on an idle network the simulated message
        counts and flit-hops equal the closed-form model's exactly."""
        from repro.analysis.experiments import run_analytical_sweep

        model = run_analytical_sweep(
            list(self.SCHEMES), self.DEGREES, per_degree=self.PER_DEGREE,
            params=self.params, seed=self.seed, jobs=1, use_cache=False)
        problems = []
        for sim, ref in zip(out["rows"], model):
            for key in ("messages", "flit_hops"):
                if sim[key] != ref[key]:
                    problems.append(f"{sim['scheme']} d={sim['degree']} "
                                    f"{key}: sim {sim[key]} != model "
                                    f"{ref[key]}")
        return problems


class DsmApps:
    """Table 6 / Fig E8 applications on the 4x4 DSM: APSP and
    Barnes-Hut under ui-ua and mi-ma-ec, LU under ui-ua.  Operation:
    one application run.

    APSP and LU traces do not depend on their seeds; Barnes-Hut's do
    (body positions shape the tree).  Barnes-Hut runs on 8 processors
    so it stays the cheapest call: the per-call median (LU) and slowest
    call (APSP) then do not jump with the seed."""

    name = "dsm-apps"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        import numpy as np

        from repro.config import paper_parameters
        from repro.workloads import apsp, barnes_hut, lu

        self.seed, self.tiny = seed, tiny
        self.params = paper_parameters(4)
        a, b, c = (int(s) for s in
                   np.random.SeedSequence(seed).generate_state(3))
        size = (6, 8, 16) if tiny else (14, 16, 24)
        self.runs = [
            ("apsp", apsp.APSPConfig(vertices=size[0], processors=16,
                                     seed=a), ("ui-ua", "mi-ma-ec")),
            ("barnes-hut", barnes_hut.BHConfig(bodies=size[1], steps=1,
                                               processors=8, seed=b),
             ("ui-ua", "mi-ma-ec")),
            ("lu", lu.LUConfig(n=size[2], block=8, processors=16,
                               seed=c), ("ui-ua",)),
        ]
        self.ops_per_pass = sum(len(s) for _, _, s in self.runs)

    def warm_up(self) -> None:
        from repro.analysis.experiments import run_application_experiment
        from repro.workloads import apsp, barnes_hut, lu

        for app, cfg in (("apsp", apsp.APSPConfig(vertices=4,
                                                  processors=4)),
                         ("barnes-hut", barnes_hut.BHConfig(
                             bodies=4, steps=1, processors=4)),
                         ("lu", lu.LUConfig(n=8, block=4, processors=4))):
            run_application_experiment(app, "mi-ma-ec", params=self.params,
                                       app_config=cfg)

    def run_pass(self, clock: PassClock, out_dir: str) -> dict:
        from repro.analysis.experiments import run_application_experiment

        rows = []
        for app, cfg, schemes in self.runs:
            for scheme in schemes:
                with clock.call(f"{app}/{scheme}", True):
                    rows.append(run_application_experiment(
                        app, scheme, params=self.params, app_config=cfg))
        return {"rows": rows, "digest": digest(rows),
                "sim_cycles": sum(r["execution_cycles"] for r in rows),
                "flit_hops": sum(r["flit_hops"] for r in rows)}

    def check(self, out: dict) -> list[str]:
        problems = []
        refs: dict[str, set] = {}
        for r in out["rows"]:
            refs.setdefault(r["app"], set()).add(r["references"])
            if r["app"] == "lu" and r["invalidations"]:
                problems.append("lu performed invalidations")
            if r["app"] != "lu" and not r["invalidations"]:
                problems.append(f"{r['app']}/{r['scheme']} performed "
                                f"no invalidations")
        for app, counts in refs.items():
            if len(counts) != 1:
                problems.append(f"{app}: reference counts differ across "
                                f"schemes {sorted(counts)}")
        return problems


class Atlas:
    """The ``repro atlas`` pipeline: screen -> calibrate -> refine ->
    build/write, on a grid sized so screening and plan compilation do
    most of the work.  Operation: one screened configuration."""

    name = "atlas"
    MESHES = ((4, 4), (8, 8), (8, 16), (16, 16))
    DEGREES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
    PER_DEGREE = 4
    AXES = {"multidest_encoding": ("bitstring", "list"),
            "consumption_channels": (1, 2, 4),
            "router_delay": (1, 2, 4),
            "send_overhead": (2, 4)}
    CALIBRATE_PER_SCHEME = 1
    #: Total simulated cells <= this share of the grid (calibration
    #: included), which leaves a handful of refinement cells.
    BUDGET_FRACTION = 0.0015
    #: Scalar cross-check sample size.
    CHECK_CELLS = 24

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.explore.grid import DEFAULT_SCHEMES, ScreenGrid

        self.seed, self.tiny = seed, tiny
        meshes, degrees = self.MESHES, self.DEGREES
        budget = self.BUDGET_FRACTION
        if tiny:
            meshes, degrees, budget = ((4, 4), (8, 8)), (1, 4, 8), 0.02
        self.budget = budget
        self.grid = ScreenGrid.make(
            meshes=meshes, degrees=degrees, per_degree=self.PER_DEGREE,
            schemes=DEFAULT_SCHEMES, seed=seed, axes=self.AXES)
        self.ops_per_pass = self.grid.n_configs

    def warm_up(self) -> None:
        from repro.explore.grid import ScreenGrid

        grid = ScreenGrid.make(meshes=((4, 4),), degrees=(2,),
                               per_degree=1, seed=self.seed,
                               axes={"router_delay": (1, 2)})
        self._pipeline(grid, PassClock(), None, 0.5)

    def _pipeline(self, grid, clock: PassClock, out_dir, budget) -> dict:
        from pathlib import Path

        from repro.explore.atlas import build_atlas, write_atlas
        from repro.explore.calibrate import calibrate
        from repro.explore.grid import screen
        from repro.explore.refine import refine
        from repro.explore.vectorized import clear_compile_cache

        clear_compile_cache()
        with clock.call("screen", False):
            result = screen(grid)
        # The calibration sample's strata seed stays fixed: --seed
        # changes the grid's sharer patterns only.
        with clock.call("calibrate", True):
            calib = calibrate(result, per_scheme=self.CALIBRATE_PER_SCHEME,
                              seed=0, jobs=1, use_cache=True)
        with clock.call("refine", True):
            refine(result, calib, budget_fraction=budget, max_rounds=2,
                   jobs=1, use_cache=True)
        with clock.call("build_atlas", False):
            atlas = build_atlas(result, calib)
            if out_dir is not None:
                write_atlas(atlas, Path(out_dir))
        return {"result": result, "calib": calib, "atlas": atlas}

    def run_pass(self, clock: PassClock, out_dir: str) -> dict:
        out = self._pipeline(self.grid, clock, out_dir, self.budget)
        result, per = out["result"], self.grid.per_degree
        # The modelled totals are those of the screened model the atlas
        # ranks: every analytical cell, not the small simulated sample.
        out.update(
            digest=self._atlas_digest(os.path.join(out_dir, "atlas.json")),
            sim_cycles=round(float(result.latency.sum()) * per),
            flit_hops=round(float(result.traffic.sum()) * per),
            sim_cells=len(out["calib"].samples))
        return out

    @staticmethod
    def _atlas_digest(path: str) -> str:
        """SHA-256 of the written atlas JSON minus its screening
        timings (elapsed and throughput figures change every run)."""
        import hashlib

        with open(path, encoding="utf-8") as fh:
            atlas = json.load(fh)
        stats = atlas["meta"]["screen_stats"]
        atlas["meta"]["screen_stats"] = {"n_configs": stats["n_configs"]}
        text = json.dumps(atlas, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, out: dict) -> list[str]:
        """Vectorized screen cells must equal the scalar model
        (``estimate_latency``/``plan_traffic``/``plan_message_count``
        via ``run_analytical_sweep``) exactly, on a seeded sample."""
        import numpy as np

        from repro.analysis.experiments import run_analytical_sweep

        result, grid = out["result"], self.grid
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(result), size=min(self.CHECK_CELLS,
                                                  len(result)),
                            replace=False)
        problems = []
        for i in sorted(int(c) for c in sample):
            w, h = int(result.mesh_w[i]), int(result.mesh_h[i])
            scheme = grid.schemes[result.scheme[i]]
            degree = int(result.degree[i])
            params = grid.params_for(w, h, **result.acombos[result.acombo[i]])
            ref = run_analytical_sweep([scheme], [degree],
                                       per_degree=grid.per_degree,
                                       params=params, kind=grid.kind,
                                       seed=grid.seed, jobs=1,
                                       use_cache=False)[0]
            got = {"latency": float(result.latency[i]),
                   "messages": float(result.messages[i]),
                   "flit_hops": float(result.traffic[i])}
            for key, value in got.items():
                if value != ref[key]:
                    problems.append(f"cell {i} ({scheme} {w}x{h} d={degree})"
                                    f" {key}: vectorized {value} != "
                                    f"scalar {ref[key]}")
        return problems


WORKLOADS = {w.name: w for w in (FigSweep, DsmApps, Atlas)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def setup(name: str, seed: int, rundir, tiny: bool = False):
    """Imports, input construction and warm-up (the ``setup_s`` span)."""
    from repro.runner.cache import code_fingerprint

    os.environ["REPRO_CACHE_DIR"] = rundir.fresh("warmup")
    code_fingerprint()
    workload = WORKLOADS[name](seed, tiny=tiny)
    workload.warm_up()
    gc.collect()
    return workload


def one_pass(workload, rundir) -> tuple[dict, PassClock, float, float]:
    """One pass with a fresh cache root; returns (output, per-call
    clock, raw CPU seconds, wall seconds)."""
    root = rundir.fresh("pass")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(root, "cache")
    clock = PassClock()
    wall = time.perf_counter()
    start = cpu_s()
    out = workload.run_pass(clock, os.path.join(root, "out"))
    elapsed = cpu_s() - start
    wall = time.perf_counter() - wall
    return out, clock, elapsed, wall


def timed_passes(workload, rundir, seconds: float, min_passes: int,
                 on_pass=None) -> list:
    """Closed loop of passes for ``seconds`` of wall time (at least
    ``min_passes``).  Between passes, outside the timed region, garbage
    is collected and the reference loop runs; each record ends with the
    pass's speed scale ``REFERENCE_LOOP_S / loop`` (the mean of the
    loops just before and after it)."""
    passes = []
    gc.collect()
    loop = reference_loop()
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if passes:      # keep one full output, for the checks
            passes[-1] = (_light(passes[-1][0]), *passes[-1][1:])
        record = one_pass(workload, rundir)
        if on_pass is not None:
            on_pass(record)
        gc.collect()
        after = reference_loop()
        passes.append((*record, 2 * REFERENCE_LOOP_S / (loop + after)))
        loop = after
    return passes


def _light(out: dict) -> dict:
    """A pass output without its result objects, so the memory a run
    holds (and its peak RSS) does not grow with the pass count."""
    return {key: out[key] for key in ("digest", "sim_cycles", "flit_hops")}


def verify(workload, passes, rundir) -> list[str]:
    """Output checks: every pass identical, the workload's oracle, and
    the pinned digest of the default seed's output."""
    problems = []
    digests = {out["digest"] for out, *_ in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree: {sorted(digests)}")
    problems += workload.check(passes[-1][0])      # the full output
    key = workload.name + ("/tiny" if workload.tiny else "")
    pinned = pinned_digests().get(key)
    if workload.seed == DEFAULT_SEED:
        reference = passes[0][0]["digest"]
    else:
        ref_workload = type(workload)(DEFAULT_SEED, tiny=workload.tiny)
        reference = one_pass(ref_workload, rundir)[0]["digest"]
    print(f"default-seed digest: {reference}")
    if reference != pinned:
        problems.append(f"default-seed digest {reference} != pinned "
                        f"{pinned}")
    return problems


def end_to_end(workload, passes, metrics: Metrics) -> None:
    """The end-to-end metrics of an untraced run, in CPU time at the
    reference speed.  Call quantiles are taken per pass (nearest rank)
    and reported as the median over passes, so one slow stretch of the
    host moves them little."""
    cpu = [p[2] * p[4] for p in passes]
    calls = [[c[2] * 1e3 * p[4] for c in p[1].calls] for p in passes]
    misses = [[c[2] * 1e3 * p[4] for c in p[1].calls if c[1]]
              for p in passes]
    out = passes[0][0]
    n, per_pass = len(passes), len(calls[0])
    metrics.put("cpu_s", median(cpu), "s",
                f"median of {n} passes (raw CPU "
                f"{median([p[2] for p in passes]):.4f} s, speed scale "
                f"{median([p[4] for p in passes]):.3f})")
    metrics.put("sim_cycles", out["sim_cycles"], "cycles")
    metrics.put("flit_hops", out["flit_hops"], "flit-hops")
    metrics.put("req_per_s", workload.ops_per_pass / median(cpu), "req/s",
                f"{workload.ops_per_pass} operations per pass")
    metrics.put("p50_ms", median([median(c) for c in calls]), "ms",
                f"per call; median over {n} passes of {per_pass} calls")
    metrics.put("p99_ms", median([nearest_rank(c, 0.99) for c in calls]),
                "ms", f"per call, nearest rank (the slowest of "
                      f"{per_pass}); median over {n} passes")
    metrics.put("miss_p50_ms", median([median(m) for m in misses]), "ms",
                f"simulating calls; median over {n} passes of "
                f"{len(misses[0])}")


def traced(workload, rundir, seconds: float, trace_dir: str,
           metrics: Metrics) -> tuple[list[str], int]:
    """The per-layer metrics: untraced passes first (the overhead
    baseline), then passes with every layer wrapped in spans."""
    from repro.runner.cache import default_cache
    from tracer import Ledger, Tracer

    baseline = timed_passes(workload, rundir, seconds * 0.4, min_passes=2)
    tracer = Tracer(trace_dir)
    tracer.install()
    ledger = Ledger()

    def on_pass(record) -> None:
        out, clock, cpu, wall = record
        spans = tracer.take()
        counters = tracer.collect_counters()
        ledger.units += 1
        ledger.add_window(spans, wall)
        ledger.add_spans(spans)
        ledger.add_counters(counters)
        cache = default_cache()
        ledger.add("runner.cache_hits", cache.hits)
        ledger.add("runner.cache_misses", cache.misses)
        ledger.add("runner.cache_stores", cache.stores)
        for row in out.get("rows", ()):
            if "references" in row:
                ledger.add("coherence.refs", row["references"])
                ledger.add("_coherence.misses", row["misses"])
                ledger.add("coherence.invalidations", row["invalidations"])
        if "result" in out:
            info = tracer.compile_cache.cache_info()
            ledger.add("explore.configs", out["result"].n_configs)
            ledger.add("explore.cells", len(out["result"]))
            ledger.add("explore.sim_cells", out["sim_cells"])
            ledger.add("_compile.hits", info.hits)
            ledger.add("_compile.misses", info.misses)
            ledger.add("_explore.sim_cpu",
                       sum(c[2] for c in clock.calls if c[1]))
            ledger.add("_explore.pass_cpu", cpu)
        tracer.flush(f"spans-pass{ledger.units}.jsonl.gz", spans=spans,
                     counters=counters)

    runs = timed_passes(workload, rundir, seconds * 0.6, min_passes=2,
                        on_pass=on_pass)
    base = median([p[2] * p[4] for p in baseline])
    overhead = (median([p[2] * p[4] for p in runs]) - base) / base
    ledger.emit(metrics, overhead)
    metrics.notes["trace.total_s"] = (f"wall per pass, {ledger.units} "
                                      f"traced passes")
    # Tracing must not change any output: all passes must agree.
    return verify(workload, baseline + runs, rundir), len(baseline + runs)
