"""One-shot experiment report: every table and figure into markdown.

``python -m repro report --out results.md`` reruns the complete
evaluation (tables 4-6, the sweep figures, ablations, applications) at a
chosen scale and writes a self-contained markdown report with tables and
terminal charts — the quickest way to regenerate EXPERIMENTS.md-style
data after a change.
"""

from __future__ import annotations

from repro.analysis.experiments import (check_sweep, miss_latency_micro,
                                        read_miss_breakdown,
                                        run_analytical_sweep,
                                        run_application_experiment,
                                        run_invalidation_sweep)
from repro.analysis.plotting import chart_from_rows
from repro.analysis.tables import rows_to_markdown
from repro.config import paper_parameters
from repro.runner import resolve_jobs

SWEEP_SCHEMES = ["ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec", "mi-ma-ec",
                 "mi-ma-ec-u", "mi-ma-tm", "mi-ua-fa", "mi-ma-fa",
                 "sci-chain"]
APP_SCHEMES = ["ui-ua", "mi-ua-ec", "mi-ma-ec"]


def _app_configs(scale: str):
    from repro.workloads import apsp, barnes_hut, lu, paper_app_configs

    if scale == "paper":
        return list(paper_app_configs().items())
    if scale == "smoke":
        return [
            ("barnes-hut",
             barnes_hut.BHConfig(bodies=16, steps=1, processors=8)),
            ("lu", lu.LUConfig(n=16, block=8, processors=4)),
            ("apsp", apsp.APSPConfig(vertices=10, processors=8)),
        ]
    return [
        ("barnes-hut",
         barnes_hut.BHConfig(bodies=48, steps=2, processors=16)),
        ("lu", lu.LUConfig(n=48, block=8, processors=16)),
        ("apsp", apsp.APSPConfig(vertices=24, processors=16)),
    ]


def generate_report(scale: str = "ci", seed: int = 11,
                    progress=None, jobs: int = 1,
                    use_cache: bool = True) -> str:
    """Run the full evaluation; returns the markdown report text.

    ``scale``: ``"ci"`` (default), ``"paper"``, or ``"smoke"`` — the
    last runs a seconds-long miniature of everything, for tests.
    ``jobs``/``use_cache`` are forwarded to the sweep runners
    (:mod:`repro.runner`): ``jobs=0`` fans each sweep across every
    core, and a warm result cache makes a repeat (or interrupted)
    report near-free.
    """
    if scale not in ("ci", "paper", "smoke"):
        raise ValueError("scale must be 'ci', 'paper', or 'smoke'")
    resolve_jobs(jobs)
    check_sweep(SWEEP_SCHEMES, seed=seed)
    execution = {"jobs": jobs, "use_cache": use_cache}
    say = progress or (lambda msg: None)
    width = {"smoke": 4, "ci": 8, "paper": 16}[scale]
    params = paper_parameters(width)
    degrees = sorted({min(d, params.num_nodes - 1)
                      for d in (1, 2, 4, 8, 16, 32)})
    parts: list[str] = [
        "# Reproduction report",
        "",
        f"Scale: `{scale}` — {width}x{width} mesh, seed {seed}.",
        "",
    ]

    say("tables 4-5: miss latencies")
    parts += ["## Table 4 — memory miss latencies (5 ns cycles)", "",
              rows_to_markdown(miss_latency_micro(params)), ""]
    parts += ["## Table 5 — clean neighbor read miss breakdown", "",
              rows_to_markdown(read_miss_breakdown(params)), ""]

    say("figures: invalidation sweeps")
    rows = run_invalidation_sweep(SWEEP_SCHEMES, degrees, per_degree=5,
                                  params=params, seed=seed, **execution)
    parts += ["## Invalidation cost vs degree of sharing", "",
              rows_to_markdown(rows, columns=[
                  "scheme", "degree", "latency", "messages", "flit_hops",
                  "home_occupancy"]), "", "```",
              chart_from_rows(
                  [r for r in rows if r["scheme"] in
                   ("ui-ua", "mi-ua-ec", "mi-ma-ec")],
                  x="degree", y="latency",
                  title="latency vs degree"), "```", "", "```",
              chart_from_rows(
                  [r for r in rows if r["scheme"] in
                   ("ui-ua", "mi-ua-ec", "mi-ma-ec", "mi-ma-tm")],
                  x="degree", y="home_occupancy",
                  title="home occupancy vs degree"), "```", ""]

    say("analytical cross-validation")
    ana = run_analytical_sweep(["ui-ua", "mi-ma-ec"], [2, 8, degrees[-1]],
                               per_degree=5, params=params, seed=seed,
                               **execution)
    sim = run_invalidation_sweep(["ui-ua", "mi-ma-ec"],
                                 [2, 8, degrees[-1]], per_degree=5,
                                 params=params, seed=seed, **execution)
    compare = [{"scheme": s["scheme"], "degree": s["degree"],
                "simulated": s["latency"], "analytical": a["latency"],
                "error_pct": (a["latency"] - s["latency"])
                             / s["latency"] * 100}
               for s, a in zip(sim, ana)]
    parts += ["## Analytical model vs simulation", "",
              rows_to_markdown(compare), ""]

    say("applications (this is the slow part)")
    app_rows = []
    for app, config in _app_configs(scale):
        app_schemes = APP_SCHEMES if scale != "smoke" else ["ui-ua",
                                                            "mi-ma-ec"]
        for scheme in app_schemes:
            say(f"  {app} / {scheme}")
            app_rows.append(run_application_experiment(
                app, scheme, params=paper_parameters(4),
                app_config=config))
    base = {r["app"]: r["execution_cycles"] for r in app_rows
            if r["scheme"] == "ui-ua"}
    for r in app_rows:
        r["normalized"] = r["execution_cycles"] / base[r["app"]]
    parts += ["## Application execution time", "",
              rows_to_markdown(app_rows, columns=[
                  "app", "scheme", "execution_cycles", "normalized",
                  "invalidations", "avg_sharers", "inval_latency"]), "",
              "\nNote: `mi-ma-ec` rows use the paper's default 4-entry i-ack buffer file; write-bursty applications (Barnes-Hut's tree build) exceed its safe concurrency (buffers/2 transactions) and serialize — a 16-entry file restores the win (see EXPERIMENTS.md E8).\n"]
    return "\n".join(parts)
