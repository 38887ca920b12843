"""Chaos sweep: invalidation schemes under increasing fault pressure.

For each (scheme, fault level) the sweep runs the paper's invalidation
microbenchmark — one transaction at a time on an otherwise idle mesh —
under a seeded :class:`~repro.faults.plan.FaultPlan`, and reports how
the recovery protocol holds up:

* **completion rate** — transactions that finished (possibly via
  retransmission or unicast fallback) over transactions issued; the
  remainder ended in a typed
  :class:`~repro.faults.plan.TransactionFailed`, never a silent hang or
  a generic deadlock;
* **retries** — mean retransmission attempts per completed transaction;
* **latency inflation** — mean completed-transaction latency relative
  to the same scheme and pattern stream on a fault-free mesh.

Backs ``repro faults`` and ``benchmarks/bench_fault_recovery.py``.
Grid points are independent simulations, so the sweep fans them out
through :func:`repro.runner.run_jobs` — one job per (scheme, drop
probability) point — and replays unchanged points from the result
cache; the merged row stream is bit-identical for any worker count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.experiments import _draw_patterns, _mesh_of, check_sweep
from repro.analysis.tables import format_table
from repro.config import ConfigError, SystemParameters, paper_parameters
from repro.core.engine import InvalidationEngine
from repro.core.grouping import SCHEMES, build_plan
from repro.faults.plan import FaultPlan, TransactionFailed
from repro.network import MeshNetwork
from repro.runner import Job, params_key, resolve_execution, run_jobs
from repro.sim import Simulator, Tally


def run_fault_sweep(schemes: Sequence[str], drop_probs: Sequence[float],
                    degree: int = 8, per_point: int = 10,
                    params: Optional[SystemParameters] = None,
                    link_faults: int = 0, router_faults: int = 0,
                    kind: str = "uniform", seed: int = 0, jobs: int = 1,
                    use_cache: bool = True, cache=None) -> list[dict]:
    """Row dicts for every (scheme, drop probability) grid point.

    ``link_faults``/``router_faults`` add that many permanent random
    dead links/routers on top of each non-zero drop probability.  The
    pattern stream is shared across schemes and fault levels, so the
    comparison is paired; everything is a pure function of ``seed``.
    ``params.fault_aware_routing`` routes every faulted point around
    its dead links and routers (reroute before downgrade).
    ``jobs`` workers (``0`` = one per core) run one job per point;
    ``use_cache``/``cache`` select the result cache (``docs/RUNNER.md``).
    Bad axes, or more faults than the mesh has links or routers, raise
    :class:`ConfigError`
    (:func:`~repro.analysis.experiments.check_sweep`).
    """
    params = params or paper_parameters()
    check_sweep(schemes, kind=kind, per_degree=per_point, degrees=(degree,),
                params=params, drop_probs=drop_probs, seed=seed)
    w, h = params.mesh_width, params.mesh_height
    links = w * (h - 1) + h * (w - 1)
    if not (0 <= link_faults <= links and 0 <= router_faults <= w * h):
        raise ConfigError(f"need 0..{links} link faults and 0..{w * h} "
                          f"router faults on a {w}x{h} mesh, got "
                          f"{link_faults} and {router_faults}")
    workers, cache = resolve_execution(jobs, use_cache, cache)
    grid = [(scheme, prob) for scheme in schemes for prob in drop_probs]
    job_list = [
        Job(fn=_fault_point_job,
            args=(scheme, prob, degree, per_point, params, link_faults,
                  router_faults, kind, seed),
            key={"fn": "fault_sweep/point", "params": params_key(params),
                 "scheme": scheme, "drop_prob": prob, "degree": degree,
                 "per_point": per_point, "link_faults": link_faults,
                 "router_faults": router_faults, "kind": kind,
                 "seed": seed},
            label=f"faults:{scheme}@{prob:g}")
        for scheme, prob in grid]
    rows = run_jobs(job_list, workers=workers, cache=cache)
    # Latency inflation is relative to the scheme's fault-free point —
    # a cross-point measure, so it is derived at merge time (preserving
    # the historical iteration-order semantics: points before the
    # prob==0 entry have no baseline and report NaN).
    baseline: dict[str, float] = {}
    for row in rows:
        if row["drop_prob"] == 0:
            baseline[row["scheme"]] = row["latency"]
        base = baseline.get(row["scheme"])
        row["latency_x"] = (row["latency"] / base
                            if base and row["latency"] else float("nan"))
    return rows


def format_fault_table(rows: Sequence[dict], columns: Sequence[str],
                       title: str) -> str:
    """:func:`~repro.analysis.tables.format_table` of fault-sweep rows,
    printing ``drop_prob`` with ``%g``: the table's ``%.2f`` would print
    0.001 as 0.00.  The rows keep their numeric values."""
    return format_table([{**row, "drop_prob": f"{row['drop_prob']:g}"}
                         for row in rows], columns=columns, title=title)


def _fault_point_job(scheme: str, prob: float, degree: int,
                     per_point: int, params: SystemParameters,
                     link_faults: int, router_faults: int, kind: str,
                     seed: int) -> dict:
    """One grid point, reconstructing the shared pattern stream (a pure
    function of ``seed``) and its seeded fault plan in-process."""
    patterns = _draw_patterns(params, (degree,), per_point, kind, seed,
                              None)[degree]
    plan = None
    if prob > 0:
        plan = FaultPlan.random(
            _mesh_of(params), seed=seed, link_faults=link_faults,
            router_faults=router_faults, drop_prob=prob)
    return _run_point(scheme, prob, plan, patterns, params)


def _run_point(scheme: str, prob: float, fault_plan: Optional[FaultPlan],
               patterns, params: SystemParameters) -> dict:
    routing = SCHEMES[scheme][1]
    sim = Simulator()
    net = MeshNetwork(sim, params, routing)
    engine = InvalidationEngine(sim, net, params)
    if fault_plan is not None and not fault_plan.empty:
        net.install_faults(fault_plan)
    completed = failed = 0
    latency, retries = Tally("lat"), Tally("rty")
    downgrades, reroutes = Tally("dg"), Tally("rr")
    for pattern in patterns:
        plan = build_plan(scheme, net.mesh, pattern.home, pattern.sharers)
        try:
            record = engine.run(plan, limit=50_000_000)
        except TransactionFailed:
            failed += 1
            continue
        completed += 1
        latency.add(record.latency)
        retries.add(record.retries)
        downgrades.add(record.downgrades)
        reroutes.add(record.reroutes)
    issued = completed + failed
    snapshot = engine.metrics_snapshot()
    return {
        "scheme": scheme,
        "drop_prob": prob,
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "completion_rate": completed / issued if issued else float("nan"),
        "latency": latency.mean if completed else float("nan"),
        "retries": retries.mean if completed else float("nan"),
        "downgrades": downgrades.mean if completed else float("nan"),
        "reroutes": reroutes.mean if completed else float("nan"),
        "worms_dropped": snapshot["net.worms_dropped"],
        "detours": snapshot["net.detours"],
    }
