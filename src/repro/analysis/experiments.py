"""Experiment harness: the runners behind every benchmark target.

Each function returns plain row dicts so benchmarks and examples can
print paper-style tables with :mod:`repro.analysis.tables`.

Every sweep follows the paper's microbenchmark method: one invalidation
at a time on an otherwise idle mesh, over the seeded pattern stream of
:func:`repro.workloads.patterns.draw_patterns`.  The figure sweeps fan
out across CPU cores through :func:`repro.runner.run_jobs` — one job
per scheme, since each scheme runs on its own simulator instance — and
the fault sweep one job per (scheme, drop probability) point; both
replay unchanged configs from the content-addressed result cache
(``jobs=1``/``use_cache=True`` by default).  Every decomposition is a
pure function of the call arguments, so serial, parallel, and cached
runs return bit-identical row lists (``tests/test_runner.py``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.analysis.analytical import (estimate_latency,
                                       plan_home_occupancy,
                                       plan_message_count, plan_traffic)
from repro.analysis.tables import format_table
from repro.config import ConfigError, SystemParameters, paper_parameters
from repro.coherence.processor import run_program
from repro.coherence.system import DSMSystem
from repro.core.engine import InvalidationEngine
from repro.core.grouping import SCHEMES, build_plan
from repro.faults.plan import FaultPlan, TransactionFailed
from repro.network import MeshNetwork
from repro.network.topology import Mesh2D
from repro.runner import Job, params_key, resolve_execution, run_jobs
from repro.sim import Simulator, Tally
from repro.workloads.patterns import PATTERN_KINDS, draw_patterns, max_degree


# ----------------------------------------------------------------------
# Invalidation microbenchmark sweeps (figures E4-E6, E9)
# ----------------------------------------------------------------------
def check_sweep(schemes: Sequence[str], *, kind: str = "uniform",
                per_degree: int = 1, degrees: Sequence[int] = (),
                params: Optional[SystemParameters] = None,
                drop_probs: Sequence[float] = (), seed: int = 0) -> None:
    """Raise :class:`ConfigError` for bad sweep axes before any job is
    built (inside a job they would end in a retried ``JobFailed``).
    ``degrees`` are bounded by what a ``kind`` pattern can draw on the
    mesh of ``params``; ``seed`` seeds numpy's generator, which takes
    no negative seed."""
    for scheme in schemes:
        if not isinstance(scheme, str) or scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; choose from "
                              f"{sorted(SCHEMES)}")
    if kind not in PATTERN_KINDS:
        raise ConfigError(f"unknown pattern kind {kind!r}; choose from "
                          f"{list(PATTERN_KINDS)}")
    if per_degree < 1:
        raise ConfigError(f"need >= 1 transaction per point, got "
                          f"{per_degree}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if degrees:
        mesh = Mesh2D(params.mesh_width, params.mesh_height)
        limit = max_degree(kind, mesh)
        for degree in degrees:
            if not 1 <= degree <= limit:
                raise ConfigError(f"degree {degree} is outside 1..{limit} "
                                  f"for {kind} sharers on a {mesh.width}x"
                                  f"{mesh.height} mesh")
    for prob in drop_probs:
        if not 0 <= prob <= 1:
            raise ConfigError(f"drop probability {prob} is outside [0, 1]")


def _idle_engine(scheme: str,
                 params: SystemParameters) -> InvalidationEngine:
    """A fresh simulator, network and engine for one sweep job: the
    network routes with ``scheme``'s base routing, and the job runs its
    transactions on it one at a time."""
    sim = Simulator()
    net = MeshNetwork(sim, params, SCHEMES[scheme][1])
    return InvalidationEngine(sim, net, params)


def _invalidation_scheme_job(scheme: str, degrees: tuple[int, ...],
                             per_degree: int, params: SystemParameters,
                             kind: str, seed: int,
                             home: Optional[int]) -> list[dict]:
    """One sweep job: every degree for one scheme on a fresh simulator."""
    engine = _idle_engine(scheme, params)
    mesh = engine.net.mesh
    patterns = draw_patterns(mesh, degrees, per_degree, kind, seed, home)
    rows: list[dict] = []
    for degree in degrees:
        latency, messages = Tally("lat"), Tally("msg")
        traffic, occupancy = Tally("hop"), Tally("occ")
        for pattern in patterns[degree]:
            plan = build_plan(scheme, mesh, pattern.home, pattern.sharers)
            record = engine.run(plan, limit=5_000_000)
            latency.add(record.latency)
            messages.add(record.total_messages)
            traffic.add(record.flit_hops)
            occupancy.add(record.home_occupancy)
        rows.append({
            "scheme": scheme,
            "degree": degree,
            "latency": latency.mean,
            "latency_max": latency.max,
            "messages": messages.mean,
            "flit_hops": traffic.mean,
            "home_occupancy": occupancy.mean,
        })
    return rows


def scheme_job(scheme: str, degrees: Sequence[int], per_degree: int,
               params: SystemParameters, kind: str = "uniform",
               seed: int = 0, home: Optional[int] = None,
               analytical: bool = False, label: str = "") -> Job:
    """The per-scheme sweep job: every degree of one scheme.

    The one place that lays out this job's function, arguments and
    cache-key material.  ``repro sweep``, ``repro serve`` and atlas
    calibration share cache entries because they all build it here.
    ``home`` pins the home node of the simulated job; the analytical
    job draws its homes from the pattern stream.
    """
    degrees = tuple(degrees)
    key = {"fn": ("analytical_sweep/scheme" if analytical
                  else "invalidation_sweep/scheme"),
           "params": params_key(params), "scheme": scheme,
           "degrees": list(degrees), "per_degree": per_degree,
           "kind": kind, "seed": seed}
    if analytical:
        return Job(fn=_analytical_scheme_job,
                   args=(scheme, degrees, per_degree, params, kind, seed),
                   key=key, label=label)
    key["home"] = home
    return Job(fn=_invalidation_scheme_job,
               args=(scheme, degrees, per_degree, params, kind, seed, home),
               key=key, label=label)


def run_invalidation_sweep(schemes: Sequence[str], degrees: Sequence[int],
                           per_degree: int = 8,
                           params: Optional[SystemParameters] = None,
                           kind: str = "uniform", seed: int = 0,
                           home: Optional[int] = None, jobs: int = 1,
                           use_cache: bool = True,
                           cache=None) -> list[dict]:
    """Measure the four performance measures per (scheme, degree).

    Each transaction runs on an otherwise idle network (the paper's
    microbenchmark methodology); patterns are shared across schemes so
    the comparison is paired.  ``jobs`` workers (``0`` = one per core)
    run one job per scheme; ``use_cache``/``cache`` select the result
    cache (default: :func:`~repro.runner.default_cache`).  The merged
    row order is scheme-major and bit-identical for every worker count
    and on cache replay, so re-running an interrupted sweep replays its
    finished schemes.  Bad axes raise :class:`ConfigError`
    (:func:`check_sweep`).
    """
    params = params or paper_parameters()
    check_sweep(schemes, kind=kind, per_degree=per_degree, degrees=degrees,
                params=params, seed=seed)
    workers, cache = resolve_execution(jobs, use_cache, cache)
    job_list = [scheme_job(scheme, degrees, per_degree, params, kind, seed,
                           home, label=f"sweep:{scheme}")
                for scheme in schemes]
    per_scheme = run_jobs(job_list, workers=workers, cache=cache)
    return [row for rows in per_scheme for row in rows]


def _analytical_scheme_job(scheme: str, degrees: tuple[int, ...],
                           per_degree: int, params: SystemParameters,
                           kind: str, seed: int) -> list[dict]:
    """Closed-form counterpart of :func:`_invalidation_scheme_job`."""
    mesh = Mesh2D(params.mesh_width, params.mesh_height)
    patterns = draw_patterns(mesh, degrees, per_degree, kind, seed)
    rows: list[dict] = []
    for degree in degrees:
        latency, messages, traffic = Tally("l"), Tally("m"), Tally("t")
        occupancy = Tally("o")
        for pattern in patterns[degree]:
            plan = build_plan(scheme, mesh, pattern.home,
                              pattern.sharers)
            latency.add(estimate_latency(plan, params, mesh))
            messages.add(plan_message_count(plan))
            traffic.add(plan_traffic(plan, params, mesh))
            occupancy.add(plan_home_occupancy(plan))
        rows.append({
            "scheme": scheme,
            "degree": degree,
            "latency": latency.mean,
            "messages": messages.mean,
            "flit_hops": traffic.mean,
            "home_occupancy": occupancy.mean,
        })
    return rows


def run_analytical_sweep(schemes: Sequence[str], degrees: Sequence[int],
                         per_degree: int = 8,
                         params: Optional[SystemParameters] = None,
                         kind: str = "uniform", seed: int = 0,
                         jobs: int = 1, use_cache: bool = True,
                         cache=None) -> list[dict]:
    """Analytical counterpart of :func:`run_invalidation_sweep`
    (identical pattern stream, closed-form measures)."""
    params = params or paper_parameters()
    check_sweep(schemes, kind=kind, per_degree=per_degree, degrees=degrees,
                params=params, seed=seed)
    workers, cache = resolve_execution(jobs, use_cache, cache)
    job_list = [scheme_job(scheme, degrees, per_degree, params, kind, seed,
                           analytical=True, label=f"analytical:{scheme}")
                for scheme in schemes]
    per_scheme = run_jobs(job_list, workers=workers, cache=cache)
    return [row for rows in per_scheme for row in rows]


# ----------------------------------------------------------------------
# Fault sweep (figures E13, E13b, E14)
# ----------------------------------------------------------------------
def run_fault_sweep(schemes: Sequence[str], drop_probs: Sequence[float],
                    degree: int = 8, per_point: int = 10,
                    params: Optional[SystemParameters] = None,
                    link_faults: int = 0, router_faults: int = 0,
                    kind: str = "uniform", seed: int = 0, jobs: int = 1,
                    use_cache: bool = True, cache=None) -> list[dict]:
    """Row dicts for every (scheme, drop probability) grid point: the
    invalidation microbenchmark under a seeded
    :class:`~repro.faults.plan.FaultPlan` (``repro faults``).

    Each row reports the completion rate (transactions that finished,
    possibly through retransmission or unicast fallback; the rest ended
    in a typed :class:`~repro.faults.plan.TransactionFailed`), the mean
    retries, downgrades and reroutes per completed transaction, and
    ``latency_x``, the mean latency over the same scheme's fault-free
    point.  ``link_faults``/``router_faults`` add that many permanent
    random dead links/routers on top of each non-zero drop probability.
    The pattern stream is shared across schemes and fault levels, so
    the comparison is paired; everything is a pure function of
    ``seed``.  ``params.fault_aware_routing`` routes every faulted
    point around its dead links and routers (reroute before
    downgrade).  ``jobs`` workers (``0`` = one per core) run one job
    per point; ``use_cache``/``cache`` select the result cache
    (``docs/RUNNER.md``).  Bad axes, or more faults than the mesh has
    links or routers, raise :class:`ConfigError` (:func:`check_sweep`).
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


def _fault_point_job(scheme: str, prob: float, degree: int,
                     per_point: int, params: SystemParameters,
                     link_faults: int, router_faults: int, kind: str,
                     seed: int) -> dict:
    """One grid point on a fresh simulator: the shared pattern stream
    and the point's fault plan are both pure functions of ``seed``."""
    engine = _idle_engine(scheme, params)
    net = engine.net
    if prob > 0:
        fault_plan = FaultPlan.random(
            net.mesh, seed=seed, link_faults=link_faults,
            router_faults=router_faults, drop_prob=prob)
        if not fault_plan.empty:
            net.install_faults(fault_plan)
    patterns = draw_patterns(net.mesh, (degree,), per_point, kind, seed)
    completed = failed = 0
    latency, retries = Tally("lat"), Tally("rty")
    downgrades, reroutes = Tally("dg"), Tally("rr")
    for pattern in patterns[degree]:
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


def format_fault_table(rows: Sequence[dict], columns: Sequence[str],
                       title: str) -> str:
    """:func:`~repro.analysis.tables.format_table` of fault-sweep rows,
    printing ``drop_prob`` with ``%g``: the table's ``%.2f`` would print
    0.001 as 0.00.  The rows keep their numeric values."""
    return format_table([{**row, "drop_prob": f"{row['drop_prob']:g}"}
                         for row in rows], columns=columns, title=title)


# ----------------------------------------------------------------------
# Miss-latency micro-transactions (Tables 4 and 5)
# ----------------------------------------------------------------------
def _fresh_system(params: SystemParameters,
                  scheme: str = "ui-ua") -> tuple[Simulator, DSMSystem]:
    sim = Simulator()
    return sim, DSMSystem(sim, params, scheme)


def _run_sequence(sim: Simulator, system: DSMSystem,
                  sequence: Sequence[tuple[int, str, int]]) -> list[int]:
    latencies: list[int] = []

    def driver():
        for node, op, block in sequence:
            t0 = sim.now
            yield from system.access(node, op, block)
            latencies.append(sim.now - t0)

    proc = sim.spawn(driver(), name="micro")
    sim.run_until_event(proc.done, limit=10_000_000)
    return latencies


def miss_latency_micro(params: Optional[SystemParameters] = None,
                       scheme: str = "ui-ua") -> list[dict]:
    """Table 4: derived typical memory miss latencies (5 ns cycles).

    Micro-transactions on an idle machine: each row isolates one miss
    type at neighbor distance and at the mesh's average distance.
    """
    params = params or paper_parameters()
    mesh = Mesh2D(params.mesh_width, params.mesh_height)
    n = params.num_nodes
    if n < 3:
        raise ConfigError(f"Table 4 needs a mesh of >= 3 nodes, got {n}")
    # Block homed at node 1 => requester 0 is its west neighbor.
    neighbor_block = 1
    # Requester 0 and a home at roughly average distance.
    avg = max(1, round(mesh.average_distance()))
    hx, hy = min(avg, mesh.width - 1), max(0, avg - (mesh.width - 1))
    far_home = mesh.node_at(hx, min(hy, mesh.height - 1))
    far_block = far_home  # block b is homed at b mod n for b < n

    rows = []

    def one(name, sequence, probe_index=-1):
        sim, system = _fresh_system(params, scheme)
        lats = _run_sequence(sim, system, sequence)
        rows.append({"transaction": name, "cycles": lats[probe_index],
                     "ns": lats[probe_index] * params.net_cycle_ns})

    # Mesh-size-independent actors: a remote writer far from the home,
    # and four spread-out sharers (all distinct from nodes 0 and 1).
    others = [i for i in range(n) if i not in (0, 1)]
    writer = others[-1]
    sharers = [others[(len(others) * k) // 5] for k in range(1, 5)]

    one("read miss, clean, neighbor home",
        [(0, "R", neighbor_block)])
    one("read miss, clean, average distance",
        [(0, "R", far_block)])
    one("read miss, dirty remote (recall)",
        [(writer, "W", neighbor_block), (0, "R", neighbor_block)])
    one("write miss, uncached, neighbor home",
        [(0, "W", neighbor_block)])
    one("write miss, dirty remote (recall)",
        [(writer, "W", neighbor_block), (0, "W", neighbor_block)])
    one("upgrade, no other sharers",
        [(0, "R", neighbor_block), (0, "W", neighbor_block)])
    one("upgrade, 4 sharers",
        [(s, "R", neighbor_block) for s in sharers]
        + [(0, "R", neighbor_block), (0, "W", neighbor_block)])
    one("local read miss (home's own block)",
        [(1, "R", neighbor_block)])
    return rows


def read_miss_breakdown(params: Optional[SystemParameters] = None) -> list[dict]:
    """Table 5: component breakdown of a clean read miss to a neighboring
    node, plus the simulated end-to-end number for cross-validation."""
    params = params or paper_parameters()
    p = params
    hops = 1
    request_net = p.router_delay * (hops + 1) + p.control_message_flits - 1
    reply_net = p.router_delay * (hops + 1) + p.data_message_flits - 1
    components = [
        ("cache access + miss detect", p.cache_access),
        ("compose request (OC)", p.send_overhead),
        ("request network (control worm)", request_net),
        ("receive request", p.recv_overhead),
        ("directory lookup/update", p.dir_access),
        ("memory block read", p.mem_access),
        ("compose reply (OC)", p.send_overhead),
        ("reply network (data worm)", reply_net),
        ("receive reply + fill", p.recv_overhead),
    ]
    rows = [{"component": name, "cycles": cyc,
             "ns": cyc * p.net_cycle_ns}
            for name, cyc in components]
    total = sum(c for _, c in components)
    rows.append({"component": "TOTAL (model)", "cycles": total,
                 "ns": total * p.net_cycle_ns})
    sim, system = _fresh_system(params)
    measured = _run_sequence(sim, system, [(0, "R", 1)])[0]
    rows.append({"component": "TOTAL (simulated)", "cycles": measured,
                 "ns": measured * p.net_cycle_ns})
    return rows


# ----------------------------------------------------------------------
# Application experiments (Table 6 / figure E8)
# ----------------------------------------------------------------------
def run_application_experiment(app: str, scheme: str,
                               params: Optional[SystemParameters] = None,
                               app_config: Any = None,
                               limit: int = 200_000_000) -> dict:
    """Run one application under one scheme; returns a result row.

    ``app`` is ``"barnes-hut"``, ``"lu"``, or ``"apsp"``.  Processors map
    one-to-one onto mesh nodes (the app config's processor count must not
    exceed the mesh size).
    """
    from repro.workloads import apsp, barnes_hut, lu

    params = params or paper_parameters(4)
    generators = {
        "barnes-hut": (barnes_hut, barnes_hut.BHConfig),
        "lu": (lu, lu.LUConfig),
        "apsp": (apsp, apsp.APSPConfig),
    }
    try:
        module, default_cfg = generators[app]
    except KeyError:
        raise ConfigError(f"unknown app {app!r}; "
                          f"choose from {sorted(generators)}") from None
    config = app_config if app_config is not None else default_cfg()
    if config.processors > params.num_nodes:
        raise ConfigError(f"{config.processors} processors exceed the "
                          f"{params.num_nodes}-node mesh")
    node_ids = list(range(config.processors))
    traces, info = module.generate_traces(config, node_ids)
    sim = Simulator()
    system = DSMSystem(sim, params, scheme)
    stats = run_program(system, traces, limit=limit)
    inval = Tally("inval_latency")
    for rec in system.engine.records:
        inval.add(rec.latency)
    return {
        "app": app,
        "scheme": scheme,
        "execution_cycles": stats["execution_cycles"],
        "execution_ms": stats["execution_cycles"] * params.net_cycle_ns / 1e6,
        "references": stats["references"],
        "misses": stats["misses"],
        "upgrades": stats["upgrades"],
        "invalidations": stats["invalidations"],
        "inval_transactions": inval.n,
        "inval_latency": inval.mean,
        "avg_sharers": (stats["invalidations"] / inval.n
                        if inval.n else 0.0),
        "messages": stats["messages"],
        "flit_hops": stats["flit_hops"],
        "read_miss_latency": system.read_miss_latency.mean,
        "upgrade_latency": system.upgrade_latency.mean,
    }
