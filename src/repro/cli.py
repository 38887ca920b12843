"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — print the parameter set for a mesh size;
* ``sweep`` (alias ``figs``) — invalidation-cost sweep over schemes and
  degrees (simulated, or closed-form with ``--analytical``);
* ``app`` — run an application (barnes-hut / lu / apsp) under a scheme;
* ``tables`` — regenerate the paper's Table 4 / Table 5;
* ``report`` — run the full evaluation into a markdown report;
* ``worms`` — draw the worm paths a scheme uses for a sharing pattern;
* ``faults`` — chaos sweep: completion rate, retries, and latency
  inflation under seeded link/router faults and worm drops;
* ``chaos`` — soak seeded chaos scenarios under ``full`` invariant
  auditing; failures are shrunk into JSON repro bundles;
* ``replay`` — re-run a repro bundle deterministically and check that
  its failure signature reproduces;
* ``cache`` — inspect (``info``), scrub (``fsck``) or wipe (``clear``)
  the content-addressed sweep result cache under ``.repro-cache/``,
  including the corrupt-entry purge tally;
* ``serve`` — run the multi-tenant simulation service: an async HTTP
  front end that dedupes requests by cache digest, coalesces
  concurrent identical requests, queues misses fairly per client
  under admission control, and reports ``/metrics``
  (``docs/SERVE.md``);
* ``load`` — load-test a running ``repro serve`` endpoint and print
  requests/s, latency quantiles, and the observed cache-hit rate.

The sweep-shaped commands (``sweep``/``figs``, ``report``, ``faults``,
``chaos``, ``atlas``) all accept ``--jobs N`` (``0`` = one worker
process per CPU core) and ``--no-cache``.  Every finished job is
cached as it lands, so re-running an interrupted command replays its
finished jobs and runs only the rest — see :mod:`repro.runner` and
``docs/RUNNER.md``.

``repro serve``'s config flags come from the config dataclass fields
that carry help metadata.  The library validates every value; a
:class:`ConfigError` from any command exits 2 (:func:`main`).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.analysis import (format_table, miss_latency_micro,
                            read_miss_breakdown,
                            run_application_experiment,
                            run_invalidation_sweep)
from repro.analysis.experiments import run_analytical_sweep
from repro.config import DEFAULT_PARAMETERS, ConfigError, paper_parameters
from repro.core.grouping import SCHEMES
from repro.explore.grid import DEFAULT_SCHEMES
from repro.runner.supervisor import RetryPolicy
from repro.serve import ServeConfig, ServiceConfig
from repro.workloads.patterns import PATTERN_KINDS


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The shared sweep-execution knobs (see :mod:`repro.runner`)."""
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep (0 = one "
                             "per CPU core; default: serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not populate the result "
                             "cache (.repro-cache/)")


def _jobs(args) -> int:
    """The ``jobs`` argument of a sweep entry point (``--jobs``; serial
    when not given)."""
    return 1 if args.jobs is None else args.jobs


def _flag_fields(cls):
    """``(field, flag name)`` for each field of the config dataclass
    ``cls`` that carries help metadata (the flag is the field name
    unless the metadata names one)."""
    return [(f, f.metadata.get("flag", f.name.replace("_", "-")))
            for f in dataclasses.fields(cls) if "help" in f.metadata]


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """Add ``cls``'s flags, typed and defaulted like their fields."""
    for f, flag in _flag_fields(cls):
        kind = ({"action": "store_true"} if isinstance(f.default, bool)
                else {"type": type(f.default), "default": f.default})
        parser.add_argument(f"--{flag}", help=f.metadata["help"], **kind)


def _config(cls, args, **extra):
    """Build ``cls`` back from the flags :func:`_add_config_flags`
    added (plus ``extra`` fields)."""
    return cls(**extra, **{f.name: getattr(args, flag.replace("-", "_"))
                           for f, flag in _flag_fields(cls)})


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _csv_strs(text: str) -> list[str]:
    return [v for v in text.split(",") if v]


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _xy(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return int(x), int(y)


def _xy_list(text: str) -> list[tuple[int, int]]:
    return [_xy(token) for token in text.split()]


def _csv_meshes(text: str) -> list[tuple[int, int]]:
    """``4x4,8x8,16x8`` -> [(4, 4), (8, 8), (16, 8)]."""
    out = []
    for token in text.split(","):
        if not token:
            continue
        w, _, h = token.partition("x")
        out.append((int(w), int(h or w)))
    return out


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multidestination cache invalidation in wormhole "
                    "DSMs (Dai & Panda, ICPP 1996) — reproduction tools")
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and report "
                             "the hottest functions plus the per-phase "
                             "cycle counters of every network built "
                             "(written to stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the system parameters")
    p_info.add_argument("--mesh", type=int, default=8,
                        help="mesh width (square)")

    p_sweep = sub.add_parser("sweep", aliases=["figs"],
                             help="invalidation-cost sweep (alias: "
                                  "figs)")
    p_sweep.add_argument("--schemes", type=_csv_strs,
                         default=["ui-ua", "mi-ua-ec", "mi-ma-ec"],
                         help="comma-separated scheme names")
    p_sweep.add_argument("--degrees", type=_csv_ints,
                         default=[2, 4, 8, 16])
    p_sweep.add_argument("--mesh", type=int, default=8)
    p_sweep.add_argument("--per-degree", type=int, default=5)
    p_sweep.add_argument("--kind", default="uniform",
                         choices=PATTERN_KINDS)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--analytical", action="store_true",
                         help="closed-form estimates instead of simulation")
    _add_execution_flags(p_sweep)

    p_app = sub.add_parser("app", help="run an application on the DSM")
    p_app.add_argument("--name", required=True,
                       choices=["barnes-hut", "lu", "apsp"])
    p_app.add_argument("--scheme", default="ui-ua",
                       choices=sorted(SCHEMES))
    p_app.add_argument("--mesh", type=int, default=4)
    p_app.add_argument("--paper-scale", action="store_true",
                       help="the paper's configuration (slow)")

    p_tables = sub.add_parser("tables", help="regenerate paper tables")
    p_tables.add_argument("--which", type=int, default=4, choices=[4, 5])
    p_tables.add_argument("--mesh", type=int, default=8)

    p_report = sub.add_parser("report",
                              help="run the full evaluation and write a "
                                   "markdown report")
    p_report.add_argument("--out", default="results.md",
                          help="output markdown file")
    p_report.add_argument("--scale", default="ci", choices=["ci", "paper"])
    p_report.add_argument("--seed", type=int, default=11)
    _add_execution_flags(p_report)

    p_faults = sub.add_parser(
        "faults", help="chaos sweep: recovery under faults")
    p_faults.add_argument("--schemes", type=_csv_strs,
                          default=["ui-ua", "mi-ua-ec", "mi-ma-ec"],
                          help="comma-separated scheme names")
    p_faults.add_argument("--drop-probs", type=_csv_floats,
                          default=[0.0, 0.01, 0.05, 0.1],
                          help="per-worm drop probabilities (0 = the "
                               "fault-free baseline)")
    p_faults.add_argument("--link-faults", type=int, default=0,
                          help="permanent dead links added at each "
                               "non-zero drop level")
    p_faults.add_argument("--router-faults", type=int, default=0,
                          help="permanent dead routers likewise")
    p_faults.add_argument("--degree", type=int, default=8,
                          help="sharers per transaction")
    p_faults.add_argument("--per-point", type=int, default=10,
                          help="transactions per grid point")
    p_faults.add_argument("--mesh", type=int, default=8)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--fault-aware", action="store_true",
                          help="route around dead links and routers "
                               "(reroute around known faults before "
                               "downgrading MI to UI)")
    p_faults.add_argument("--detour-limit", type=int,
                          default=DEFAULT_PARAMETERS.detour_limit,
                          help="misroute budget per worm under "
                               "--fault-aware (0 = prune-only)")
    _add_execution_flags(p_faults)

    p_chaos = sub.add_parser(
        "chaos", help="soak seeded chaos scenarios under full auditing")
    p_chaos.add_argument("--seeds", type=int, default=25,
                         help="number of scenarios to run")
    p_chaos.add_argument("--base-seed", type=int, default=0,
                         help="first scenario seed")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="small scenarios only (the CI soak job)")
    p_chaos.add_argument("--audit", default="full",
                         choices=["cheap", "full"],
                         help="invariant audit level for the runs")
    p_chaos.add_argument("--out-dir", default="chaos-bundles",
                         help="directory for repro bundles of failures")
    p_chaos.add_argument("--mutation", default=None,
                         help="apply a deliberate protocol mutation to "
                              "every scenario (to exercise the "
                              "catch/shrink/replay pipeline)")
    p_chaos.add_argument("--max-shrink-runs", type=int, default=48,
                         help="shrink budget per failing scenario")
    p_chaos.add_argument("--cache", action="store_true", dest="use_cache",
                         help="replay already-soaked seeds from the "
                              "result cache (fresh runs are the "
                              "default for a bug hunt)")
    _add_execution_flags(p_chaos)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the sweep result cache")
    p_cache.add_argument("action", choices=["info", "clear", "fsck"],
                         help="'info' prints the root, entry count, and "
                              "total bytes; 'clear' removes every entry")
    p_cache.add_argument("--dir", default=None,
                         help="cache root (default: $REPRO_CACHE_DIR "
                              "or .repro-cache/)")

    p_serve = sub.add_parser(
        "serve", help="run the HTTP simulation service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="result-cache root (default: "
                              "$REPRO_CACHE_DIR or .repro-cache/)")
    p_serve.add_argument("--cache-quota-mib", type=float, default=None,
                         help="cache size quota in MiB; LRU entries "
                              "are evicted past it (0 = unbounded, "
                              "overriding $REPRO_CACHE_QUOTA; "
                              "default: $REPRO_CACHE_QUOTA or 0)")
    for cls in (ServiceConfig, RetryPolicy, ServeConfig):
        _add_config_flags(p_serve, cls)

    p_load = sub.add_parser(
        "load", help="load-test a running repro serve endpoint")
    p_load.add_argument("--url", default="http://127.0.0.1:8642",
                        help="server base URL")
    p_load.add_argument("--clients", type=int, default=8,
                        help="concurrent keep-alive connections")
    p_load.add_argument("--requests", type=int, default=50,
                        help="requests per connection")
    p_load.add_argument("--schemes", type=_csv_strs,
                        default=["ui-ua", "mi-ua-ec", "mi-ma-ec"],
                        help="comma-separated scheme names (one spec "
                             "per scheme)")
    p_load.add_argument("--mesh", type=int, default=4)
    p_load.add_argument("--degrees", type=_csv_ints, default=[2, 4])
    p_load.add_argument("--per-degree", type=int, default=2)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--out", default=None,
                        help="also write the stats JSON here")

    p_replay = sub.add_parser(
        "replay", help="re-run a chaos repro bundle")
    p_replay.add_argument("bundle", help="path to a repro bundle JSON")
    p_replay.add_argument("--trail", type=int, default=20,
                          help="protocol-event trail lines to print on "
                               "a reproduced violation (0 = none)")

    p_worms = sub.add_parser("worms", help="draw a scheme's worm paths")
    p_worms.add_argument("--scheme", default="mi-ua-ec",
                         choices=sorted(SCHEMES))
    p_worms.add_argument("--mesh", type=int, default=8)
    p_worms.add_argument("--home", type=_xy, default=(4, 3),
                         help="home coordinate, e.g. 4,3")
    p_worms.add_argument("--sharers", type=_xy_list,
                         default="1,1 1,5 3,6 6,2 6,5",
                         help="space-separated x,y coordinates")

    p_atlas = sub.add_parser(
        "atlas",
        help="screen the design space analytically, calibrate against "
             "the simulator, and write the scenario atlas")
    p_atlas.add_argument("--meshes", type=_csv_meshes,
                         default=[(4, 4), (8, 8)],
                         help="comma-separated WxH mesh shapes "
                              "(e.g. 4x4,8x8,16x8)")
    p_atlas.add_argument("--degrees", type=_csv_ints,
                         default=[1, 2, 4, 8, 16])
    p_atlas.add_argument("--schemes", type=_csv_strs,
                         default=list(DEFAULT_SCHEMES))
    p_atlas.add_argument("--kind", default="uniform",
                         choices=PATTERN_KINDS)
    p_atlas.add_argument("--per-degree", type=int, default=3)
    p_atlas.add_argument("--seed", type=int, default=0)
    p_atlas.add_argument("--encodings", type=_csv_strs,
                         default=["bitstring", "list"],
                         help="multidest_encoding axis values")
    p_atlas.add_argument("--channels", type=_csv_ints,
                         default=[1, 2, 4],
                         help="consumption_channels axis values")
    p_atlas.add_argument("--axis", action="append", default=[],
                         metavar="NAME=V1,V2",
                         help="extra SystemParameters axis (repeatable)")
    p_atlas.add_argument("--calibrate-per-scheme", type=int, default=3,
                         help="stratified simulator samples per scheme")
    p_atlas.add_argument("--budget-fraction", type=float, default=0.05,
                         help="max simulated fraction of the grid")
    p_atlas.add_argument("--tol", type=float, default=0.02,
                         help="band-width convergence tolerance")
    p_atlas.add_argument("--max-rounds", type=int, default=4)
    p_atlas.add_argument("--no-refine", action="store_true",
                         help="skip the active-sampling refinement")
    p_atlas.add_argument("--out", default="results",
                         help="output directory for atlas.md/atlas.json")
    _add_execution_flags(p_atlas)
    return parser


def cmd_info(args) -> int:
    """``repro info``: print the parameter set."""
    params = paper_parameters(args.mesh)
    rows = [{"parameter": f.name, "value": getattr(params, f.name)}
            for f in dataclasses.fields(params)]
    rows += [{"parameter": "num_nodes (derived)", "value": params.num_nodes},
             {"parameter": "data_message_flits (derived)",
              "value": params.data_message_flits}]
    print(format_table(rows, title=f"System parameters "
                                   f"({args.mesh}x{args.mesh} mesh)"))
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep``: invalidation-cost sweep (simulated/analytical)."""
    runner = run_analytical_sweep if args.analytical \
        else run_invalidation_sweep
    rows = runner(args.schemes, args.degrees, per_degree=args.per_degree,
                  params=paper_parameters(args.mesh), kind=args.kind,
                  seed=args.seed, jobs=_jobs(args),
                  use_cache=not args.no_cache)
    mode = "analytical" if args.analytical else "simulated"
    print(format_table(rows, title=f"Invalidation sweep ({mode}, "
                                   f"{args.mesh}x{args.mesh}, "
                                   f"{args.kind} sharers)"))
    return 0


def cmd_app(args) -> int:
    """``repro app``: run an application on the DSM."""
    from repro.workloads import apsp, barnes_hut, lu, paper_app_configs

    params = paper_parameters(args.mesh)
    if args.paper_scale:
        configs = paper_app_configs()
    else:
        configs = {
            "barnes-hut": barnes_hut.BHConfig(bodies=64, steps=2,
                                              processors=16),
            "lu": lu.LUConfig(n=64, block=8, processors=16),
            "apsp": apsp.APSPConfig(vertices=32, processors=16),
        }
    row = run_application_experiment(args.name, args.scheme,
                                     params=params,
                                     app_config=configs[args.name])
    print(format_table([row], columns=[
        "app", "scheme", "execution_cycles", "execution_ms", "references",
        "misses", "invalidations", "inval_latency"]))
    return 0


def cmd_tables(args) -> int:
    """``repro tables``: regenerate Table 4 or Table 5."""
    params = paper_parameters(args.mesh)
    if args.which == 4:
        print(format_table(miss_latency_micro(params),
                           title="Table 4: typical memory miss latencies "
                                 "(5 ns cycles)"))
    else:
        print(format_table(read_miss_breakdown(params),
                           title="Table 5: clean read miss to a "
                                 "neighboring node"))
    return 0


def cmd_report(args) -> int:
    """``repro report``: run the full evaluation into a markdown file."""
    from repro.analysis.report import generate_report

    text = generate_report(scale=args.scale, seed=args.seed,
                           progress=lambda msg: print(f"[report] {msg}"),
                           jobs=_jobs(args), use_cache=not args.no_cache)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


def cmd_faults(args) -> int:
    """``repro faults``: chaos sweep of the recovery protocol."""
    from repro.analysis.experiments import (format_fault_table,
                                            run_fault_sweep)

    params = paper_parameters(args.mesh,
                              fault_aware_routing=args.fault_aware,
                              detour_limit=args.detour_limit)
    rows = run_fault_sweep(args.schemes, args.drop_probs,
                           degree=args.degree, per_point=args.per_point,
                           params=params, link_faults=args.link_faults,
                           router_faults=args.router_faults,
                           seed=args.seed, jobs=_jobs(args),
                           use_cache=not args.no_cache)
    routing_note = ", fault-aware routing" if args.fault_aware else ""
    print(format_fault_table(
        rows, columns=["scheme", "drop_prob", "issued", "completed",
                       "failed", "completion_rate", "retries",
                       "downgrades", "reroutes", "latency", "latency_x"],
        title=f"Fault-recovery sweep ({args.mesh}x{args.mesh}, "
              f"degree {args.degree}, {args.link_faults} link / "
              f"{args.router_faults} router fault(s){routing_note})"))
    return 0


def cmd_chaos(args) -> int:
    """``repro chaos``: soak seeded scenarios; bundle any failures."""
    from repro.chaos import run_chaos

    summary = run_chaos(args.seeds, smoke=args.smoke, audit=args.audit,
                        out_dir=args.out_dir, base_seed=args.base_seed,
                        mutation=args.mutation,
                        max_shrink_runs=args.max_shrink_runs,
                        log=lambda msg: print(f"[chaos] {msg}"),
                        jobs=_jobs(args),
                        use_cache=args.use_cache and not args.no_cache)
    print(f"chaos soak: {summary['passed']}/{summary['seeds']} passed, "
          f"{summary['failed']} failed "
          f"({summary['expected_txn_failures']} expected transaction "
          f"failures under fault storms)")
    for path in summary["bundles"]:
        print(f"  repro bundle: {path}")
    return 0 if summary["failed"] == 0 else 1


def cmd_replay(args) -> int:
    """``repro replay``: deterministically re-run a repro bundle."""
    from repro.chaos import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"cannot load bundle: {exc}", file=sys.stderr)
        return 2
    result, matched = replay_bundle(bundle)
    scenario = result.scenario
    print(f"scenario: seed={scenario.seed} "
          f"mesh={scenario.mesh_width}x{scenario.mesh_height} "
          f"scheme={scenario.scheme} blocks={scenario.blocks} "
          f"refs={scenario.refs_per_node} faults="
          f"{'yes' if scenario.has_faults else 'no'}")
    print(f"expected: {bundle['signature']}")
    print(f"observed: {result.signature or 'ok'}")
    if result.message:
        # Violation messages embed the trail; it is printed separately.
        print(f"message:  {result.message.splitlines()[0]}")
    if matched and result.trail and args.trail > 0:
        print("protocol-event trail (most recent last):")
        for line in result.trail[-args.trail:]:
            print(f"  {line}")
    if matched:
        print("signature reproduced")
        return 0
    print("signature NOT reproduced")
    return 1


def cmd_serve(args) -> int:
    """``repro serve``: run the HTTP simulation service until
    interrupted."""
    import asyncio

    from repro.runner import ResultCache, default_cache
    from repro.serve import SimulationService, run_server

    config = _config(ServiceConfig, args, policy=_config(RetryPolicy, args))
    serve_config = _config(ServeConfig, args)
    # None = flag not given (ResultCache falls back to
    # $REPRO_CACHE_QUOTA); an explicit 0 disables any env quota.
    if args.cache_dir is not None or args.cache_quota_mib is not None:
        quota = (None if args.cache_quota_mib is None
                 else int(args.cache_quota_mib * (1 << 20)))
        cache = ResultCache(args.cache_dir, quota_bytes=quota)
    else:
        cache = default_cache()
    service = SimulationService(cache=cache, config=config)

    def ready(address):
        host, port = address
        print(f"serving on http://{host}:{port} "
              f"({service.workers} {args.executor} worker(s), cache "
              f"{cache.root})")
        print("endpoints: POST /jobs, GET /jobs/<id>[?stream=1], "
              "GET /results/<digest>, GET /metrics, GET /healthz")

    try:
        asyncio.run(run_server(service, args.host, args.port,
                               ready=ready, config=serve_config))
    except KeyboardInterrupt:
        print("interrupted — shutting down")
    except (OSError, OverflowError) as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def cmd_load(args) -> int:
    """``repro load``: load-test a running serve endpoint."""
    import asyncio
    import json as _json
    from urllib.parse import urlsplit

    from repro.serve.loadtest import run_load

    parts = urlsplit(args.url if "//" in args.url
                     else f"http://{args.url}")
    host, port = parts.hostname or "127.0.0.1", parts.port or 80
    specs = [{"scheme": scheme, "mesh": args.mesh,
              "degrees": args.degrees, "per_degree": args.per_degree,
              "seed": args.seed}
             for scheme in args.schemes]
    try:
        stats = asyncio.run(run_load(host, port, specs,
                                     clients=args.clients,
                                     requests=args.requests))
    except (OSError, ConnectionError) as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2
    print(f"{stats['requests']} requests over {stats['clients']} "
          f"connection(s) in {stats['elapsed_s']:.2f}s")
    print(f"  {stats['requests_per_sec']:.0f} req/s, p50 "
          f"{stats['p50_ms']:.2f} ms, p99 {stats['p99_ms']:.2f} ms, "
          f"max {stats['max_ms']:.2f} ms")
    print(f"  hit rate {stats['hit_rate']:.3f} (sources "
          f"{stats['sources']}), {stats['errors']} error(s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if stats["errors"] == 0 else 1


def cmd_cache(args) -> int:
    """``repro cache``: inspect, scrub or wipe the sweep result cache."""
    from repro.runner import ResultCache, default_cache

    # --dir gets its own handle; the default root shares the memoized
    # process-default instance (true lifetime counters).
    cache = ResultCache(args.dir) if args.dir is not None \
        else default_cache()
    if args.action == "info":
        info = cache.info()
        print(f"cache root: {info['root']}")
        print(f"entries:    {info['entries']}")
        print(f"bytes:      {info['bytes']}")
        print(f"corrupt entries purged: {info['corrupt_purged']}")
        return 0
    if args.action == "fsck":
        report = cache.fsck()
        print(f"cache root: {report['root']}")
        print(f"scanned:    {report['scanned']} entr"
              f"{'y' if report['scanned'] == 1 else 'ies'} "
              f"({report['bytes']} bytes)")
        print(f"ok:         {report['ok']}")
        print(f"purged:     {report['purged']} (checksum/schema "
              f"failures)")
        if report["quota_bytes"]:
            state = ("OVER QUOTA" if report["over_quota"]
                     else "within quota")
            print(f"quota:      {report['quota_bytes']} bytes "
                  f"({state})")
        return 0 if report["purged"] == 0 else 1
    removed = cache.clear()
    print(f"cleared {removed} cache entr"
          f"{'y' if removed == 1 else 'ies'} from {cache.root}")
    return 0


def cmd_worms(args) -> int:
    """``repro worms``: ASCII-draw a scheme's worm paths."""
    from repro.analysis.plotting import worm_map
    from repro.core import build_plan
    from repro.network.topology import Mesh2D

    mesh = Mesh2D(args.mesh, args.mesh)
    sharers = [mesh.node_at(*xy) for xy in args.sharers]
    print(worm_map(mesh, build_plan(args.scheme, mesh,
                                    mesh.node_at(*args.home), sharers)))
    return 0


def _axis_value(text: str):
    """One ``--axis`` value: an int, a float or ``true``/``false`` when
    it reads as one, else the string itself (``SystemParameters``
    rejects a value of the wrong type)."""
    if text in ("true", "false"):
        return text == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def cmd_atlas(args) -> int:
    """``repro atlas``: screen -> calibrate -> refine -> report."""
    from pathlib import Path

    from repro.explore.atlas import build_atlas, write_atlas
    from repro.explore.calibrate import calibrate
    from repro.explore.grid import ScreenGrid, screen
    from repro.explore.refine import check_refine, refine

    if not args.no_refine:
        check_refine(args.budget_fraction, args.tol, args.max_rounds)
    axes: dict[str, tuple] = {}
    if args.encodings:
        axes["multidest_encoding"] = tuple(args.encodings)
    if args.channels:
        axes["consumption_channels"] = tuple(args.channels)
    for spec in args.axis:
        name, _, values = spec.partition("=")
        axes[name] = tuple(_axis_value(v) for v in values.split(",") if v)
    grid = ScreenGrid.make(meshes=tuple(tuple(m) for m in args.meshes),
                           degrees=tuple(args.degrees),
                           schemes=tuple(args.schemes), kind=args.kind,
                           per_degree=args.per_degree, seed=args.seed,
                           axes=axes)
    result = screen(grid)
    stats = result.stats
    print(f"screened {result.n_configs:,} configurations "
          f"({len(result)} analytical cells) in "
          f"{stats['elapsed_s']:.2f}s "
          f"({stats['configs_per_s']:,.0f} configs/s)")

    calib = calibrate(result, per_scheme=args.calibrate_per_scheme,
                      seed=args.seed, jobs=_jobs(args),
                      use_cache=not args.no_cache)
    print(f"calibrated {calib.meta['simulated_cells']} cells; "
          f"max band width {calib.max_width:.3f}")
    if not args.no_refine:
        report = refine(result, calib,
                        budget_fraction=args.budget_fraction,
                        tol=args.tol, max_rounds=args.max_rounds,
                        jobs=_jobs(args), use_cache=not args.no_cache)
        print(f"refined {report.simulated_cells} cells over "
              f"{report.rounds} rounds "
              f"(sim fraction {report.sim_fraction * 100:.2f}%, "
              f"{'converged' if report.converged else 'budget-bound'})")
    atlas = build_atlas(result, calib)
    paths = write_atlas(atlas, Path(args.out))
    meta = atlas["meta"]
    print(f"atlas: {meta['n_regions']} regions, "
          f"{meta['confident_regions']} confident -> "
          f"{paths['markdown']} / {paths['json']}")
    return 0


_COMMANDS = {
    "info": cmd_info,
    "sweep": cmd_sweep,
    "figs": cmd_sweep,
    "app": cmd_app,
    "tables": cmd_tables,
    "report": cmd_report,
    "worms": cmd_worms,
    "faults": cmd_faults,
    "chaos": cmd_chaos,
    "replay": cmd_replay,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "load": cmd_load,
    "atlas": cmd_atlas,
}


def _run_profiled(args) -> int:
    """Run a command under cProfile; dump hot functions and the
    per-phase cycle counters of every network the command built."""
    import cProfile
    import io
    import pstats

    from repro.network import network as network_mod

    networks: list = []
    network_mod.PROFILE_REGISTRY = networks
    profiler = cProfile.Profile()
    try:
        rc = profiler.runcall(_COMMANDS[args.command], args)
    finally:
        network_mod.PROFILE_REGISTRY = None
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(20)
    print("\n== cProfile: top 20 by total time ==", file=sys.stderr)
    print(stream.getvalue(), file=sys.stderr)
    for i, net in enumerate(networks):
        counters = net.phase_counters()
        print(f"== network[{i}] per-phase counters ==", file=sys.stderr)
        for key, value in counters.items():
            shown = f"{value:.3f}" if isinstance(value, float) else value
            print(f"  {key:<22} {shown}", file=sys.stderr)
    return rc


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 for a bad
    configuration, from any command)."""
    args = build_parser().parse_args(argv)
    try:
        if args.profile:
            return _run_profiled(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
