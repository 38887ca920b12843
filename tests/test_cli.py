"""CLI smoke tests (stdout-captured)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run_cli(capsys, "info", "--mesh", "4")
    assert code == 0
    assert "mesh_width" in out
    assert "num_nodes (derived)" in out
    assert "16" in out


def test_sweep_simulated(capsys):
    code, out = run_cli(capsys, "sweep", "--schemes", "ui-ua,mi-ma-ec",
                        "--degrees", "2,4", "--per-degree", "2",
                        "--mesh", "4")
    assert code == 0
    assert "ui-ua" in out and "mi-ma-ec" in out
    assert "simulated" in out


def test_sweep_analytical(capsys):
    code, out = run_cli(capsys, "sweep", "--schemes", "ui-ua",
                        "--degrees", "2", "--per-degree", "2",
                        "--analytical")
    assert code == 0
    assert "analytical" in out


def test_sweep_rejects_bad_scheme(capsys):
    code = main(["sweep", "--schemes", "warp-speed"])
    assert code == 2


def test_figs_alias_with_jobs_and_no_cache(capsys):
    code, out = run_cli(capsys, "figs", "--schemes", "ui-ua",
                        "--degrees", "2", "--per-degree", "2",
                        "--mesh", "4", "--jobs", "2", "--no-cache")
    assert code == 0
    assert "ui-ua" in out and "simulated" in out


def test_sweep_matches_figs_alias(capsys):
    argv = ["--schemes", "ui-ua", "--degrees", "2,4", "--per-degree",
            "2", "--mesh", "4"]
    code_a, out_a = run_cli(capsys, "sweep", *argv)
    code_b, out_b = run_cli(capsys, "figs", *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sweep_rejects_bad_jobs(capsys):
    code = main(["sweep", "--schemes", "ui-ua", "--degrees", "2",
                 "--mesh", "4", "--jobs", "-3"])
    assert code == 2
    assert "jobs" in capsys.readouterr().err


def test_faults_with_jobs_and_no_cache(capsys):
    code, out = run_cli(capsys, "faults", "--schemes", "ui-ua",
                        "--drop-probs", "0.0,0.05", "--degree", "4",
                        "--per-point", "2", "--mesh", "4",
                        "--jobs", "2", "--no-cache")
    assert code == 0
    assert "completion_rate" in out


def test_faults_rejects_bad_jobs(capsys):
    code = main(["faults", "--schemes", "ui-ua", "--mesh", "4",
                 "--jobs", "-1"])
    assert code == 2


def test_cache_info_and_clear(capsys, tmp_path):
    import repro.runner as runner

    cache = runner.ResultCache(str(tmp_path))
    cache.store(cache.digest({"k": 1}), {"k": 1}, "v")
    code, out = run_cli(capsys, "cache", "info", "--dir", str(tmp_path))
    assert code == 0
    assert "entries:    1" in out and str(tmp_path) in out
    code, out = run_cli(capsys, "cache", "clear", "--dir", str(tmp_path))
    assert code == 0
    assert "cleared 1 cache entry" in out
    code, out = run_cli(capsys, "cache", "info", "--dir", str(tmp_path))
    assert "entries:    0" in out


def test_cache_info_reports_corruption(capsys, tmp_path):
    import repro.runner as runner

    cache = runner.ResultCache(str(tmp_path))
    d = cache.digest({"k": 1})
    cache.store(d, {"k": 1}, "v")
    with open(cache._path(d), "wb") as fh:
        fh.write(b"bit rot")
    assert cache.load(d, {"k": 1}) is runner.MISS  # purged + counted
    code, out = run_cli(capsys, "cache", "info", "--dir", str(tmp_path))
    assert code == 0
    assert "corrupt entries purged: 1" in out
    code, out = run_cli(capsys, "cache", "clear", "--dir", str(tmp_path))
    assert code == 0
    code, out = run_cli(capsys, "cache", "info", "--dir", str(tmp_path))
    assert "corrupt entries purged: 0" in out


def test_cache_fsck_scrubs_and_sets_exit_code(capsys, tmp_path):
    import repro.runner as runner

    cache = runner.ResultCache(str(tmp_path))
    for i in range(2):
        cache.store(cache.digest({"k": i}), {"k": i}, f"v{i}")
    with open(cache._path(cache.digest({"k": 0})), "r+b") as fh:
        fh.seek(10)
        fh.write(b"\xde\xad")
    # Exit 1 signals "something was purged" (scriptable scrub).
    code, out = run_cli(capsys, "cache", "fsck", "--dir", str(tmp_path))
    assert code == 1
    assert "scanned:    2" in out
    assert "ok:         1" in out
    assert "purged:     1" in out
    # A clean tree fscks to exit 0 — and the purge stuck.
    code, out = run_cli(capsys, "cache", "fsck", "--dir", str(tmp_path))
    assert code == 0
    assert "scanned:    1" in out and "purged:     0" in out


def test_tables(capsys):
    code, out = run_cli(capsys, "tables", "--which", "4")
    assert code == 0
    assert "read miss" in out
    code, out = run_cli(capsys, "tables", "--which", "5")
    assert code == 0
    assert "TOTAL (simulated)" in out


def test_worms(capsys):
    code, out = run_cli(capsys, "worms", "--scheme", "mi-ua-tm",
                        "--home", "4,3", "--sharers", "1,1 6,5")
    assert code == 0
    assert "@" in out
    assert "worm(s)" in out


def test_app_small(capsys):
    code, out = run_cli(capsys, "app", "--name", "apsp", "--scheme",
                        "mi-ua-ec", "--mesh", "4")
    assert code == 0
    assert "apsp" in out
    assert "execution_cycles" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


def test_report_scale_validation():
    from repro.analysis.report import generate_report
    with pytest.raises(ValueError, match="scale"):
        generate_report(scale="galactic")


def test_report_smoke_scale_generates_full_document():
    from repro.analysis.report import generate_report
    text = generate_report(scale="smoke", seed=3)
    assert "# Reproduction report" in text
    assert "## Table 4" in text and "## Table 5" in text
    assert "Invalidation cost vs degree" in text
    assert "Analytical model vs simulation" in text
    assert "Application execution time" in text
    assert "mi-ma-ec" in text


def test_chaos_smoke(capsys, tmp_path):
    code, out = run_cli(capsys, "chaos", "--seeds", "2", "--smoke",
                        "--out-dir", str(tmp_path))
    assert code == 0
    assert "2/2 passed" in out


def test_chaos_parallel_with_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, out = run_cli(capsys, "chaos", "--seeds", "2", "--smoke",
                        "--jobs", "2", "--cache",
                        "--out-dir", str(tmp_path))
    assert code == 0
    assert "2/2 passed" in out
    code, out_warm = run_cli(capsys, "chaos", "--seeds", "2", "--smoke",
                             "--jobs", "2", "--cache",
                             "--out-dir", str(tmp_path))
    assert code == 0
    assert "2/2 passed" in out_warm


def test_chaos_rejects_bad_jobs(capsys):
    code = main(["chaos", "--seeds", "1", "--smoke", "--jobs", "-2"])
    assert code == 2


def test_chaos_rejects_unknown_mutation(capsys):
    code = main(["chaos", "--seeds", "1", "--mutation", "gremlins"])
    assert code == 2


def test_chaos_mutation_then_replay(capsys, tmp_path):
    code, out = run_cli(capsys, "chaos", "--seeds", "1", "--smoke",
                        "--mutation", "stale-sharer",
                        "--max-shrink-runs", "8",
                        "--out-dir", str(tmp_path))
    assert code == 1
    assert "repro bundle:" in out
    [bundle] = [line.split(": ", 1)[1] for line in out.splitlines()
                if "repro bundle:" in line]
    code, out = run_cli(capsys, "replay", bundle)
    assert code == 0
    assert "signature reproduced" in out
    assert "protocol-event trail" in out


def test_replay_missing_bundle(capsys):
    code = main(["replay", "/nonexistent/bundle.json"])
    assert code == 2


def test_serve_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve"])
    assert (args.host, args.port) == ("127.0.0.1", 8642)
    assert args.executor == "process"
    assert args.workers == 0 and args.queue_depth == 256
    assert args.rate == 0.0 and args.burst == 16
    assert args.job_timeout == 300.0 and args.job_retries == 2
    # Resilience knobs (breaker off, degraded off, sane deadlines).
    assert args.breaker_threshold == 0
    assert args.breaker_cooldown == 30.0
    assert args.degraded is False
    # None = "not given": the cache falls back to $REPRO_CACHE_QUOTA,
    # and an explicit --cache-quota-mib 0 can override that env var.
    assert args.cache_quota_mib is None
    assert (args.header_timeout, args.body_timeout) == (10.0, 20.0)
    assert (args.idle_timeout, args.write_timeout) == (60.0, 20.0)
    assert args.max_connections == 256 and args.drain == 10.0


@pytest.mark.parametrize("flags", [
    ["--queue-depth", "0"],
    ["--breaker-threshold", "-1"],
    ["--breaker-cooldown", "0"],
    ["--header-timeout", "-1"],
    ["--max-connections", "-1"],
    ["--drain", "-1"],
    ["--cache-quota-mib", "-1"],
    ["--job-retries", "-1"],
    ["--job-timeout", "-5"],
])
def test_serve_rejects_bad_config(capsys, flags):
    code = main(["serve", *flags])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_serve_explicit_zero_quota_overrides_env(monkeypatch, tmp_path):
    """--cache-quota-mib 0 must disable a REPRO_CACHE_QUOTA quota, not
    silently fall through to it."""
    monkeypatch.setenv("REPRO_CACHE_QUOTA", str(1 << 20))
    built = {}

    async def fake_run_server(service, *args, **kwargs):
        built["service"] = service

    monkeypatch.setattr("repro.serve.run_server", fake_run_server)
    code = main(["serve", "--cache-dir", str(tmp_path / "c"),
                 "--cache-quota-mib", "0"])
    assert code == 0
    assert built["service"].cache.quota_bytes == 0

    # Flag absent: the env quota applies.
    code = main(["serve", "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    assert built["service"].cache.quota_bytes == 1 << 20


def test_load_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["load"])
    assert args.url == "http://127.0.0.1:8642"
    assert args.clients == 8 and args.requests == 50
    assert args.degrees == [2, 4] and args.mesh == 4


def test_load_unreachable_endpoint_fails_gracefully(capsys):
    code = main(["load", "--url", "http://127.0.0.1:1",
                 "--clients", "1", "--requests", "1"])
    assert code == 2


def test_serve_and_load_round_trip(capsys, tmp_path):
    """Boot the served stack in-process and drive it with run_load."""
    import asyncio

    from repro.runner import ResultCache
    from repro.serve import (ServeServer, ServiceConfig,
                             SimulationService, run_load)

    async def main_coro():
        service = SimulationService(
            cache=ResultCache(str(tmp_path / "cache")),
            config=ServiceConfig(workers=2, executor="thread"))
        await service.start()
        server = ServeServer(service, "127.0.0.1", 0)
        await server.start()
        host, port = server.address
        try:
            spec = {"scheme": "ui-ua", "mesh": 2, "degrees": [2],
                    "per_degree": 1, "seed": 0}
            return await run_load(host, port, [spec], clients=2,
                                  requests=4)
        finally:
            await server.close()
            await service.close()

    stats = asyncio.run(main_coro())
    assert stats["errors"] == 0 and stats["requests"] == 8


def test_atlas_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["atlas"])
    assert args.meshes == [(4, 4), (8, 8)]
    assert args.degrees == [1, 2, 4, 8, 16]
    assert args.per_degree == 3 and args.seed == 0
    assert args.calibrate_per_scheme == 3
    assert args.budget_fraction == 0.05 and args.max_rounds == 4
    assert args.out == "results"


def test_atlas_rejects_bad_scheme(capsys):
    code = main(["atlas", "--schemes", "warp-speed"])
    assert code == 2


def test_atlas_rejects_bad_axis(capsys):
    code = main(["atlas", "--axis", "router_delay"])
    assert code == 2


def test_atlas_axis_value_of_the_wrong_type_exits_2(capsys):
    code = main(["atlas", "--axis", "router_delay=x", "--meshes", "4x4",
                 "--degrees", "2", "--schemes", "ui-ua"])
    assert code == 2
    assert "router_delay must be an integer" in capsys.readouterr().err
    # "nan" parses as a float, which is no number to SystemParameters.
    code = main(["atlas", "--axis", "net_cycle_ns=nan", "--meshes", "4x4",
                 "--degrees", "2", "--schemes", "ui-ua"])
    assert code == 2
    assert "net_cycle_ns must be a number" in capsys.readouterr().err


def test_atlas_axis_values_parse_as_int_float_or_bool():
    from repro.cli import _axis_value

    assert [_axis_value(v) for v in ("3", "-2", "2.5", "true", "false",
                                     "list")] == \
        [3, -2, 2.5, True, False, "list"]
    assert type(_axis_value("3")) is int


@pytest.mark.parametrize("axis", ["net_cycle_ns=2.5,5",
                                  "deferred_delivery=true,false"])
def test_atlas_runs_float_and_bool_axes(capsys, tmp_path, axis):
    code, out = run_cli(
        capsys, "atlas", "--meshes", "4x4", "--degrees", "2",
        "--per-degree", "1", "--schemes", "ui-ua",
        "--calibrate-per-scheme", "1", "--no-refine", "--jobs", "1",
        "--no-cache", "--encodings", "bitstring", "--axis", axis,
        "--out", str(tmp_path / "atlas"))
    assert code == 0
    assert "screened 6 configurations" in out  # x 3 default channels


@pytest.mark.parametrize("degrees", ["2,12", "8"])
def test_atlas_column_degrees_within_clusters(capsys, tmp_path, degrees):
    """Degree 12 cannot be drawn from two columns of a 4x4 mesh and is
    screened out; degree 8 fills them and draws."""
    code, out = run_cli(
        capsys, "atlas", "--meshes", "4x4", "--kind", "column",
        "--degrees", degrees, "--per-degree", "1", "--schemes", "ui-ua",
        "--calibrate-per-scheme", "1", "--no-refine", "--jobs", "1",
        "--no-cache", "--encodings", "bitstring",
        "--out", str(tmp_path / "atlas"))
    assert code == 0
    assert "atlas:" in out


def test_atlas_smoke_writes_artifacts(capsys, tmp_path):
    code, out = run_cli(
        capsys, "atlas", "--meshes", "4x4", "--degrees", "1,2",
        "--per-degree", "1", "--schemes", "ui-ua,mi-ma-ec",
        "--calibrate-per-scheme", "1", "--no-refine", "--jobs", "1",
        "--no-cache", "--encodings", "bitstring",
        "--out", str(tmp_path / "atlas"))
    assert code == 0
    assert "screened" in out and "calibrated" in out and "atlas:" in out
    import json as _json
    atlas = _json.loads((tmp_path / "atlas" / "atlas.json").read_text())
    assert atlas["meta"]["n_regions"] == 2
    assert (tmp_path / "atlas" / "atlas.md").exists()


#: Every (command, flag, default) of the CLI; "" holds the global flags.
#: Positional arguments are listed by their dest.
INVENTORY = {
    "": {"--profile": False},
    "info": {"--mesh": 8},
    "sweep": {"--schemes": ["ui-ua", "mi-ua-ec", "mi-ma-ec"],
              "--degrees": [2, 4, 8, 16], "--mesh": 8, "--per-degree": 5,
              "--kind": "uniform", "--seed": 0, "--analytical": False,
              "--jobs": None, "--no-cache": False},
    "app": {"--name": None, "--scheme": "ui-ua", "--mesh": 4,
            "--paper-scale": False},
    "tables": {"--which": 4, "--mesh": 8},
    "report": {"--out": "results.md", "--scale": "ci", "--seed": 11,
               "--jobs": None, "--no-cache": False},
    "faults": {"--schemes": ["ui-ua", "mi-ua-ec", "mi-ma-ec"],
               "--drop-probs": [0.0, 0.01, 0.05, 0.1], "--link-faults": 0,
               "--router-faults": 0, "--degree": 8, "--per-point": 10,
               "--mesh": 8, "--seed": 0, "--fault-aware": False,
               "--detour-limit": 8, "--jobs": None, "--no-cache": False},
    "chaos": {"--seeds": 25, "--base-seed": 0, "--smoke": False,
              "--audit": "full", "--out-dir": "chaos-bundles",
              "--mutation": None, "--max-shrink-runs": 48, "--jobs": None,
              "--cache": False, "--no-cache": False},
    "cache": {"action": None, "--dir": None},
    "serve": {"--host": "127.0.0.1", "--port": 8642, "--workers": 0,
              "--executor": "process", "--queue-depth": 256, "--rate": 0.0,
              "--burst": 16, "--job-timeout": 300.0, "--job-retries": 2,
              "--cache-dir": None, "--cache-quota-mib": None,
              "--breaker-threshold": 0, "--breaker-cooldown": 30.0,
              "--degraded": False, "--header-timeout": 10.0,
              "--body-timeout": 20.0, "--idle-timeout": 60.0,
              "--write-timeout": 20.0, "--max-connections": 256,
              "--drain": 10.0},
    "load": {"--url": "http://127.0.0.1:8642", "--clients": 8,
             "--requests": 50, "--schemes": ["ui-ua", "mi-ua-ec", "mi-ma-ec"],
             "--mesh": 4, "--degrees": [2, 4], "--per-degree": 2, "--seed": 0,
             "--out": None},
    "replay": {"bundle": None, "--trail": 20},
    "worms": {"--scheme": "mi-ua-ec", "--mesh": 8, "--home": (4, 3),
              "--sharers": "1,1 1,5 3,6 6,2 6,5"},
    "atlas": {"--meshes": [(4, 4), (8, 8)], "--degrees": [1, 2, 4, 8, 16],
              "--schemes": ["ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec",
                            "mi-ma-ec", "mi-ma-tm", "sci-chain"],
              "--kind": "uniform", "--per-degree": 3, "--seed": 0,
              "--encodings": ["bitstring", "list"], "--channels": [1, 2, 4],
              "--axis": [], "--calibrate-per-scheme": 3,
              "--budget-fraction": 0.05, "--tol": 0.02, "--max-rounds": 4,
              "--no-refine": False, "--out": "results", "--jobs": None,
              "--no-cache": False},
}
INVENTORY["figs"] = INVENTORY["sweep"]


def _flag_defaults(parser):
    import argparse

    return {(a.option_strings[-1] if a.option_strings else a.dest): a.default
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction,
                                  argparse._SubParsersAction))}


def test_cli_inventory_is_pinned():
    """No flag appears, disappears, is renamed or changes its default
    without this table changing too; every --help renders."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    seen = {"": _flag_defaults(parser)}
    for name, subparser in sub.choices.items():
        seen[name] = _flag_defaults(subparser)
        # argparse %-formats help strings: a bare % would crash here.
        assert subparser.format_help().startswith("usage: repro ")
    assert seen == INVENTORY
    assert parser.format_help().startswith("usage: repro ")


@pytest.mark.parametrize("argv", [
    ["info", "--mesh", "0"],
    ["tables", "--mesh", "0"],
    ["tables", "--mesh", "1"],
    ["app", "--name", "lu", "--mesh", "0"],
    ["app", "--name", "lu", "--mesh", "2"],
    ["report", "--jobs", "-3"],
    ["atlas", "--jobs", "-3", "--meshes", "4x4", "--schemes", "ui-ua"],
    ["atlas", "--per-degree", "0"],
    ["atlas", "--calibrate-per-scheme", "0", "--meshes", "4x4",
     "--schemes", "ui-ua"],
    ["atlas", "--axis", "bogus=1,2"],
    ["atlas", "--axis", "router_delay"],
    ["atlas", "--schemes", "warp-speed"],
    ["atlas", "--axis", "job_timeout=1"],
    ["atlas", "--axis", "audit=off,full"],
    ["atlas", "--axis", "multidest_header_flits=1,2"],
    ["atlas", "--budget-fraction", "-1", "--tol", "-1"],
    ["atlas", "--meshes", "4x4", "--kind", "column", "--degrees", "12"],
    ["atlas", "--meshes", "4x4,8x8", "--degrees", "20", "--schemes",
     "ui-ua"],
    ["sweep", "--degrees", "100", "--mesh", "4"],
    ["sweep", "--degrees", "0", "--mesh", "4"],
    ["sweep", "--per-degree", "0"],
    ["sweep", "--per-degree", "-1"],
    ["sweep", "--schemes", "warp-speed"],
    ["sweep", "--analytical", "--per-degree", "0"],
    ["sweep", "--kind", "column", "--degrees", "12", "--mesh", "4"],
    ["faults", "--degree", "100", "--mesh", "4"],
    ["faults", "--drop-probs", "2"],
    ["faults", "--per-point", "0"],
    ["faults", "--link-faults", "-1"],
    ["faults", "--schemes", "warp-speed"],
    ["faults", "--link-faults", "1000", "--drop-probs", "0.1", "--mesh",
     "4"],
    ["sweep", "--seed", "-1"],
    ["faults", "--seed", "-5"],
    ["report", "--seed", "-2"],
    ["atlas", "--seed", "-1"],
    ["chaos", "--seeds", "-1"],
    ["chaos", "--base-seed", "-3"],
    ["chaos", "--max-shrink-runs", "-1"],
    ["worms", "--mesh", "2"],
    ["worms", "--mesh", "4", "--sharers", "9,9"],
    ["worms", "--mesh", "4", "--home", "1,1", "--sharers", "1,1"],
    ["chaos", "--seeds", "1", "--mutation", "gremlins"],
    ["load", "--clients", "0", "--url", "http://127.0.0.1:1"],
    ["load", "--requests", "0", "--url", "http://127.0.0.1:1"],
    ["serve", "--drain", "-1"],
    ["serve", "--cache-quota-mib", "-1"],
    ["serve", "--executor", "fork"],
], ids=" ".join)
def test_bad_values_exit_2_without_traceback(capsys, argv):
    assert main(argv) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_sweep_rejects_bad_input_before_any_job(monkeypatch):
    from repro.analysis import experiments
    from repro.config import ConfigError

    def no_jobs(*args, **kwargs):
        raise AssertionError("a job ran")

    monkeypatch.setattr(experiments, "run_jobs", no_jobs)
    with pytest.raises(ConfigError, match="warp"):
        experiments.run_invalidation_sweep(["warp"], [2], per_degree=1)


@pytest.mark.parametrize("quota", ["abc", "-5"])
@pytest.mark.parametrize("argv", [
    ["cache", "info"],
    ["sweep", "--schemes", "ui-ua", "--degrees", "2", "--mesh", "4",
     "--per-degree", "1"],
])
def test_bad_cache_quota_env_exits_2(capsys, monkeypatch, tmp_path, quota,
                                     argv):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE_QUOTA", quota)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "REPRO_CACHE_QUOTA" in err


def test_serve_unbindable_port_exits_2(capsys, tmp_path):
    code = main(["serve", "--port", "99999", "--workers", "1",
                 "--executor", "thread", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "cannot bind" in capsys.readouterr().err
