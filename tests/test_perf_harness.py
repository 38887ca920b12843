"""The performance harness and the --profile CLI hook, smoke-tested
in-process (no subprocesses, smallest workload scale)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "perf_harness", REPO_ROOT / "benchmarks" / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_workload_reports_cycles_and_counters(harness):
    result = harness.run_workload("fig_column_traffic", "smoke")
    assert result["cycles"] > 0
    assert result["dispatched"] > 0
    assert result["networks"] >= 1
    assert set(result["counters"]) >= {
        "cycles_stepped", "moves_applied", "busy_sorts",
        "total_flit_hops"}


def test_bench_one_matches_pinned_baseline(harness):
    entry = harness.bench_one("fig_column_traffic", "smoke", repeats=2)
    assert entry["deterministic_match"] is True
    assert entry["pinned_match"] is True and entry["problems"] == []
    digest, cycles, dispatched = \
        harness.BASELINE["smoke"]["fig_column_traffic"]
    assert (entry["digest"], entry["cycles"], entry["dispatched"]) == \
        (digest, cycles, dispatched)


def test_stall_workload_soa_skips_and_matches(harness):
    """The stall workload is where the structure-of-arrays engine's
    cycle skipping pays: it must skip at least the pinned number of
    cycles, yet the output matches the baseline."""
    entry = harness.bench_one("fig_iack_stall", "smoke")
    assert entry["pinned_match"] is True
    counters = entry["counters"]
    assert counters["cycles_skipped"] >= harness.MIN_SKIPPED["smoke"]
    assert counters["cycles_stepped"] + counters["cycles_skipped"] == \
        entry["cycles"]


def test_baseline_problems_name_every_departure(harness):
    run = harness.run_workload("fig_iack_stall", "smoke")
    run["digest"] = "0" * 64
    run["counters"]["cycles_skipped"] = 0
    problems = harness.baseline_problems("fig_iack_stall", "smoke", run)
    assert len(problems) == 2
    assert problems[0].startswith("digest")
    assert problems[1].startswith("skipped 0 cycles")


def test_main_smoke_writes_schema(harness, tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    rc = harness.main(["--smoke", "--jobs", "1", "--out", str(out),
                       "--workloads", "fig_column_traffic"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 4
    assert payload["scale"] == "smoke"
    assert payload["all_deterministic"] is True
    assert payload["all_pinned"] is True
    run = payload["workloads"]["fig_column_traffic"]
    assert run["wall_s"] >= 0
    assert run["cycles"] > 0 and run["cycles_per_s"] > 0
    assert run["dispatched"] > 0 and run["dispatched_per_s"] > 0
    assert len(run["digest"]) == 64
    parallel = payload["parallel"]
    assert parallel["deterministic_match"] is True
    assert parallel["serial_wall_s"] > 0
    assert parallel["cache_hits"] == len(parallel["sweep"]["schemes"])
    assert parallel["cache_replay_speedup"] > 1
    captured = capsys.readouterr()
    assert "matches baseline" in captured.out
    assert "parallel sweep:" in captured.out


def test_main_skip_parallel_omits_section(harness, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    rc = harness.main(["--smoke", "--jobs", "1", "--out", str(out),
                       "--workloads", "fig_column_traffic",
                       "--skip-parallel"])
    assert rc == 0
    assert json.loads(out.read_text())["parallel"] is None


def test_main_fails_on_pinned_mismatch(harness, tmp_path, capsys,
                                       monkeypatch):
    """A changed simulated output exits 1 — the gate that replaced the
    cross-kernel digest check."""
    pins = dict(harness.BASELINE["smoke"])
    digest, cycles, dispatched = pins["fig_iack_buffers"]
    pins["fig_iack_buffers"] = (digest, cycles + 1, dispatched)
    monkeypatch.setitem(harness.BASELINE, "smoke", pins)
    out = tmp_path / "BENCH_perf.json"
    rc = harness.main(["--smoke", "--jobs", "1", "--out", str(out),
                       "--workloads", "fig_iack_buffers",
                       "--skip-parallel"])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"cycles {cycles} != pinned {cycles + 1}" in captured.out
    assert "committed baseline" in captured.err
    assert json.loads(out.read_text())["all_pinned"] is False


def test_bench_parallel_no_cache_measurement(harness):
    section = harness.bench_parallel("smoke", parallel_jobs=2,
                                     measure_cache=False)
    assert section["deterministic_match"] is True
    assert section["cache_measured"] is False
    assert "cache_warm_wall_s" not in section
    assert section["jobs"] == 2


def test_bench_parallel_publishes_no_speedup_on_one_cpu(harness,
                                                        monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    section = harness.bench_parallel("smoke")
    assert section["cpu_count"] == 1
    assert section["parallel_speedup"] is None
    assert section["parallel_wall_s"] is None
    assert "1 CPU" in section["parallel_note"]
    # The cache-replay half still runs.
    assert section["cache_hits"] == len(section["sweep"]["schemes"])
    assert section["deterministic_match"] is True


def test_main_rejects_unknown_workload(harness, tmp_path):
    with pytest.raises(SystemExit):
        harness.main(["--workloads", "no_such_figure",
                      "--out", str(tmp_path / "x.json")])


def test_committed_bench_perf_json_is_fresh(harness):
    """The repo-root BENCH_perf.json artifact must match the current
    harness schema and the committed baseline."""
    payload = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    assert payload["schema"] == 4
    assert payload["representative"] in payload["workloads"]
    assert payload["all_deterministic"] is True
    assert payload["all_pinned"] is True
    pins = harness.BASELINE[payload["scale"]]
    assert set(payload["workloads"]) == set(pins)
    for name, run in payload["workloads"].items():
        assert (run["digest"], run["cycles"], run["dispatched"]) == \
            pins[name], name
    # Cycle skipping elides the multi-thousand-cycle i-ack wait windows.
    stall = payload["workloads"]["fig_iack_stall"]["counters"]
    assert stall["cycles_skipped"] >= harness.MIN_SKIPPED[payload["scale"]]
    parallel = payload["parallel"]
    assert parallel["deterministic_match"] is True
    assert parallel["cache_replay_speedup"] >= 10
    if parallel["cpu_count"] < 2:
        # A 1-CPU host publishes no speedup, only the reason.
        assert parallel["parallel_speedup"] is None
        assert parallel["parallel_note"]
    elif parallel["cpu_count"] >= 4:
        # The >= 1.8x parallel-scaling bar applies on multi-core hosts.
        assert parallel["parallel_speedup"] >= 1.8


def test_cli_profile_flag_prints_counters(capsys):
    from repro.cli import main
    from repro.network import network as network_mod

    rc = main(["--profile", "sweep", "--schemes", "ui-ua",
               "--degrees", "2", "--per-degree", "1", "--mesh", "4"])
    assert rc == 0
    assert network_mod.PROFILE_REGISTRY is None  # reset afterwards
    captured = capsys.readouterr()
    assert "cProfile: top 20 by total time" in captured.err
    assert "per-phase counters" in captured.err
    assert "busy_sort_rate" in captured.err
    assert "cycles_stepped" in captured.err
