"""The parallel sweep executor and its content-addressed result cache.

Golden determinism: for every sweep entry point, ``jobs=1``, ``jobs=4``
(a real process pool, even on a single-core machine), and a warm-cache
replay must produce *bit-identical* merged result streams — proven by
digest comparison over ``repr`` of the rows.  Cache invalidation: a
params change, a fault-plan change, and a code-fingerprint change must
each force a re-simulation.
"""

import dataclasses
import hashlib
import inspect
import math
import os
import pickle

import pytest

from repro.analysis.experiments import (run_analytical_sweep,
                                        run_fault_sweep,
                                        run_invalidation_sweep)
from repro.analysis.report import generate_report
from repro.chaos.runner import run_chaos
from repro.cli import main
from repro.config import (ConfigError, SystemParameters, max_jobs,
                          paper_parameters)
from repro.explore.calibrate import calibrate, simulate_cells
from repro.explore.refine import refine
from repro.runner import (CACHE_SCHEMA, Job, MISS, ResultCache,
                          code_fingerprint, default_cache, key_digest,
                          resolve_execution, resolve_jobs, run_jobs)
from repro.runner import cache as cache_mod
from repro.runner import jobs as jobs_mod

PARAMS = paper_parameters(4)


def digest(rows) -> str:
    """Order-sensitive digest of a merged result stream."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def rows_equal(a, b) -> bool:
    """Exact row equality, treating NaN == NaN (fault sweeps report
    NaN for unavailable baselines)."""
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float) \
                and math.isnan(x) and math.isnan(y):
            return True
        return type(x) is type(y) and x == y
    return (len(a) == len(b)
            and all(r1.keys() == r2.keys()
                    and all(eq(r1[k], r2[k]) for k in r1)
                    for r1, r2 in zip(a, b)))


# ----------------------------------------------------------------------
# run_jobs scheduler
# ----------------------------------------------------------------------
def _add(a, b):
    return a + b


def _pid_tag(i):
    return (i, os.getpid())


def test_run_jobs_preserves_submission_order():
    jobs = [Job(fn=_add, args=(i, 100)) for i in range(7)]
    assert run_jobs(jobs, workers=1) == [100 + i for i in range(7)]
    assert run_jobs(jobs, workers=4) == [100 + i for i in range(7)]


def test_run_jobs_actually_uses_worker_processes():
    results = run_jobs([Job(fn=_pid_tag, args=(i,)) for i in range(4)],
                       workers=4)
    assert [i for i, _pid in results] == [0, 1, 2, 3]
    assert all(pid != os.getpid() for _i, pid in results)


def test_run_jobs_serial_stays_in_process():
    results = run_jobs([Job(fn=_pid_tag, args=(i,)) for i in range(3)],
                       workers=1)
    assert all(pid == os.getpid() for _i, pid in results)


def test_run_jobs_progress_streams_and_summarizes(tmp_path):
    cache = ResultCache(str(tmp_path))
    jobs = [Job(fn=_add, args=(i, 0), key={"i": i}, label=f"j{i}")
            for i in range(3)]
    fresh_lines = []
    run_jobs(jobs, workers=1, cache=cache, progress=fresh_lines.append)
    # One line per job as it lands, plus a final summary with counts.
    assert [line.split()[0] for line in fresh_lines[:-1]] \
        == ["[1/3]", "[2/3]", "[3/3]"]
    assert all("ran" in line for line in fresh_lines[:-1])
    assert fresh_lines[-1] == "done: 0 hit / 3 ran / 0 retried / " \
                              "0 failed (3 job(s))"
    lines = []
    run_jobs(jobs, workers=1, cache=cache, progress=lines.append)
    assert [line.split()[0] for line in lines[:-1]] == ["[1/3]", "[2/3]",
                                                       "[3/3]"]
    assert all("cache hit" in line for line in lines[:-1])
    assert lines[-1] == "done: 3 hit / 0 ran / 0 retried / " \
                        "0 failed (3 job(s))"


def test_resolve_jobs_sentinel_and_validation():
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    assert resolve_jobs(3) == 3
    with pytest.raises(ConfigError):
        resolve_jobs(-1)
    with pytest.raises(ConfigError):
        resolve_jobs(max_jobs() + 1)


def test_resolve_execution_prefers_explicit_args(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert resolve_execution(2, use_cache=False, cache=cache) == (2, None)
    assert resolve_execution(5, cache=cache) == (5, cache)
    assert resolve_execution(0, use_cache=False) == \
        (os.cpu_count() or 1, None)
    assert resolve_execution() == (1, default_cache())
    with pytest.raises(ConfigError):
        resolve_execution(-1)


@pytest.mark.parametrize("entry", [
    run_invalidation_sweep, run_analytical_sweep, run_fault_sweep,
    generate_report, calibrate, refine, simulate_cells])
def test_execution_settings_are_arguments_not_parameters(entry):
    """How a sweep executes is chosen per call (serial and cached by
    default), never by a SystemParameters field, so it can neither
    partition the cache nor become a screening axis."""
    fields = {f.name for f in dataclasses.fields(SystemParameters)}
    assert not fields & {"jobs", "result_cache", "job_timeout",
                         "job_max_retries", "job_backoff"}
    arguments = inspect.signature(entry).parameters
    assert arguments["jobs"].default == 1
    assert arguments["use_cache"].default is True
    assert "resume" not in arguments


def test_params_jobs_validation():
    """``jobs`` is not a parameter field; the sweep entry points take it
    as an argument with the same sentinel and range checks, raised
    before any job runs."""
    with pytest.raises(TypeError):
        paper_parameters(4, jobs=0)
    kwargs = dict(schemes=["ui-ua"], degrees=[2], per_degree=1,
                  params=PARAMS, use_cache=False)
    serial = run_analytical_sweep(jobs=1, **kwargs)
    assert run_analytical_sweep(jobs=0, **kwargs) == serial
    assert run_analytical_sweep(jobs=4, **kwargs) == serial
    for bad in (-1, max_jobs() + 1):
        with pytest.raises(ConfigError):
            run_analytical_sweep(jobs=bad, **kwargs)


def test_uncached_sweep_writes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    run_invalidation_sweep(["ui-ua", "mi-ma-ec"], [2], per_degree=1,
                           params=PARAMS, use_cache=False)
    assert main(["sweep", "--schemes", "ui-ua", "--degrees", "2",
                 "--per-degree", "1", "--mesh", "4", "--no-cache"]) == 0
    assert not root.exists()


# ----------------------------------------------------------------------
# Golden determinism: jobs=1 vs jobs=4 vs cache replay, per entry point
# ----------------------------------------------------------------------
def test_invalidation_sweep_parallel_and_cached_bit_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    kwargs = dict(schemes=["ui-ua", "mi-ua-ec", "mi-ma-ec"],
                  degrees=[2, 5], per_degree=2, params=PARAMS, seed=9)
    serial = run_invalidation_sweep(jobs=1, use_cache=False, **kwargs)
    parallel = run_invalidation_sweep(jobs=4, use_cache=False, **kwargs)
    cold = run_invalidation_sweep(jobs=1, use_cache=True, cache=cache,
                                  **kwargs)
    warm = run_invalidation_sweep(jobs=4, use_cache=True, cache=cache,
                                  **kwargs)
    assert digest(serial) == digest(parallel) == digest(cold) \
        == digest(warm)
    assert cache.stores == 3          # one entry per scheme
    assert cache.hits == 3            # the warm run replayed everything


def test_analytical_sweep_parallel_and_cached_bit_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    kwargs = dict(schemes=["ui-ua", "mi-ma-ec"], degrees=[2, 4],
                  per_degree=3, params=PARAMS, seed=4)
    serial = run_analytical_sweep(jobs=1, use_cache=False, **kwargs)
    parallel = run_analytical_sweep(jobs=4, use_cache=False, **kwargs)
    cold = run_analytical_sweep(jobs=1, use_cache=True, cache=cache,
                                **kwargs)
    warm = run_analytical_sweep(jobs=1, use_cache=True, cache=cache,
                                **kwargs)
    assert digest(serial) == digest(parallel) == digest(cold) \
        == digest(warm)
    assert cache.hits == 2


def test_fault_sweep_parallel_and_cached_bit_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    kwargs = dict(schemes=["ui-ua", "mi-ma-ec"], drop_probs=[0.0, 0.05],
                  degree=4, per_point=3, params=PARAMS, seed=2)
    serial = run_fault_sweep(jobs=1, use_cache=False, **kwargs)
    parallel = run_fault_sweep(jobs=4, use_cache=False, **kwargs)
    cold = run_fault_sweep(jobs=1, use_cache=True, cache=cache, **kwargs)
    warm = run_fault_sweep(jobs=4, use_cache=True, cache=cache, **kwargs)
    assert rows_equal(serial, parallel)
    assert rows_equal(serial, cold)
    assert rows_equal(serial, warm)
    assert cache.stores == 4          # one entry per grid point
    assert cache.hits == 4
    # The derived inflation column exists and the baseline is sound.
    assert serial[0]["latency_x"] == 1.0


def test_chaos_soak_parallel_and_cached_bit_identical(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    kwargs = dict(smoke=True, out_dir=str(tmp_path / "bundles"))
    serial = run_chaos(3, jobs=1, **kwargs)
    parallel = run_chaos(3, jobs=4, **kwargs)
    cold = run_chaos(3, jobs=1, use_cache=True, cache=cache, **kwargs)
    warm = run_chaos(3, jobs=4, use_cache=True, cache=cache, **kwargs)
    assert serial == parallel == cold == warm
    assert cache.stores == 3 and cache.hits == 3


def test_chaos_cached_mutation_still_bundles(tmp_path):
    """A failing (mutated) seed replayed from cache must still shrink
    and write its repro bundle deterministically."""
    cache = ResultCache(str(tmp_path / "cache"))
    kwargs = dict(smoke=True, mutation="stale-sharer",
                  max_shrink_runs=8, use_cache=True, cache=cache)
    first = run_chaos(1, out_dir=str(tmp_path / "b1"), **kwargs)
    second = run_chaos(1, out_dir=str(tmp_path / "b2"), **kwargs)
    assert first["failed"] == second["failed"] == 1
    assert first["signatures"] == second["signatures"]
    assert cache.hits >= 1
    assert os.path.exists(second["bundles"][0])


# ----------------------------------------------------------------------
# Cache invalidation rules
# ----------------------------------------------------------------------
def sweep_once(cache, params=PARAMS, seed=9, **overrides):
    kwargs = dict(schemes=["ui-ua"], degrees=[2], per_degree=2,
                  params=params, seed=seed, jobs=1, use_cache=True,
                  cache=cache)
    kwargs.update(overrides)
    return run_invalidation_sweep(**kwargs)


def test_cache_hit_on_identical_config(tmp_path):
    cache = ResultCache(str(tmp_path))
    sweep_once(cache)
    sweep_once(cache)
    assert cache.stores == 1 and cache.hits == 1


def test_cache_miss_on_params_change(tmp_path):
    cache = ResultCache(str(tmp_path))
    sweep_once(cache)
    sweep_once(cache, params=PARAMS.evolve(router_delay=6))
    assert cache.hits == 0 and cache.stores == 2


def test_cache_miss_on_seed_or_workload_change(tmp_path):
    cache = ResultCache(str(tmp_path))
    sweep_once(cache)
    sweep_once(cache, seed=10)
    sweep_once(cache, kind="column")
    assert cache.hits == 0 and cache.stores == 3


def test_cache_hit_across_execution_knobs(tmp_path):
    """The worker count selects how a sweep runs, not what it computes,
    so it must not partition the cache."""
    cache = ResultCache(str(tmp_path))
    sweep_once(cache)
    sweep_once(cache, jobs=4)
    assert cache.stores == 1 and cache.hits == 1


def test_cache_miss_on_fault_plan_change(tmp_path):
    cache = ResultCache(str(tmp_path))
    kwargs = dict(schemes=["ui-ua"], drop_probs=[0.05], degree=4,
                  per_point=2, params=PARAMS, seed=2, jobs=1,
                  use_cache=True, cache=cache)
    run_fault_sweep(**kwargs)
    run_fault_sweep(**dict(kwargs, link_faults=1))
    run_fault_sweep(**dict(kwargs, drop_probs=[0.1]))
    assert cache.hits == 0 and cache.stores == 3
    run_fault_sweep(**kwargs)
    assert cache.hits == 1


def test_cache_miss_on_code_fingerprint_change(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    sweep_once(cache)
    original = code_fingerprint()
    monkeypatch.setattr(cache_mod, "_fingerprint_memo",
                        dict(original, version="999.0.0"))
    sweep_once(cache)
    assert cache.hits == 0 and cache.stores == 2
    monkeypatch.setattr(cache_mod, "_fingerprint_memo", dict(original))
    sweep_once(cache)
    assert cache.hits == 1


def test_code_fingerprint_covers_sources():
    fp = code_fingerprint()
    assert fp["package"] == "repro"
    assert len(fp["source_digest"]) == 64
    assert fp["cache_schema"] == CACHE_SCHEMA
    assert code_fingerprint() is code_fingerprint()  # memoized


# ----------------------------------------------------------------------
# ResultCache mechanics
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_info_and_clear(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = {"fn": "t", "x": 1}
    d = cache.digest(key)
    assert cache.load(d) is MISS
    cache.store(d, key, {"rows": [1, 2.5, "three"]})
    assert cache.load(d, key) == {"rows": [1, 2.5, "three"]}
    info = cache.info()
    assert info["entries"] == 1 and info["bytes"] > 0
    assert info["root"] == str(tmp_path)
    assert cache.clear() == 1
    assert cache.info()["entries"] == 0
    assert cache.load(d) is MISS


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = {"k": 1}
    d = cache.digest(key)
    cache.store(d, key, "value")
    path = cache._path(d)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.load(d, key) is MISS
    assert not os.path.exists(path)  # purged


def test_cache_key_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    d = cache.digest({"k": 1})
    cache.store(d, {"k": 1}, "value")
    assert cache.load(d, {"k": 2}) is MISS


def test_cache_schema_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = {"k": 1}
    d = cache.digest(key)
    path = cache._path(d)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump({"cache_schema": CACHE_SCHEMA + 1, "key": key,
                     "result": "stale"}, fh)
    assert cache.load(d, key) is MISS


def test_cache_digest_is_key_order_independent(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.digest({"a": 1, "b": 2}) == cache.digest({"b": 2, "a": 1})
    assert cache.digest({"a": 1}) != cache.digest({"a": 2})


def test_job_digest_is_its_key_digest_computed_once(monkeypatch):
    key = {"fn": "add", "args": [1, 2]}
    job = Job(fn=_add, args=(1, 2), key=key)
    expected = key_digest(key)
    assert job.digest == expected
    fresh = pickle.loads(pickle.dumps(Job(fn=_add, args=(1, 2), key=key)))
    kept = pickle.loads(pickle.dumps(job))
    assert fresh.digest == kept.digest == expected
    assert Job(fn=_add, args=(1, 2)).digest is None

    def recomputed(_key):
        raise AssertionError("a job's digest is computed once")
    monkeypatch.setattr(jobs_mod, "key_digest", recomputed)
    assert job.digest == kept.digest == expected


def test_cache_rejects_unjsonable_keys(tmp_path):
    cache = ResultCache(str(tmp_path))
    with pytest.raises(TypeError):
        cache.digest({"fn": object()})


def test_default_cache_honors_environment(tmp_path, monkeypatch):
    from repro.runner import default_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
    assert default_cache().root == str(tmp_path / "env-root")
