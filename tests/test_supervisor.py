"""Supervised sweep execution: watchdogs, retries, cache replay.

Fault-injection twins of the golden determinism tests in
``test_runner.py``: a SIGKILLed worker, a hung job, a poison job, an
interrupted sweep, and a corrupted cache entry must each recover to
the *exact* result stream of an undisturbed serial run — or fail typed
(:class:`repro.runner.JobFailed`), never silently.
Faults are injected through one-shot flag files (workers fork, so they
share the test's filesystem), keeping every scenario deterministic.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import wait

import pytest

from repro.config import ConfigError
from repro.runner import (JobFailed, Job, ResultCache, RetryPolicy,
                          WorkerFailure, run_jobs, run_supervised)
from repro.runner.supervisor import SupervisedPool, _Entry, execute_job

FAST = RetryPolicy(timeout=30.0, max_retries=2, backoff=1.0,
                   retry_delay=0.01)


# ----------------------------------------------------------------------
# Fault-injection payloads (module-level so they pickle by reference)
# ----------------------------------------------------------------------
def _double(x):
    return x * 2


def _fault_once(x, flag, fault):
    """Return ``x * 2``, but on the first call (per flag file) die the
    requested way first — retries then run clean."""
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write(fault)
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "hang":
            time.sleep(60)
        elif fault == "raise":
            raise ValueError(f"transient boom ({x})")
    return x * 2


def _always_raise(x):
    raise RuntimeError(f"poison payload {x}")


def _always_hang(x):
    time.sleep(60)


def _kill_n_times(x, flag_dir, times):
    """SIGKILL the worker on the first ``times`` attempts, then run."""
    marks = sum(1 for name in os.listdir(flag_dir)
                if name.startswith("mark"))
    if marks < times:
        with open(os.path.join(flag_dir, f"mark{marks}-{os.getpid()}"),
                  "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


class _Concurrency:
    """What one stress test's thread-pool jobs share."""

    def __init__(self):
        self.lock = threading.Lock()
        self.running = self.peak = 0
        self.raised = set()


def _stress_job(x, flaky, state):
    """Record the concurrency; if ``flaky``, raise on the first call."""
    with state.lock:
        state.running += 1
        state.peak = max(state.peak, state.running)
        first = x not in state.raised
        state.raised.add(x)
    try:
        time.sleep(0.0005)
        if flaky and first:
            raise ValueError(f"flaky {x}")
        return x * 2
    finally:
        with state.lock:
            state.running -= 1


def _jobs(n, keyed=True):
    return [Job(fn=_double, args=(i,),
                key={"fn": "supervisor-test", "i": i} if keyed else None,
                label=f"j{i}")
            for i in range(n)]


class _InterruptAfter:
    """Progress callback raising KeyboardInterrupt after ``n`` fresh
    results — a deterministic Ctrl-C."""

    def __init__(self, after):
        self.after = after
        self.landed = 0

    def __call__(self, line):
        if line.startswith("[") and "ran" in line:
            self.landed += 1
            if self.landed >= self.after:
                raise KeyboardInterrupt


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    {"timeout": -5.0},
    {"max_retries": -1},
    {"backoff": 0.5},
    {"retry_delay": -0.1},
    {"max_delay": -1.0},
])
def test_retry_policy_validation(bad):
    with pytest.raises(ConfigError):
        RetryPolicy(**bad)


def test_retry_policy_schedules():
    policy = RetryPolicy(timeout=10.0, max_retries=3, backoff=2.0,
                         retry_delay=0.1, max_delay=1.0)
    assert policy.max_attempts == 4
    assert policy.attempt_timeout(0) == 10.0
    assert policy.attempt_timeout(2) == 40.0
    assert RetryPolicy(timeout=0).attempt_timeout(5) == float("inf")
    assert policy.attempt_delay(1) == 0.1
    assert policy.attempt_delay(2) == 0.2
    assert policy.attempt_delay(10) == 1.0       # capped


def test_execute_job_wraps_exceptions():
    outcome = execute_job(Job(fn=_always_raise, args=(3,)))
    assert isinstance(outcome, WorkerFailure)
    assert "poison payload 3" in outcome.error
    assert "RuntimeError" in outcome.traceback


# ----------------------------------------------------------------------
# Recovery scenarios: each must converge to the undisturbed stream
# ----------------------------------------------------------------------
def test_sigkilled_worker_recovers_bit_identical(tmp_path):
    clean = run_jobs(_jobs(4), workers=1)
    jobs = _jobs(4)
    jobs[1] = Job(fn=_fault_once,
                  args=(1, str(tmp_path / "kill-flag"), "kill"),
                  key=jobs[1].key, label="j1")
    notes = []
    rows = run_jobs(jobs, workers=2, policy=FAST, progress=notes.append)
    assert rows == clean
    assert any("rebuilding" in ln for ln in notes)


def test_hung_job_times_out_and_retries(tmp_path):
    clean = run_jobs(_jobs(3), workers=1)
    jobs = _jobs(3)
    jobs[0] = Job(fn=_fault_once,
                  args=(0, str(tmp_path / "hang-flag"), "hang"),
                  key=jobs[0].key, label="j0")
    notes = []
    rows = run_jobs(jobs, workers=2,
                    policy=RetryPolicy(timeout=1.0, max_retries=2,
                                       backoff=1.0, retry_delay=0.01),
                    progress=notes.append)
    assert rows == clean
    assert any("watchdog" in ln for ln in notes)
    assert any("retried" not in ln and "ran (attempt 2)" in ln
               for ln in notes)


def test_transient_exception_retries_serially(tmp_path):
    jobs = [Job(fn=_fault_once,
                args=(5, str(tmp_path / "raise-flag"), "raise"),
                label="flaky")]
    notes = []
    rows = run_jobs(jobs, workers=1, policy=FAST, progress=notes.append)
    assert rows == [10]
    assert any("retrying" in ln for ln in notes)
    assert notes[-1] == "done: 0 hit / 1 ran / 1 retried / " \
                        "0 failed (1 job(s))"


def test_poison_job_quarantines_with_child_traceback(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    jobs = _jobs(3)
    jobs[2] = Job(fn=_always_raise, args=(2,), key=jobs[2].key,
                  label="poison")
    policy = RetryPolicy(timeout=30.0, max_retries=1, backoff=1.0,
                         retry_delay=0.01)
    with pytest.raises(JobFailed) as err:
        run_jobs(jobs, workers=2, cache=cache, policy=policy)
    failure = err.value
    assert failure.label == "poison"
    assert failure.kind == "error"
    assert failure.attempts == 2
    assert "poison payload 2" in failure.child_traceback
    assert "RuntimeError" in str(failure)
    # The sweep drained first: both healthy results are already stored,
    # so a plain re-run replays them and runs only the poison job.
    assert cache.stores == 2
    lines = []
    with pytest.raises(JobFailed):
        run_jobs(jobs, workers=2, cache=cache, policy=policy,
                 progress=lines.append)
    assert lines[-1] == "done: 2 hit / 0 ran / 1 retried / " \
                        "1 failed (3 job(s))"


def test_persistent_hang_quarantines_as_timeout():
    jobs = [Job(fn=_always_hang, args=(0,),
                key={"fn": "supervisor-test", "hang": True}, label="wedge"),
            _jobs(2)[1]]
    with pytest.raises(JobFailed) as err:
        run_jobs(jobs, workers=2,
                 policy=RetryPolicy(timeout=0.5, max_retries=1,
                                    backoff=1.0, retry_delay=0.01))
    assert err.value.kind == "timeout"
    assert "watchdog" in err.value.child_traceback


def test_lone_pooled_job_keeps_its_watchdog():
    """``workers > 1`` with one job left must still run it in the pool,
    under its watchdog, not in the parent."""
    jobs = [Job(fn=_always_hang, args=(0,),
                key={"fn": "supervisor-test", "lone": True}, label="lone")]
    with pytest.raises(JobFailed) as err:
        run_jobs(jobs, workers=2,
                 policy=RetryPolicy(timeout=1.0, max_retries=0))
    assert err.value.kind == "timeout"
    assert err.value.attempts == 1


#: Runs in a child interpreter: if a SIGKILLing job ever ran in the
#: sweep's own process, the sweep would die with -9 instead of failing
#: typed, and must not take pytest down with it.
_WORKER_KILLER_SWEEP = textwrap.dedent("""
    import json, os, signal, sys

    from repro.runner import (MISS, Job, JobFailed, ResultCache,
                              RetryPolicy, run_jobs)

    def killer(x):
        os.kill(os.getpid(), signal.SIGKILL)

    def double(x):
        return x * 2

    if __name__ == "__main__":
        root = sys.argv[1]
        jobs = [Job(fn=double, args=(i,), key={"killer-test": i},
                    label=f"ok{i}") for i in range(5)]
        jobs.insert(2, Job(fn=killer, args=(0,),
                           key={"killer-test": "killer"}, label="killer"))
        cache = ResultCache(os.path.join(root, "cache"))
        try:
            run_jobs(jobs, workers=2, cache=cache,
                     policy=RetryPolicy(timeout=30.0, max_retries=2,
                                        backoff=1.0, retry_delay=0.01))
            failure = None
        except JobFailed as exc:
            failure = {"kind": exc.kind, "attempts": exc.attempts,
                       "label": exc.label, "count": len(exc.failures)}
        healthy = [cache.load(cache.digest(job.key), job.key)
                   for job in jobs if job.label != "killer"]
        print(json.dumps({
            "failure": failure,
            "healthy": [None if r is MISS else r for r in healthy]}))
""")


def test_worker_killer_fails_typed_beside_healthy_jobs(tmp_path):
    script = tmp_path / "killer_sweep.py"
    script.write_text(_WORKER_KILLER_SWEEP)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["failure"] == {"kind": "worker-lost", "attempts": 3,
                                  "label": "killer", "count": 1}
    assert summary["healthy"] == [0, 2, 4, 6, 8]


def test_double_pool_break_rebuilds_twice(tmp_path):
    flag_dir = tmp_path / "flags"
    flag_dir.mkdir()
    entries = [_Entry(index=0, job=Job(fn=_kill_n_times,
                                       args=(7, str(flag_dir), 2),
                                       label="killer")),
               _Entry(index=1, job=Job(fn=_double, args=(1,), label="ok"))]
    landed = {}
    failures, events = run_supervised(
        entries, workers=2,
        policy=RetryPolicy(timeout=30.0, max_retries=2, backoff=1.0,
                           retry_delay=0.01),
        on_result=lambda i, result, attempts: landed.__setitem__(i, result))
    assert failures == []
    assert landed == {0: 14, 1: 2}
    assert events["pool_breaks"] == events["rebuilds"] == 2


def test_pool_stress_keeps_slots_and_settles_every_future():
    """More workers than cores, a tiny switch interval, and retries
    racing fresh submissions: every future settles exactly once with
    the right attempt count, and no more than ``workers`` jobs ever run
    at once."""
    state = _Concurrency()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = SupervisedPool(4, RetryPolicy(timeout=30.0, max_retries=1,
                                         backoff=1.0, retry_delay=0.001),
                          kind="thread")
    try:
        futures = [pool.submit(Job(fn=_stress_job,
                                   args=(i, i % 3 == 0, state)))
                   for i in range(300)]
        _done, pending = wait(futures, timeout=60.0)
        assert not pending
        assert [f.result() for f in futures] == \
            [(i * 2, 2 if i % 3 == 0 else 1) for i in range(300)]
        assert pool.events == {"retries": 100, "rebuilds": 0,
                               "pool_breaks": 0}
        assert state.peak <= 4
    finally:
        pool.close()
        sys.setswitchinterval(switch)


def test_cancelled_queued_job_never_runs():
    gate = threading.Event()
    ran = []
    pool = SupervisedPool(1, FAST, kind="thread")
    try:
        first = pool.submit(Job(fn=gate.wait, args=(30,)))
        queued = pool.submit(Job(fn=ran.append, args=("queued",)))
        assert queued.cancel()
        gate.set()
        assert first.result(30) == (True, 1)
        later = pool.submit(Job(fn=ran.append, args=("later",)))
        assert later.result(30) == (None, 1)
        assert ran == ["later"]
    finally:
        pool.close()


def test_worker_dying_while_idle_breaks_and_rebuilds_the_pool():
    pool = SupervisedPool(1, FAST)
    try:
        assert pool.submit(Job(fn=_double, args=(1,))).result(30) == (2, 1)
        executor = pool._executor
        (worker,) = executor._processes.values()
        os.kill(worker.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        # The next submit meets the broken executor: nothing was in
        # flight to charge, so the job runs first time on a new pool.
        assert pool.submit(Job(fn=_double, args=(2,))).result(30) == (4, 1)
        assert pool.events == {"retries": 0, "rebuilds": 1,
                               "pool_breaks": 1}
    finally:
        pool.close()


def test_close_cancels_pending_jobs_and_reaps_workers():
    pool = SupervisedPool(1, FAST, kind="process")
    running = pool.submit(Job(fn=_always_hang, args=(0,)))
    queued = pool.submit(Job(fn=_double, args=(1,)))
    workers = list(pool._executor._processes.values())
    supervisor = pool._thread           # timing the hung job's watchdog
    pool.close()
    assert running.cancelled() and queued.cancelled()
    assert workers and not any(proc.is_alive() for proc in workers)
    assert supervisor is not None and not supervisor.is_alive()
    with pytest.raises(RuntimeError):
        pool.submit(Job(fn=_double, args=(2,)))


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_cached_sweep_reruns_only_unfinished_jobs(tmp_path,
                                                              workers):
    cache = ResultCache(str(tmp_path))
    clean = run_jobs(_jobs(4), workers=1)
    with pytest.raises(KeyboardInterrupt):
        run_jobs(_jobs(4), workers=workers, cache=cache,
                 progress=_InterruptAfter(after=2))
    # Each result was stored before it was reported.
    assert cache.stores == 2
    lines = []
    rows = run_jobs(_jobs(4), workers=workers, cache=cache,
                    progress=lines.append)
    assert rows == clean
    assert lines[-1] == "done: 2 hit / 2 ran / 0 retried / " \
                        "0 failed (4 job(s))"


@pytest.mark.parametrize("workers", [1, 2])
def test_corrupt_cache_entry_reruns_only_that_job(tmp_path, workers):
    cache = ResultCache(str(tmp_path))
    clean = run_jobs(_jobs(4), workers=1)
    run_jobs(_jobs(4), workers=workers, cache=cache)
    victim = _jobs(4)[2]
    with open(cache._path(cache.digest(victim.key)), "wb") as fh:
        fh.write(b"bit rot")
    lines = []
    rows = run_jobs(_jobs(4), workers=workers, cache=cache,
                    progress=lines.append)
    assert rows == clean
    assert cache.corrupt == 1
    assert sorted(lines[:-1]) == ["[1/4] j0: cache hit",
                                  "[2/4] j1: cache hit", "[3/4] j2: ran",
                                  "[4/4] j3: cache hit"]
    assert lines[-1] == "done: 3 hit / 1 ran / 0 retried / " \
                        "0 failed (4 job(s))"


def test_keyless_jobs_are_never_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    rows = run_jobs(_jobs(3, keyed=False), workers=1, cache=cache)
    assert rows == [0, 2, 4]
    assert cache.stores == cache.hits == cache.misses == 0
    assert not os.path.exists(tmp_path / "objects")


# ----------------------------------------------------------------------
# Cache corruption accounting (the silent-purge counter)
# ----------------------------------------------------------------------
def test_cache_corruption_is_counted_and_logged(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = {"k": 1}
    d = cache.digest(key)
    cache.store(d, key, "value")
    with open(cache._path(d), "wb") as fh:
        fh.write(b"bit rot")
    from repro.runner import MISS
    assert cache.load(d, key) is MISS
    assert cache.corrupt == 1
    assert cache.corrupt_purged() == 1
    assert cache.info()["corrupt_purged"] == 1
    # A fresh handle on the same root still sees the persisted log.
    assert ResultCache(str(tmp_path)).info()["corrupt_purged"] == 1
    cache.clear()
    assert cache.info()["corrupt_purged"] == 0
