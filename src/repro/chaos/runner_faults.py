"""Runner-level chaos: prove supervised sweep recovery end to end.

The :mod:`repro.chaos` scenario engine attacks the *simulated* DSM;
this module attacks the **execution substrate itself** — the
:mod:`repro.runner` scheduler that runs every figure in the paper
reproduction.  Each scenario injects a real infrastructure failure into
a small (but genuine) invalidation sweep and checks that recovery
preserves the serial ≡ parallel **bit-identity guarantee** the golden
tests encode:

* ``kill``    — a job SIGKILLs its worker mid-sweep (the OOM-killer
  shape); the broken pool must be rebuilt, in-flight jobs requeued,
  and the merged rows must digest-match a clean serial run.
* ``hang``    — a job wedges its worker; the wall-clock watchdog must
  kill the pool, retry the job, and converge to the same digest.
* ``poison``  — a job fails deterministically on every attempt; it must
  be quarantined behind a typed
  :class:`~repro.runner.supervisor.JobFailed` carrying the child
  traceback, *after* every healthy job's result has been cached.
* ``interrupt`` — a cached sweep is interrupted (``KeyboardInterrupt``)
  after two results; a plain re-run must replay exactly those two as
  cache hits, run only the unfinished job, and digest-match.
* ``cache``   — a result-cache entry is corrupted on disk; the next
  sweep must purge it (counting it in ``ResultCache.corrupt``),
  re-simulate, and digest-match.

Backs ``benchmarks/bench_runner_chaos.py`` and the CI ``runner-chaos``
smoke job.  Everything is seeded and file-flag based, so scenarios are
reproducible; fault injection (:func:`pool_fault_job`, shared with the
serve chaos harness) fires exactly once per flag file (retries then run
clean), except ``poison`` which always fails.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import tempfile
import time
from typing import Callable, Optional

from repro.analysis.experiments import _invalidation_scheme_job
from repro.config import paper_parameters
from repro.runner import (MISS, Job, JobFailed, ResultCache, RetryPolicy,
                          key_digest, run_jobs)

#: Scenario names in execution order.
RUNNER_CHAOS_SCENARIOS = ("kill", "hang", "poison", "interrupt", "cache")

#: Seconds an injected hang sleeps — anything comfortably past the
#: scenario watchdog (the pool kill interrupts the sleep long before).
HANG_SECONDS = 120.0


def pool_fault_job(fault: str, flag_path: str, fn, args: tuple):
    """Run the job payload ``fn(*args)`` behind an injected pool fault.

    ``kill`` (SIGKILL the worker), ``hang`` and ``raise`` fire only
    while ``flag_path`` does not exist (the flag is written *before*
    the fault so retries run clean); ``poison`` ignores the flag and
    fails every attempt; ``none`` just runs the payload.  Module-level
    so process workers unpickle it by reference.
    """
    name = getattr(fn, "__name__", "job")
    if fault == "poison":
        raise RuntimeError(f"injected poison job ({name})")
    if fault != "none" and not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write(fault)
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "hang":
            time.sleep(HANG_SECONDS)
        elif fault == "raise":
            raise RuntimeError(f"injected transient failure ({name})")
    return fn(*args)


def _digest(rows) -> str:
    """Order-sensitive digest of a merged result stream (same contract
    as the golden tests in ``tests/test_runner.py``)."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class _Interrupter:
    """Progress callback that raises ``KeyboardInterrupt`` after ``n``
    landed results — a deterministic stand-in for Ctrl-C mid-sweep."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.landed = 0

    def __call__(self, line: str) -> None:
        if line.startswith("[") and "ran" in line:
            self.landed += 1
            if self.landed >= self.after:
                raise KeyboardInterrupt


def _build_jobs(schemes, degrees, per_degree, params, seed, nonce,
                faults: dict, flag_dir: str) -> list[Job]:
    """The scenario's job list; ``faults`` maps job index -> fault
    kind.  ``nonce`` isolates cache identity per scenario.  The
    payload is the real per-scheme invalidation sweep job, so digests
    compare actual paper-figure rows."""
    jobs = []
    for i, scheme in enumerate(schemes):
        fault = faults.get(i, "none")
        jobs.append(Job(
            fn=pool_fault_job,
            args=(fault, os.path.join(flag_dir, f"flag-{nonce}-{i}"),
                  _invalidation_scheme_job,
                  (scheme, tuple(degrees), per_degree, params, "uniform",
                   seed, None)),
            key={"fn": "runner_chaos/scheme", "nonce": nonce,
                 "scheme": scheme, "degrees": list(degrees),
                 "per_degree": per_degree, "seed": seed, "fault": fault},
            label=f"rchaos:{scheme}"))
    return jobs


def run_runner_chaos(*, smoke: bool = True, seed: int = 0,
                     workdir: Optional[str] = None,
                     log: Optional[Callable[[str], None]] = None) -> dict:
    """Run every runner-chaos scenario; returns a summary dict.

    Summary keys: ``scenarios`` (one dict per scenario with ``name``,
    ``ok``, ``detail``), ``baseline_digest``, and ``ok`` (every
    scenario recovered to the clean serial digest).  ``workdir`` holds
    flag files and the scenario cache (a temp dir by default); pass a
    persistent path so CI can upload both as an artifact on failure.
    """
    say = log or (lambda msg: None)
    workdir = workdir or tempfile.mkdtemp(prefix="repro-runner-chaos-")
    os.makedirs(workdir, exist_ok=True)
    # A reused workdir starts clean: a stale flag would skip its fault
    # and stale cache entries would turn fresh runs into hits.
    flag_dir = os.path.join(workdir, "flags")
    shutil.rmtree(flag_dir, ignore_errors=True)
    os.makedirs(flag_dir)
    cache = ResultCache(os.path.join(workdir, "cache"))
    cache.clear()

    params = paper_parameters(4 if smoke else 8)
    schemes = ["ui-ua", "mi-ua-ec", "mi-ma-ec"]
    degrees = (2, 3) if smoke else (2, 4, 8)
    per_degree = 1 if smoke else 2
    watchdog = 3.0 if smoke else 10.0
    policy = RetryPolicy(timeout=watchdog, max_retries=2, backoff=1.0,
                         retry_delay=0.01)

    def jobs_for(nonce: str, faults: dict) -> list[Job]:
        return _build_jobs(schemes, degrees, per_degree, params, seed,
                           nonce, faults, flag_dir)

    say("baseline: clean serial sweep")
    baseline = _digest(run_jobs(jobs_for("base", {}), workers=1))
    scenarios: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        scenarios.append({"name": name, "ok": ok, "detail": detail})
        say(f"{name}: {'recovered' if ok else 'FAILED'} — {detail}")

    # -- kill: SIGKILLed worker, pool rebuild, requeue -----------------
    rows = run_jobs(jobs_for("kill", {1: "kill"}), workers=2,
                    policy=policy)
    check("kill", _digest(rows) == baseline,
          "worker SIGKILLed mid-sweep; rebuilt pool digest-matches "
          "serial baseline")

    # -- hang: watchdog timeout, retry ---------------------------------
    rows = run_jobs(jobs_for("hang", {0: "hang"}), workers=2,
                    policy=policy)
    check("hang", _digest(rows) == baseline,
          f"hung job tripped the {watchdog:g}s watchdog and retried; "
          f"digest-matches serial baseline")

    # -- poison: quarantine with traceback, healthy work cached --------
    poison_jobs = jobs_for("poison", {2: "poison"})
    quarantined = traceback_ok = False
    try:
        run_jobs(poison_jobs, workers=2, cache=cache,
                 policy=RetryPolicy(timeout=watchdog, max_retries=1,
                                    backoff=1.0, retry_delay=0.01))
    except JobFailed as exc:
        quarantined = True
        traceback_ok = "injected poison job" in exc.child_traceback
    healthy = sum(cache.load(key_digest(j.key), j.key) is not MISS
                  for j in poison_jobs)
    check("poison", quarantined and traceback_ok and healthy == 2,
          f"poison job quarantined with child traceback; "
          f"{healthy}/2 healthy results preserved in the cache")

    # -- interrupt: a plain re-run replays the finished jobs -----------
    interrupt_jobs = jobs_for("interrupt", {})
    interrupted = False
    try:
        run_jobs(interrupt_jobs, workers=1, cache=cache,
                 progress=_Interrupter(after=2))
    except KeyboardInterrupt:
        interrupted = True
    lines: list[str] = []
    rows = run_jobs(interrupt_jobs, workers=1, cache=cache,
                    progress=lines.append)
    outcomes = [line.rsplit(": ", 1)[-1] for line in lines[:-1]]
    check("interrupt",
          interrupted and outcomes == ["cache hit", "cache hit", "ran"]
          and _digest(rows) == baseline,
          f"sweep interrupted after 2 of 3 results; the plain re-run "
          f"replayed {outcomes.count('cache hit')} from the cache and ran "
          f"{outcomes.count('ran')}; digest-matches serial baseline")

    # -- cache: corrupt entry purged, counted, re-simulated ------------
    cache_jobs = jobs_for("cache", {})
    run_jobs(cache_jobs, workers=1, cache=cache)
    victim = cache._path(cache.digest(cache_jobs[0].key))
    with open(victim, "wb") as fh:
        fh.write(b"not a pickle at all")
    rows = run_jobs(cache_jobs, workers=1, cache=cache)
    check("cache",
          _digest(rows) == baseline and cache.corrupt == 1
          and cache.info()["corrupt_purged"] == 1,
          "corrupt cache entry purged (counted) and re-simulated; "
          "digest-matches serial baseline")

    return {
        "ok": all(s["ok"] for s in scenarios),
        "baseline_digest": baseline,
        "scenarios": scenarios,
        "workdir": workdir,
    }
