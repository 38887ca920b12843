"""Shared parallel-execution subsystem for sweeps and soaks.

``repro.runner`` is the one place independent simulation configs get
fanned out across cores and replayed from a content-addressed on-disk
cache.  All four sweep consumers route through it:

* :func:`repro.analysis.experiments.run_invalidation_sweep` and
  :func:`~repro.analysis.experiments.run_analytical_sweep` (one job per
  scheme);
* :func:`repro.analysis.experiments.run_fault_sweep` (one job per grid
  point);
* :func:`repro.chaos.runner.run_chaos` (one job per scenario seed);
* ``benchmarks/harness.py`` (one job per workload, plus the
  parallel-scaling section of ``BENCH_perf.json``).

Execution is *supervised*: :class:`SupervisedPool`
(:mod:`repro.runner.supervisor`) is the one worker pool behind both
``run_jobs`` and ``repro serve``, with per-job wall-clock watchdogs,
bounded retries with exponential backoff, poison-job quarantine behind
a typed :class:`JobFailed`, and a rebuild after every broken pool.
Every fresh result is cached as it lands, so re-running an interrupted
sweep replays its finished jobs bit-identically and runs only the rest.

See :mod:`repro.runner.jobs` for the determinism contract,
:mod:`repro.runner.cache` for the cache-key layout and invalidation
rules, and ``docs/RUNNER.md`` for the failure semantics.
"""

from repro.runner.cache import (CACHE_SCHEMA, MISS, ResultCache,
                                code_fingerprint, default_cache,
                                key_digest, params_key)
from repro.runner.jobs import (Job, resolve_execution, resolve_jobs,
                               run_jobs)
from repro.runner.supervisor import (JobFailed, JobFailure, RetryPolicy,
                                     SupervisedPool, WorkerFailure,
                                     run_supervised)

__all__ = [
    "CACHE_SCHEMA",
    "Job",
    "JobFailed",
    "JobFailure",
    "MISS",
    "ResultCache",
    "RetryPolicy",
    "SupervisedPool",
    "WorkerFailure",
    "code_fingerprint",
    "default_cache",
    "key_digest",
    "params_key",
    "resolve_execution",
    "resolve_jobs",
    "run_jobs",
    "run_supervised",
]
