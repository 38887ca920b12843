"""The parallel sweep scheduler: fan independent configs across cores.

Every figure, fault, and chaos sweep in this repository is a list of
*independent* simulation configs — the embarrassingly-parallel shape
DASH/FLASH-era evaluations farmed out across machines.  :func:`run_jobs`
executes such a list with four guarantees:

* **Deterministic merge order.**  Results come back in submission
  order, whatever the worker count or completion order.
* **Bit-identical outputs.**  Each :class:`Job` is a pure function of
  its arguments, so ``workers=1`` and ``workers=N`` produce the exact
  same result objects; the golden tests in ``tests/test_runner.py``
  digest-compare the merged streams to prove it.
* **Content-addressed caching.**  A job that carries a ``key`` is
  looked up in a :class:`~repro.runner.cache.ResultCache` first; hits
  skip the simulation entirely and replay the pickled result
  bit-identically.  Fresh results are stored *as each one lands* (in
  the parent process, so workers never contend on disk) — a crash
  discards only in-flight work, never finished work, and a plain
  re-run of an interrupted sweep replays its finished jobs as hits.
* **Supervised fault tolerance.**  With ``workers > 1`` every job runs
  on one :class:`~repro.runner.supervisor.SupervisedPool`, the pool
  ``repro serve`` uses: per-job wall-clock watchdogs, bounded retries
  with backoff, poison-job quarantine behind a typed
  :class:`~repro.runner.supervisor.JobFailed` (raised only after the
  sweep drains), and a rebuild after every broken pool.  See
  ``docs/RUNNER.md``.

Jobs must be *picklable*: ``fn`` a module-level callable, arguments
plain data.  The pool uses :class:`concurrent.futures.ProcessPoolExecutor`
with the platform default start method (``fork`` on Linux, so workers
inherit ``sys.path`` and loaded modules at near-zero cost).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.config import ConfigError, max_jobs
from repro.runner.cache import MISS, ResultCache, default_cache, key_digest
from repro.runner.supervisor import (JobFailed, RetryPolicy, _Entry,
                                     _label, run_supervised)


@dataclass(frozen=True)
class Job:
    """One independent unit of sweep work.

    ``fn(*args, **kwargs)`` must be a pure, picklable computation.
    ``key`` is the JSON-able cache-key material (``None`` = never
    cached — e.g. wall-clock timing runs).  ``label`` is only for
    progress reporting.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    key: Optional[dict] = None
    label: str = ""

    @functools.cached_property
    def digest(self) -> Optional[str]:
        """The cache digest of ``key`` (``None`` for an uncached job),
        computed on first use and kept: a key is never mutated."""
        return None if self.key is None else key_digest(self.key)


def resolve_jobs(jobs: int) -> int:
    """Effective worker count for a ``jobs`` argument (``0`` = one per
    CPU core).  Raises :class:`ConfigError` on out-of-range values."""
    if jobs < 0:
        raise ConfigError("jobs must be >= 0 (0 = one worker per core)")
    if jobs > max_jobs():
        raise ConfigError(f"jobs must be <= {max_jobs()} on this "
                          f"machine (0 = auto)")
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def resolve_execution(jobs: int = 1, use_cache: bool = True,
                      cache: Optional[ResultCache] = None
                      ) -> tuple[int, Optional[ResultCache]]:
    """``(workers, cache-or-None)`` for a sweep entry point's
    ``jobs``/``use_cache``/``cache`` arguments.

    ``jobs`` is validated here (:func:`resolve_jobs`), before any job
    is built.  A disabled cache returns ``None`` so :func:`run_jobs`
    skips lookups entirely; an enabled one defaults to
    :func:`~repro.runner.cache.default_cache`.
    """
    workers = resolve_jobs(jobs)
    if not use_cache:
        return workers, None
    return workers, (cache if cache is not None else default_cache())


def run_jobs(jobs: Sequence[Job], workers: int = 1,
             cache: Optional[ResultCache] = None,
             progress: Optional[Callable[[str], None]] = None,
             policy: Optional[RetryPolicy] = None) -> list:
    """Execute ``jobs``; returns their results in submission order.

    ``workers`` is validated through :func:`resolve_jobs` (``0`` = one
    per core).  ``cache=None`` disables caching; pass a
    :class:`~repro.runner.cache.ResultCache` (e.g.
    :func:`~repro.runner.cache.default_cache`) to reuse and persist
    results.  Every fresh result is stored before it is reported, so
    re-running an interrupted or partly quarantined sweep with the same
    cache replays the finished jobs as hits and runs only the rest.

    ``policy`` configures supervision (watchdog timeout, retries,
    backoff; default :class:`~repro.runner.supervisor.RetryPolicy`).

    ``progress`` receives one short line per job *as each result
    lands* (labelled with the submission index), occasional supervision
    notes (retries, pool rebuilds), and a final summary line with
    hit/ran/retried/failed counts.

    Raises :class:`~repro.runner.supervisor.JobFailed` — after the
    sweep drains, with every healthy result already cached — if any
    job exhausted its retries.
    """
    workers = resolve_jobs(workers)
    policy = policy if policy is not None else RetryPolicy()
    jobs = list(jobs)
    n = len(jobs)
    results: list[Any] = [None] * n
    say = progress or (lambda msg: None)
    digests = ({i: job.digest for i, job in enumerate(jobs)
                if job.key is not None} if cache is not None else {})

    # Cache lookups (parent process, submission order).
    hits = 0
    pending: list[int] = []
    for i, job in enumerate(jobs):
        if i in digests:
            hit = cache.load(digests[i], job.key)
            if hit is not MISS:
                results[i] = hit
                hits += 1
                say(f"[{i + 1}/{n}] {_label(job)}: cache hit")
                continue
        pending.append(i)

    # Supervised execution of the misses, storing each result as it
    # lands, so a crash can only ever lose in-flight work.
    failures: list = []
    events = {"retries": 0}
    if pending:
        def on_result(i: int, result: Any, attempts: int) -> None:
            results[i] = result
            if i in digests:
                cache.store(digests[i], jobs[i].key, result)
            tag = "ran" if attempts == 1 else f"ran (attempt {attempts})"
            say(f"[{i + 1}/{n}] {_label(jobs[i])}: {tag}")

        entries = [_Entry(index=i, job=jobs[i]) for i in pending]
        failures, events = run_supervised(entries, workers, policy,
                                          on_result, note=say)

    say(f"done: {hits} hit / {len(pending) - len(failures)} ran / "
        f"{events.get('retries', 0)} retried / "
        f"{len(failures)} failed ({n} job(s))")
    if failures:
        raise JobFailed(failures)
    return results
