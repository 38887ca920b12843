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
  discards only in-flight work, never finished work.
* **Supervised fault tolerance.**  With ``workers > 1`` every job runs
  on one :class:`~repro.runner.supervisor.SupervisedPool`, the pool
  ``repro serve`` uses: per-job wall-clock watchdogs, bounded retries
  with backoff, poison-job quarantine behind a typed
  :class:`~repro.runner.supervisor.JobFailed` (raised only after the
  sweep drains), a rebuild after every broken pool, and — via
  :mod:`repro.runner.journal` — a JSON-lines sweep journal under
  ``.repro-cache/journal/`` that makes any interrupted sweep resumable
  (``resume=True`` / CLI ``--resume``) with digest-identical results.
  See ``docs/RUNNER.md``.

Jobs must be *picklable*: ``fn`` a module-level callable, arguments
plain data.  The pool uses :class:`concurrent.futures.ProcessPoolExecutor`
with the platform default start method (``fork`` on Linux, so workers
inherit ``sys.path`` and loaded modules at near-zero cost).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.config import ConfigError, max_jobs
from repro.runner.cache import MISS, ResultCache, default_cache, key_digest
from repro.runner.journal import SweepJournal, default_journal_root
from repro.runner.supervisor import (JobFailed, RetryPolicy, _Entry,
                                     run_supervised)


@dataclass(frozen=True)
class Job:
    """One independent unit of sweep work.

    ``fn(*args, **kwargs)`` must be a pure, picklable computation.
    ``key`` is the JSON-able cache-key material (``None`` = never
    cached or journaled — e.g. wall-clock timing runs).  ``label`` is
    only for progress reporting.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    key: Optional[dict] = None
    label: str = ""


def resolve_jobs(jobs: int) -> int:
    """Effective worker count for a ``jobs`` knob (``0`` = one per CPU
    core).  Raises :class:`ConfigError` on out-of-range values, exactly
    like :class:`~repro.config.SystemParameters` field validation."""
    if jobs < 0:
        raise ConfigError("jobs must be >= 0 (0 = one worker per core)")
    if jobs > max_jobs():
        raise ConfigError(f"jobs must be <= {max_jobs()} on this "
                          f"machine (0 = auto)")
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def resolve_execution(params, jobs: Optional[int] = None,
                      use_cache: Optional[bool] = None,
                      cache: Optional[ResultCache] = None
                      ) -> tuple[int, Optional[ResultCache]]:
    """``(workers, cache-or-None)`` for a sweep entry point.

    Explicit ``jobs``/``use_cache`` arguments win; ``None`` falls back
    to the :class:`SystemParameters` knobs (``params.jobs`` /
    ``params.result_cache``).  A disabled cache returns ``None`` so
    :func:`run_jobs` skips lookups entirely.
    """
    workers = params.jobs if jobs is None else jobs
    caching = params.result_cache if use_cache is None else use_cache
    if not caching:
        return workers, None
    return workers, (cache if cache is not None else default_cache())


def resolve_policy(params) -> RetryPolicy:
    """The :class:`RetryPolicy` selected by the ``job_timeout`` /
    ``job_max_retries`` / ``job_backoff`` knobs of ``params``."""
    return RetryPolicy(timeout=float(params.job_timeout),
                       max_retries=params.job_max_retries,
                       backoff=float(params.job_backoff))


def _job_label(job: Job) -> str:
    return job.label or getattr(job.fn, "__name__", "job")


def run_jobs(jobs: Sequence[Job], workers: int = 1,
             cache: Optional[ResultCache] = None,
             progress: Optional[Callable[[str], None]] = None,
             policy: Optional[RetryPolicy] = None,
             resume: bool = False,
             journal_dir: Optional[str] = None) -> list:
    """Execute ``jobs``; returns their results in submission order.

    ``workers`` follows the :class:`SystemParameters.jobs` convention
    (``0`` = one per core; validated through :func:`resolve_jobs`).
    ``cache=None`` disables caching; pass a
    :class:`~repro.runner.cache.ResultCache` (e.g.
    :func:`~repro.runner.cache.default_cache`) to reuse and persist
    results.

    ``policy`` configures supervision (watchdog timeout, retries,
    backoff — defaults match the ``SystemParameters`` knob defaults;
    build one from a parameter set with :func:`resolve_policy`).
    ``resume=True`` first replays results recorded in this sweep's
    journal (from an earlier interrupted or partially-failed run of the
    *identical* job list) and executes only the remainder.
    ``journal_dir`` overrides the journal location (default:
    ``<cache root>/journal`` or ``.repro-cache/journal``).

    ``progress`` receives one short line per job *as each result
    lands* (labelled with the submission index), occasional supervision
    notes (retries, pool rebuilds), and a final summary line with
    hit/ran/retried/failed counts.

    Raises :class:`~repro.runner.supervisor.JobFailed` — after the
    sweep drains, with every healthy result already cached and
    journaled — if any job exhausted its retries.
    """
    workers = resolve_jobs(workers)
    policy = policy if policy is not None else RetryPolicy()
    jobs = list(jobs)
    n = len(jobs)
    results: list[Any] = [None] * n
    say = progress or (lambda msg: None)

    digests = {i: key_digest(job.key) for i, job in enumerate(jobs)
               if job.key is not None}

    journal: Optional[SweepJournal] = None
    if digests:
        root = journal_dir or (os.path.join(cache.root, "journal")
                               if cache is not None
                               else default_journal_root())
        journal = SweepJournal.for_digests(
            root, [digests.get(i) for i in range(n)])

    counts = {"hit": 0, "resumed": 0, "ran": 0}
    done: set[int] = set()

    # Phase 0: journal replay (an interrupted run of this exact sweep).
    if journal is not None and resume:
        recovered = journal.load()
        if journal.corrupt_lines:
            say(f"journal: skipped {journal.corrupt_lines} corrupt "
                f"line(s) — those jobs re-run")
        for i in range(n):
            d = digests.get(i)
            if d is not None and d in recovered:
                results[i] = recovered[d]
                done.add(i)
                counts["resumed"] += 1
                say(f"[{i + 1}/{n}] {_job_label(jobs[i])}: resumed "
                    f"from journal")

    # Phase 1: cache lookups (parent process, submission order).
    pending: list[int] = []
    for i, job in enumerate(jobs):
        if i in done:
            continue
        if cache is not None and i in digests:
            hit = cache.load(digests[i], job.key)
            if hit is not MISS:
                results[i] = hit
                counts["hit"] += 1
                say(f"[{i + 1}/{n}] {_job_label(job)}: cache hit")
                continue
        pending.append(i)

    # Phase 2: supervised execution of the misses, with incremental
    # stores — cache + journal writes happen per landing result, so a
    # crash can only ever lose in-flight work.
    failures: list = []
    events = {"retries": 0}
    if pending:
        def on_result(i: int, result: Any, attempts: int) -> None:
            results[i] = result
            counts["ran"] += 1
            if cache is not None and i in digests:
                cache.store(digests[i], jobs[i].key, result)
            if journal is not None and i in digests:
                journal.record(digests[i], i, _job_label(jobs[i]), result)
            tag = "ran" if attempts == 1 else f"ran (attempt {attempts})"
            say(f"[{i + 1}/{n}] {_job_label(jobs[i])}: {tag}")

        entries = [_Entry(index=i, job=jobs[i]) for i in pending]
        try:
            failures, events = run_supervised(entries, workers, policy,
                                              on_result, note=say)
        except BaseException:
            # KeyboardInterrupt & co.: the journal already holds every
            # finished result — flush it and hand the interrupt up.
            if journal is not None:
                journal.close()
            raise

    summary = (f"done: {counts['hit']} hit / {counts['ran']} ran / "
               f"{events.get('retries', 0)} retried / "
               f"{len(failures)} failed ({n} job(s))")
    if counts["resumed"]:
        summary += f" — {counts['resumed']} resumed from journal"
    say(summary)

    if failures:
        if journal is not None:
            journal.close()   # keep: healthy results resume after a fix
        raise JobFailed(failures)
    if journal is not None:
        journal.discard()
    return results
