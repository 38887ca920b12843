"""Supervised execution of simulation jobs: one pool, watchdogs, retries.

:class:`SupervisedPool` is the one worker pool behind both
:func:`run_supervised` (and so ``run_jobs``) and ``repro serve``.  Like
the simulated DSM with lost worms (``docs/FAULTS.md``), it treats worker
failures as expected events with typed, bounded recovery: watchdog
kills, retries with backoff, pool rebuilds, and quarantine behind a
typed :class:`JobFailed` (``docs/RUNNER.md``).  Serial execution
(``workers=1``) has the same retries but no watchdog: a wall-clock
timeout cannot preempt the parent's own frame.
"""

from __future__ import annotations

import math
import threading
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import (BrokenExecutor, Future, InvalidStateError,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                as_completed)
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from queue import SimpleQueue
from typing import Any, Callable, Optional

from repro.config import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """How supervision handles failing jobs: the one home of these
    settings (``run_jobs(policy=...)``, ``SupervisedPool``, and
    ``repro serve`` through ``ServiceConfig.policy``).

    The watchdog ``timeout`` and the parent-side relaunch delay both
    scale by ``backoff`` on every successive attempt, mirroring the
    ``txn_timeout``/``txn_max_retries``/``txn_backoff`` family of the
    simulated recovery protocol.  Out-of-range values raise
    :class:`ConfigError`.  The two fields with help metadata are also
    ``repro serve`` flags.
    """

    timeout: float = field(default=300.0, metadata={
        "flag": "job-timeout",
        "help": "per-attempt wall-clock watchdog seconds for a "
                "simulation job (0 = none)"})
    max_retries: int = field(default=2, metadata={
        "flag": "job-retries",
        "help": "retries before a job is quarantined (serve answers "
                "500 job-failed)"})
    backoff: float = 2.0
    #: Base parent-side settle delay before a retry, in seconds (scaled
    #: by ``backoff`` per attempt, capped at :attr:`max_delay`).
    retry_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        for name, low in (("timeout", 0), ("max_retries", 0),
                          ("backoff", 1), ("retry_delay", 0),
                          ("max_delay", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"job {name} must be >= {low}")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def attempt_timeout(self, attempts: int) -> float:
        """Watchdog seconds for the attempt after ``attempts`` failures
        (``inf`` when the watchdog is disabled)."""
        if self.timeout <= 0:
            return math.inf
        return self.timeout * self.backoff ** attempts

    def attempt_delay(self, attempts: int) -> float:
        """Settle delay before relaunching after ``attempts`` failures."""
        return min(self.retry_delay * self.backoff ** max(attempts - 1, 0),
                   self.max_delay)


@dataclass(frozen=True)
class WorkerFailure:
    """Picklable stand-in a worker returns when its job raised."""

    error: str
    traceback: str


@dataclass
class JobFailure:
    """One quarantined job: why it failed and the evidence."""

    index: int
    label: str
    #: ``"error"`` (the job raised), ``"timeout"`` (watchdog), or
    #: ``"worker-lost"`` (its pool broke — culprit unattributable).
    kind: str
    attempts: int
    traceback: str


class JobFailed(RuntimeError):
    """A sweep finished with quarantined (poison) jobs.

    Raised *after* the sweep drains, so every healthy job's result has
    already been cached as it landed — re-running the sweep with the
    same cache only re-executes the quarantined jobs.  Carries
    every :class:`JobFailure` in :attr:`failures`; the message embeds
    the first child traceback.
    """

    def __init__(self, failures: list[JobFailure]) -> None:
        first = failures[0]
        super().__init__(
            f"{len(failures)} sweep job(s) quarantined; first: "
            f"{first.label!r} [{first.kind}] after {first.attempts} "
            f"attempt(s)\n--- child traceback ---\n{first.traceback}")
        self.failures = list(failures)

    @property
    def label(self) -> str:
        return self.failures[0].label

    @property
    def kind(self) -> str:
        return self.failures[0].kind

    @property
    def attempts(self) -> int:
        return self.failures[0].attempts

    @property
    def child_traceback(self) -> str:
        return self.failures[0].traceback


@dataclass(eq=False)
class _Entry:
    """Supervision state of one job (hashed by identity)."""

    index: int
    job: Any
    attempts: int = 0          # failed attempts so far
    suspect: bool = False      # lost a worker: runs alone from now on
    deadline: float = math.inf  # watchdog expiry, or relaunch time
    worker: Optional[Future] = None   # the live attempt's
    future: Optional[Future] = None   # the caller's (pooled jobs only)


def execute_job(job) -> Any:
    """Worker entry point (module-level so it pickles by reference).

    Job exceptions become :class:`WorkerFailure` values instead of
    crossing the future boundary raw, preserving the child traceback
    verbatim and keeping "job raised" distinguishable from "worker
    died".
    """
    try:
        return job.fn(*job.args, **job.kwargs)
    except Exception as exc:
        return WorkerFailure(f"{type(exc).__name__}: {exc}",
                             traceback_mod.format_exc())


def _label(job) -> str:
    """A job's name in progress lines and failure reports: its label,
    else its function's name."""
    return job.label or getattr(job.fn, "__name__", "job")


def run_supervised(entries: list[_Entry], workers: int,
                   policy: RetryPolicy,
                   on_result: Callable[[int, Any, int], None],
                   note: Optional[Callable[[str], None]] = None
                   ) -> tuple[list[JobFailure], dict]:
    """Run ``entries`` under supervision; returns ``(failures, events)``.

    ``on_result(index, result, attempts)`` and ``note`` fire on the
    calling thread as jobs land.  ``workers > 1`` runs every entry on
    one :class:`SupervisedPool`, a lone job included.  Quarantined jobs
    come back as :class:`JobFailure` records.
    """
    note = note or (lambda msg: None)
    if workers <= 1:
        events = {"retries": 0, "rebuilds": 0, "pool_breaks": 0}
        return _run_serial(deque(entries), policy, on_result, note,
                           events), events
    # Every note precedes the resolution of some job's future, so
    # draining before each landing relays all of them.
    notes: SimpleQueue = SimpleQueue()
    failures: list[JobFailure] = []
    pool = SupervisedPool(min(workers, len(entries)), policy,
                          note=notes.put)
    try:
        futures = {pool.submit(entry.job): entry for entry in entries}
        for future in as_completed(futures):
            while not notes.empty():
                note(notes.get())
            entry = futures[future]
            try:
                result, attempts = future.result()
            except JobFailed as exc:
                exc.failures[0].index = entry.index
                failures.extend(exc.failures)
            else:
                on_result(entry.index, result, attempts)
    finally:
        pool.close()
    return failures, pool.events


def _run_serial(queue: deque, policy: RetryPolicy, on_result, note,
                events) -> list[JobFailure]:
    """In-parent execution with retries (no watchdog — a wall-clock
    timeout cannot preempt the parent's own frame)."""
    failures: list[JobFailure] = []
    while queue:
        entry = queue.popleft()
        outcome = execute_job(entry.job)
        if isinstance(outcome, WorkerFailure):
            entry.attempts += 1
            if entry.attempts >= policy.max_attempts:
                failures.append(JobFailure(entry.index, _label(entry.job),
                                           "error", entry.attempts,
                                           outcome.traceback))
                note(f"job {_label(entry.job)} quarantined after "
                     f"{entry.attempts} attempt(s): {outcome.error}")
            else:
                events["retries"] += 1
                note(f"job {_label(entry.job)} raised {outcome.error} "
                     f"(attempt {entry.attempts}/{policy.max_attempts}); "
                     f"retrying")
                time.sleep(policy.attempt_delay(entry.attempts))
                queue.append(entry)
        else:
            on_result(entry.index, outcome, entry.attempts + 1)
    return failures


def _terminate_pool(pool) -> None:
    """Forcefully stop a pool: cancel queued work, SIGTERM (then
    SIGKILL) every worker process (a thread pool's threads are
    abandoned), and wait until every worker is reaped, so no orphans
    survive.

    After a shutdown the executor's manager thread joins the workers
    itself.  A second reaper would get ``ECHILD``, which ``Popen.poll``
    reports as "still running" until the manager thread stores the
    return code, so that thread does all the reaping and this waits
    for it."""
    # _processes and _executor_manager_thread are CPython internals
    # (both stable since 3.9); without them this is a plain shutdown.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    with suppress(Exception):             # pragma: no cover - best effort
        pool.shutdown(wait=False, cancel_futures=True)
    for stop in ("terminate", "kill"):
        for proc in procs:
            with suppress(Exception):     # pragma: no cover - best effort
                getattr(proc, stop)()
        if manager is None or not manager.is_alive():
            return
        manager.join(2.0)


class SupervisedPool:
    """A process (or thread) pool that supervises every job it runs.

    :meth:`submit` returns a future for ``(result, attempts)`` that
    fails with :class:`JobFailed` once the policy is exhausted; at most
    ``workers`` jobs run at once.  A job is dispatched on the
    submitting thread when a slot is free and resolved by its worker
    future's done-callback: no extra thread hand-off.  Queued dispatch,
    retry delays and watchdogs run on one supervision thread that
    sleeps until its next deadline.  Done-callbacks never submit: on
    Python 3.10/3.11 ``ProcessPoolExecutor.submit`` writes to a pipe
    that only the thread running them drains.  ``note`` and the
    returned futures' callbacks run under the pool lock and must not
    call into the pool; each :attr:`events` counter (``retries``,
    ``rebuilds``, ``pool_breaks``) is updated before the note that
    reports it.
    """

    def __init__(self, workers: int, policy: RetryPolicy,
                 kind: str = "process",
                 note: Optional[Callable[[str], None]] = None) -> None:
        self.workers = workers
        self.policy = policy
        self._make_executor = (ThreadPoolExecutor if kind == "thread"
                               else ProcessPoolExecutor)
        self.note = note or (lambda msg: None)
        self.events = {"retries": 0, "rebuilds": 0, "pool_breaks": 0}
        # Re-entrant: a done-callback added to a finished future runs at
        # once, on the dispatching thread.
        self._cv = threading.Condition(threading.RLock())
        self._executor = None
        self._retired: list = []      # executors awaiting teardown
        self._queue: deque = deque()  # entries ready to dispatch
        self._delayed: list = []      # entries waiting out a retry delay
        self._running: dict = {}      # entry -> None, in dispatch order
        self._wake_at = -math.inf     # supervisor wake time; -inf: awake
        self._closed = False
        self._thread = threading.Thread(target=self._supervise, daemon=True)
        self._thread.start()

    def submit(self, job) -> Future:
        """Queue ``job``, dispatching it at once if a slot is free."""
        entry = _Entry(0, job, future=Future())
        with self._cv:
            if self._closed:
                raise RuntimeError("submit() on a closed SupervisedPool")
            self._queue.append(entry)
            self._fill()
        return entry.future

    def close(self) -> None:
        """Cancel every pending future and reap every worker: an idle
        pool's workers exit cleanly, busy ones are killed."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            pending = [*self._queue, *self._delayed, *self._running]
            for entry in pending:
                entry.worker = None
            live, retired = self._executor, self._retired
            self._cv.notify_all()
        self._thread.join()
        if live is not None and not pending:
            live.shutdown(wait=True)        # idle workers exit cleanly
        elif live is not None:
            retired.append(live)
        for executor in retired:
            _terminate_pool(executor)
        for entry in pending:
            entry.future.cancel()

    # -- state transitions (pool lock held) -----------------------------
    def _fill(self) -> None:
        """Dispatch queued entries into free slots.  A suspect runs
        alone, so a pool it breaks again is attributable."""
        while self._queue and len(self._running) < self.workers:
            entry = self._queue[0]
            if entry.future.cancelled():
                self._queue.popleft()
                continue
            if (entry.suspect and self._running) or any(
                    other.suspect for other in self._running):
                return
            if self._executor is None:
                self._executor = self._make_executor(self.workers)
            try:
                worker = self._executor.submit(execute_job, entry.job)
            except BrokenExecutor:
                self._broken()
                continue
            self._queue.popleft()
            entry.worker = worker
            entry.deadline = (time.monotonic()
                              + self.policy.attempt_timeout(entry.attempts))
            self._running[entry] = None
            if entry.deadline < self._wake_at:
                self._cv.notify()
            worker.add_done_callback(partial(self._landed, entry))

    def _charge(self, entry: _Entry, kind: str, tb: str) -> None:
        """One failed attempt: quarantine on exhaustion, else retry."""
        entry.attempts += 1
        if entry.attempts >= self.policy.max_attempts:
            label = _label(entry.job)
            self.note(f"job {label} quarantined after {entry.attempts} "
                      f"attempt(s) [{kind}]")
            with suppress(InvalidStateError):       # the caller cancelled
                entry.future.set_exception(JobFailed(
                    [JobFailure(0, label, kind, entry.attempts, tb)]))
            return
        self.events["retries"] += 1
        self.note(f"job {_label(entry.job)} failed [{kind}] (attempt "
                  f"{entry.attempts}/{self.policy.max_attempts}); retrying")
        entry.deadline = (time.monotonic()
                          + self.policy.attempt_delay(entry.attempts))
        self._delayed.append(entry)
        if entry.deadline < self._wake_at:
            self._cv.notify()

    def _retire(self) -> list:
        """Hand the executor to the supervision thread for teardown;
        returns the entries that were in flight on it."""
        self.events["rebuilds"] += 1
        in_flight = list(self._running)
        for entry in in_flight:
            entry.worker = None
        self._running.clear()
        self._retired.append(self._executor)
        self._executor = None
        self._cv.notify()
        return in_flight

    def _broken(self) -> None:
        """A dead worker broke the pool: charge every in-flight job one
        ``worker-lost`` attempt (the culprit is unknown), as a suspect."""
        self.events["pool_breaks"] += 1
        casualties = self._retire()
        self.note(f"worker pool broken — rebuilding it and requeuing "
                  f"{len(casualties)} in-flight job(s)")
        for entry in casualties:
            entry.suspect = True
            self._charge(entry, "worker-lost",
                         "worker process died unexpectedly (pool broken) "
                         "— no child traceback available")

    def _expire(self, now: float) -> None:
        """Watchdog: kill the pool that jobs past their deadline wedged,
        requeue the bystanders uncharged and charge the expired jobs."""
        expired = [e for e in self._running if e.deadline <= now]
        if not expired:
            return
        self._queue.extendleft(reversed(
            [e for e in self._retire() if e not in expired]))
        for entry in expired:
            limit = self.policy.attempt_timeout(entry.attempts)
            self.note(f"job {_label(entry.job)} exceeded its {limit:g}s "
                      f"watchdog; killing the worker pool")
            self._charge(entry, "timeout", f"job exceeded its {limit:g}s "
                                           f"wall-clock watchdog")

    # -- pool threads ---------------------------------------------------
    def _landed(self, entry: _Entry, worker: Future) -> None:
        """Done-callback of a worker future: settle the attempt."""
        with self._cv:
            if entry.worker is not worker:
                return                  # an attempt its pool outlived
            error = worker.exception()
            if isinstance(error, BrokenExecutor):
                self._broken()
                return
            del self._running[entry]
            entry.worker = None
            outcome = worker.result() if error is None else WorkerFailure(
                repr(error), "".join(traceback_mod.format_exception(error)))
            if isinstance(outcome, WorkerFailure):
                self._charge(entry, "error", outcome.traceback)
            else:
                with suppress(InvalidStateError):   # the caller cancelled
                    entry.future.set_result((outcome, entry.attempts + 1))
            if self._queue or not (self._running or self._delayed):
                self._cv.notify()       # a free slot, or nothing to time

    def _supervise(self) -> None:
        """Relaunch due retries, enforce watchdogs, reap retired pools
        before any rebuild, dispatch; then sleep until a deadline, or
        without a timeout when nothing is left to time: an idle thread
        parked in a timed wait measurably slowed a serving loop."""
        while True:
            with self._cv:
                if self._closed:
                    return
                now = time.monotonic()
                self._queue.extend(e for e in self._delayed
                                   if e.deadline <= now)
                self._delayed = [e for e in self._delayed if e.deadline > now]
                self._expire(now)
                if not self._retired:
                    self._fill()
                retired, self._retired = self._retired, []
                if not retired:
                    self._wake_at = min((e.deadline for e in (
                        *self._running, *self._delayed)), default=math.inf)
                    self._cv.wait(None if self._wake_at == math.inf
                                  else self._wake_at - now)
                    self._wake_at = -math.inf
                    continue
            for executor in retired:
                _terminate_pool(executor)
