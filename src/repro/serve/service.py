"""The multi-tenant simulation service: dedup, queueing, supervision.

:class:`SimulationService` is the transport-independent core behind
``repro serve``.  One instance owns:

* the process-lifetime :class:`~repro.runner.cache.ResultCache` — the
  warm-replay path that makes serving viable (a cache hit skips the
  simulation entirely and returns in microseconds);
* an **in-flight table** keyed on cache digest — N clients requesting
  the same config while it simulates *coalesce* onto one execution and
  receive byte-identical bodies — and the **finished flights** kept by
  digest, so a repeat request reuses their body bytes without reading
  the disk or rendering again;
* **per-client admission control** — an optional token bucket per
  client plus a global queue-depth bound, both rejecting with a typed
  :class:`AdmissionError` before any work is enqueued;
* **fair queueing** — pending misses sit in per-client FIFO queues
  drained round-robin, so a flood from one tenant cannot starve
  another past its fairness bound (one extra job per competing
  client per dispatch round);
* one :class:`~repro.runner.supervisor.SupervisedPool` for its
  lifetime — the same supervised pool ``run_jobs`` uses, so misses get
  its per-attempt wall-clock watchdogs (a hung worker gets its pool
  killed and rebuilt, in-flight bystanders requeued uncharged), bounded
  retries with exponential backoff, and quarantine behind a typed
  :class:`~repro.runner.supervisor.JobFailed` that surfaces to the
  client as a structured error response;
* :class:`ServiceMetrics` — counters plus log-linear
  :class:`repro.sim.stats.Histogram` latency distributions feeding the
  ``/metrics`` endpoint.

Everything here is stdlib-only and runs on one asyncio event loop;
simulations never run on the loop thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.config import ConfigError
from repro.runner import Job, ResultCache, default_cache
from repro.runner.cache import MISS, _json_default
from repro.runner.supervisor import JobFailed, RetryPolicy, SupervisedPool
from repro.sim.stats import Histogram


class AdmissionError(RuntimeError):
    """A request was rejected before any work was enqueued.

    ``reason`` is ``"rate-limited"`` (the client's token bucket is
    empty) or ``"queue-full"`` (the global pending-miss bound is hit);
    the HTTP layer maps both to a 429 response.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


class BreakerOpen(RuntimeError):
    """The worker-pool circuit breaker is open: new misses fast-fail.

    ``retry_after`` is the seconds until the breaker's next half-open
    probe window; the HTTP layer maps this to ``503`` with a
    ``Retry-After`` header so clients shed load instead of timing out
    against a known-bad pool.
    """

    def __init__(self, retry_after: float, detail: str) -> None:
        super().__init__(detail)
        self.retry_after = retry_after
        self.detail = detail


class CircuitBreaker:
    """Consecutive-failure circuit breaker around the worker pool.

    States: ``closed`` (normal), ``open`` (fast-fail for ``cooldown``
    seconds after ``threshold`` consecutive failures), and
    ``half-open`` (cooldown elapsed; exactly one probe miss is admitted
    — its success closes the breaker, its failure re-opens it).
    Failure events are quarantined jobs (:class:`JobFailed`) and pool
    reclaims (watchdog expiry / broken pool); any successful job
    resets the consecutive count.  ``threshold=0`` disables the
    breaker entirely (always closed).
    """

    def __init__(self, threshold: int, cooldown: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.failures = 0          # consecutive failure events
        self.trips = 0             # lifetime open transitions
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half-open"
        if self.clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a new miss enter the pool right now?

        In ``half-open``, admits exactly one probe; concurrent misses
        keep fast-failing until the probe resolves.
        """
        if self.threshold <= 0 or self._opened_at is None:
            return True
        if self._probing:
            return False
        if self.clock() - self._opened_at >= self.cooldown:
            self._probing = True
            return True
        return False

    @property
    def probing(self) -> bool:
        """True while the single half-open probe slot is claimed."""
        return self._probing

    def release_probe(self) -> None:
        """Return an unused half-open probe slot.

        Every probe admitted by :meth:`allow` must eventually resolve
        through :meth:`record_success`, :meth:`record_failure`, or this
        — if the admitted miss is rejected before reaching the pool
        (queue full, service stopped) or cancelled mid-flight, the slot
        must be released or no probe can ever run again and the breaker
        sheds every future miss until process restart.
        """
        self._probing = False

    def retry_after(self) -> float:
        """Seconds until the next half-open probe window (0 when the
        breaker is not open)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.cooldown - (self.clock() - self._opened_at))

    def record_success(self) -> None:
        self.failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        self.failures += 1
        if self._probing or self.failures >= self.threshold:
            if self._opened_at is None or self._probing:
                self.trips += 1
            self._opened_at = self.clock()
            self._probing = False


def result_body(digest: str, result: Any) -> bytes:
    """Canonical response body for a job result.

    Deterministic serialization (sorted keys, fixed separators) of the
    raw result rows: the same result object always produces the same
    bytes, so coalesced waiters, cache replays, and a serial
    ``run_jobs`` cross-check are all *byte-identical*.
    """
    text = json.dumps({"digest": digest, "result": result},
                      sort_keys=True, separators=(",", ":"),
                      default=_json_default)
    return (text + "\n").encode()


def degraded_body(digest: str, result: Any) -> bytes:
    """Response body for an analytical degraded-mode answer.

    Same canonical serialization as :func:`result_body` plus an
    explicit ``"degraded": true`` marker: clients can always tell an
    approximation from a simulation, and the bytes can never collide
    with the cached real result for the same digest.
    """
    text = json.dumps({"degraded": True, "digest": digest,
                       "result": result},
                      sort_keys=True, separators=(",", ":"),
                      default=_json_default)
    return (text + "\n").encode()


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp", "clock")

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.clock = clock
        self.stamp = clock()

    def try_take(self) -> bool:
        """Consume one token if available; refills lazily."""
        now = self.clock()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs (transport-independent).

    Each field with help metadata is the ``repro serve`` flag of the
    same name; ``policy`` is the ``run_jobs`` supervision family.
    While the :class:`CircuitBreaker` is open, misses fast-fail with
    :class:`BreakerOpen` (HTTP 503 + ``Retry-After``) or, with
    ``degraded=True``, are answered from the contention-free analytical
    model (:mod:`repro.analysis.analytical`), marked ``"degraded":
    true`` and never cached.  Bad values raise :class:`ConfigError`.
    """

    workers: int = field(default=0, metadata={
        "help": "worker processes for cache misses (0 = one per CPU "
                "core)"})
    executor: str = field(default="process", metadata={
        "help": "worker pool kind: process (isolated; the watchdog can "
                "reclaim a hung worker) or thread (cheap; a watchdog "
                "expiry abandons the thread)"})
    queue_depth: int = field(default=256, metadata={
        "help": "max pending cache misses over all clients (running "
                "jobs do not count) before requests are rejected 429 "
                "queue-full"})
    rate: float = field(default=0.0, metadata={
        "help": "per-client admission rate in requests/s (token "
                "bucket; 0 = unlimited)"})
    burst: int = field(default=16, metadata={
        "help": "per-client token-bucket burst capacity"})
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = field(default=0, metadata={
        "help": "consecutive pool failures (quarantined jobs, pool "
                "reclaims) that trip the circuit breaker (0 = "
                "disabled)"})
    breaker_cooldown: float = field(default=30.0, metadata={
        "help": "seconds the breaker stays open before a half-open "
                "probe"})
    degraded: bool = field(default=False, metadata={
        "help": "answer sweeps from the analytical model (marked "
                "'degraded') while the breaker is open, instead of 503"})
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        for name, low in (("workers", 0), ("queue_depth", 1), ("rate", 0),
                          ("burst", 1), ("breaker_threshold", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.breaker_cooldown <= 0:
            raise ConfigError("breaker_cooldown must be > 0")
        if self.executor not in ("process", "thread"):
            raise ConfigError("executor must be 'process' or 'thread'")


class ServiceMetrics:
    """Counters + latency histograms behind ``/metrics``.

    Latencies are recorded in milliseconds into one log-linear
    :class:`repro.sim.stats.Histogram` per class, ``hit`` and ``miss``
    (real simulations); ``all`` is their merge at snapshot time.  Every
    quantile is within 1/128 relative of the exact one.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.started = clock()
        self.http_requests = 0
        self.submitted = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self.degraded = 0
        self.rejected = {"rate-limited": 0, "queue-full": 0,
                         "breaker-open": 0}
        self.latency = {"hit": Histogram("hit_latency_ms"),
                        "miss": Histogram("miss_latency_ms")}

    def observe(self, source: str, seconds: float) -> None:
        """Record one served request's latency (``source`` is ``hit``,
        ``miss``, ``coalesced``, or ``degraded`` — coalesced waiters
        paid miss-class latency; degraded answers are hit-class, the
        analytical model runs in microseconds)."""
        bucket = "hit" if source in ("hit", "degraded") else "miss"
        self.latency[bucket].add(seconds * 1000.0)

    @staticmethod
    def _quantiles(hist: Histogram) -> dict:
        return {"n": hist.n,
                "mean_ms": hist.tally.mean,
                "p50_ms": hist.percentile(0.50),
                "p99_ms": hist.percentile(0.99),
                "max_ms": hist.tally.max or 0.0}

    def snapshot(self, cache: ResultCache, queued: int, running: int,
                 breaker: Optional[CircuitBreaker] = None) -> dict:
        """The ``/metrics`` payload."""
        uptime = max(self.clock() - self.started, 1e-9)
        lookups = self.hits + self.misses + self.coalesced
        latency = dict(self.latency, all=Histogram("latency_ms"))
        for hist in self.latency.values():
            latency["all"].merge(hist)
        payload = {
            "uptime_s": uptime,
            "http_requests": self.http_requests,
            "requests_per_sec": self.http_requests / uptime,
            "submitted": self.submitted,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "degraded": self.degraded,
            "rejected": dict(self.rejected),
            "queue_depth": queued,
            "running": running,
            "latency": {name: self._quantiles(hist)
                        for name, hist in latency.items()},
            "cache": {"root": cache.root, "hits": cache.hits,
                      "misses": cache.misses, "stores": cache.stores,
                      "corrupt": cache.corrupt,
                      "quota_bytes": cache.quota_bytes,
                      "evictions": cache.evictions,
                      "write_errors": cache.write_errors},
        }
        if breaker is not None:
            payload["breaker"] = {"state": breaker.state,
                                  "failures": breaker.failures,
                                  "trips": breaker.trips}
        return payload


class _Flight:
    """One digest's lifecycle: queued -> running -> done | failed.

    Every concurrent request for the same digest shares one flight;
    the terminal body bytes are produced exactly once, and a finished
    flight is kept so that later repeats share it too."""

    __slots__ = ("digest", "job", "status", "body", "error", "event",
                 "probe")

    def __init__(self, digest: str, job: Optional[Job]) -> None:
        self.digest = digest
        self.job = job
        self.status = "queued"
        self.body: Optional[bytes] = None
        self.error: Optional[dict] = None
        self.event = asyncio.Event()
        self.probe = False       # admitted as the half-open probe

    def finish(self, body: bytes) -> None:
        self.status = "done"
        self.body = body
        self.event.set()

    def fail(self, error: dict) -> None:
        self.status = "failed"
        self.error = error
        self.event.set()


@dataclass
class JobRecord:
    """One client submission (unique id), pointing at a shared flight."""

    id: str
    client: str
    source: str          # "hit" | "miss" | "coalesced" | "degraded"
    flight: _Flight

    @property
    def digest(self) -> str:
        return self.flight.digest

    @property
    def status(self) -> str:
        return self.flight.status

    def snapshot(self) -> dict:
        """JSON-able status view (``GET /jobs/<id>``)."""
        view = {"id": self.id, "digest": self.digest,
                "status": self.status, "source": self.source,
                "client": self.client}
        if self.source == "degraded":
            # Analytical approximation: never cached, so there is no
            # /results/<digest> to point at.
            view["degraded"] = True
        elif self.status == "done":
            view["result_url"] = f"/results/{self.digest}"
        if self.status == "failed":
            view["error"] = self.flight.error
        return view


#: Job records retained for ``GET /jobs/<id>``, and finished flights
#: kept for repeat requests, before the oldest are pruned (bounds
#: service memory under sustained load).
MAX_RECORDS = 10_000


class SimulationService:
    """Async front-end core: submit jobs, await flights, read metrics.

    Use as::

        service = SimulationService()
        await service.start()
        record = await service.submit(job, client="alice")
        await service.wait(record)
        body = record.flight.body        # canonical JSON bytes
        await service.close()
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 config: Optional[ServiceConfig] = None) -> None:
        self.cache = cache if cache is not None else default_cache()
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics(self.config.clock)
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown,
                                      self.config.clock)
        self.workers = self.config.workers or (os.cpu_count() or 1)
        self._flights: dict[str, _Flight] = {}   # queued or running
        self._done: dict[str, _Flight] = {}      # succeeded, oldest first
        self._client_queues: dict[str, list[_Flight]] = {}
        self._rr: list[str] = []
        self._queued = 0
        self._running = 0
        self._buckets: dict[str, TokenBucket] = {}
        self._records: dict[str, JobRecord] = {}
        self._next_id = 0
        self._pool: Optional[SupervisedPool] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._tasks: set[asyncio.Task] = set()
        self._started = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Create the worker pool and the fair-queue scheduler."""
        if self._started:
            return
        loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.workers)
        self._wakeup = asyncio.Event()
        self._pool_seen = {"retries": 0, "rebuilds": 0}
        self._pool = SupervisedPool(
            self.workers, self.config.policy, kind=self.config.executor,
            note=lambda _msg: loop.call_soon_threadsafe(
                self._count_pool_events))
        self._scheduler = asyncio.create_task(self._schedule(),
                                              name="serve-scheduler")
        self._started = True

    async def close(self) -> None:
        """Cancel scheduled work and reap the pool (no orphans)."""
        self._started = False
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except BaseException:
                pass
            self._scheduler = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # Flights still queued never reached _run_flight: resolve
        # their waiters and return a claimed half-open probe slot.
        for queue in self._client_queues.values():
            for flight in queue:
                if flight.probe:
                    self.breaker.release_probe()
                self._flights.pop(flight.digest, None)
                flight.fail({"error": "cancelled",
                             "label": flight.job.label})
        self._client_queues.clear()
        self._rr.clear()
        self._queued = 0
        if self._pool is not None:
            self._pool.close()

    def _count_pool_events(self) -> None:
        """Mirror pool events on the loop thread: each reclaim (watchdog
        kill or broken pool) is a breaker failure, each relaunch a retry."""
        seen, self._pool_seen = self._pool_seen, dict(self._pool.events)
        self.metrics.retries += self._pool_seen["retries"] - seen["retries"]
        for _ in range(self._pool_seen["rebuilds"] - seen["rebuilds"]):
            self.breaker.record_failure()

    # -- submission ----------------------------------------------------
    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                self.config.rate, self.config.burst, self.config.clock)
        return bucket

    def _record(self, client: str, source: str,
                flight: _Flight) -> JobRecord:
        self._next_id += 1
        record = JobRecord(id=f"j{self._next_id}", client=client,
                           source=source, flight=flight)
        self._records[record.id] = record
        while len(self._records) > MAX_RECORDS:
            self._records.pop(next(iter(self._records)))
        return record

    def _keep(self, flight: _Flight) -> None:
        self._done[flight.digest] = flight
        while len(self._done) > MAX_RECORDS:
            self._done.pop(next(iter(self._done)))

    def _finished(self, digest: str,
                  job: Optional[Job] = None) -> Optional[_Flight]:
        """The finished flight for ``digest``, or ``None``: the kept one
        if its job key equals ``job.key`` (the guard
        ``ResultCache.load(key=)`` applies on disk), else one rendered
        from the verified disk entry, kept only for a request (``job``).
        """
        flight = self._done.get(digest)
        if flight is not None and (job is None or flight.job.key == job.key):
            return flight
        cached = self.cache.load(digest, job.key if job else None)
        if cached is MISS:
            return None
        flight = _Flight(digest, job)
        flight.finish(result_body(digest, cached))
        if job is not None:
            self._keep(flight)
        return flight

    async def submit(self, job: Job, client: str,
                     degraded_fn: Optional[Callable[[], Any]] = None,
                     ) -> JobRecord:
        """Admit one request; returns its :class:`JobRecord`.

        Fast paths resolve immediately (``source`` tells which): an
        identical config already queued/simulating (``"coalesced"``)
        or a finished digest (``"hit"``: a kept flight, else the disk
        cache).  A genuine miss (``"miss"``) is enqueued on the
        submitting client's FIFO queue.  Raises :class:`AdmissionError` when the client's token
        bucket is empty or the pending queue is full, and
        :class:`ValueError` for uncacheable jobs (no key).

        When the circuit breaker is open, a miss either raises
        :class:`BreakerOpen` or — with ``config.degraded=True`` and a
        ``degraded_fn`` surrogate — resolves immediately from the
        analytical model (``source == "degraded"``, body marked
        ``"degraded": true``, never cached).  Hits and coalesced
        waiters are unaffected: the cache and in-flight table stay
        healthy even when the pool is not.
        """
        if job.key is None:
            raise ValueError("served jobs must carry a cache key")
        self.metrics.submitted += 1
        if self.config.rate > 0 and not self._bucket(client).try_take():
            self.metrics.rejected["rate-limited"] += 1
            raise AdmissionError(
                "rate-limited",
                f"client {client!r} exceeded {self.config.rate:g} "
                f"requests/s (burst {self.config.burst})")
        digest = job.digest

        flight = self._flights.get(digest)
        if flight is not None:
            self.metrics.coalesced += 1
            return self._record(client, "coalesced", flight)

        flight = self._finished(digest, job)
        if flight is not None:
            self.metrics.hits += 1
            return self._record(client, "hit", flight)

        if not self.breaker.allow():
            if self.config.degraded and degraded_fn is not None:
                loop = asyncio.get_running_loop()
                rows = await loop.run_in_executor(None, degraded_fn)
                self.metrics.degraded += 1
                flight = _Flight(digest, job)
                flight.finish(degraded_body(digest, rows))
                return self._record(client, "degraded", flight)
            self.metrics.rejected["breaker-open"] += 1
            raise BreakerOpen(
                self.breaker.retry_after(),
                f"worker pool unhealthy ({self.breaker.failures} "
                f"consecutive failures); simulation misses are "
                f"fast-failing until the next probe")

        # allow() may have just claimed the single half-open probe slot
        # for this miss; if a later admission check rejects it, the
        # slot must be returned or no probe can ever run again.
        probe = self.breaker.probing
        if self._queued >= self.config.queue_depth:
            if probe:
                self.breaker.release_probe()
            self.metrics.rejected["queue-full"] += 1
            raise AdmissionError(
                "queue-full",
                f"{self._queued} job(s) already pending (bound "
                f"{self.config.queue_depth})")
        if not self._started:
            if probe:
                self.breaker.release_probe()
            raise RuntimeError("service not started (await start())")
        self.metrics.misses += 1
        flight = _Flight(digest, job)
        flight.probe = probe
        self._flights[digest] = flight
        self._enqueue(client, flight)
        return self._record(client, "miss", flight)

    async def wait(self, record: JobRecord) -> JobRecord:
        """Block until the record's flight is terminal."""
        if record.status not in ("done", "failed"):
            await record.flight.event.wait()
        return record

    def lookup(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id`` (``None`` if unknown/pruned)."""
        return self._records.get(job_id)

    def result_bytes(self, digest: str) -> Optional[bytes]:
        """Canonical body for a finished digest (``None`` on miss)."""
        flight = self._finished(digest)
        return None if flight is None else flight.body

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(self.cache, self._queued,
                                     self._running, self.breaker)

    # -- fair queue ----------------------------------------------------
    def _enqueue(self, client: str, flight: _Flight) -> None:
        queue = self._client_queues.get(client)
        if queue is None:
            queue = self._client_queues[client] = []
            self._rr.append(client)
        queue.append(flight)
        self._queued += 1
        self._wakeup.set()

    def _dequeue_round_robin(self) -> Optional[_Flight]:
        """Pop the next flight, rotating fairly across clients."""
        while self._rr:
            client = self._rr[0]
            queue = self._client_queues.get(client)
            if not queue:
                self._rr.pop(0)
                self._client_queues.pop(client, None)
                continue
            flight = queue.pop(0)
            self._queued -= 1
            # Rotate the served client to the back of the round.
            self._rr.append(self._rr.pop(0))
            if not queue:
                self._client_queues.pop(client, None)
                self._rr.remove(client)
            return flight
        return None

    async def _schedule(self) -> None:
        """Dispatch loop: one slot per worker, round-robin across
        clients."""
        while True:
            await self._slots.acquire()
            flight = None
            try:
                while flight is None:
                    flight = self._dequeue_round_robin()
                    if flight is None:
                        self._wakeup.clear()
                        await self._wakeup.wait()
            except BaseException:
                self._slots.release()
                raise
            task = asyncio.create_task(self._run_flight(flight))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_flight(self, flight: _Flight) -> None:
        flight.status = "running"
        self._running += 1
        try:
            result = await self._execute(flight.job)
        except JobFailed as exc:
            failure = exc.failures[0]
            self.metrics.failed += 1
            self.breaker.record_failure()
            flight.fail({"error": "job-failed", "kind": failure.kind,
                         "label": failure.label,
                         "attempts": failure.attempts,
                         "traceback": failure.traceback})
        except asyncio.CancelledError:
            if flight.probe:
                # A cancelled probe is no verdict on pool health:
                # return the slot (don't re-open) so the next miss
                # can probe instead of fast-failing forever.
                self.breaker.release_probe()
            flight.fail({"error": "cancelled",
                         "label": flight.job.label})
            raise
        except Exception as exc:  # internal (non-job) error
            self.metrics.failed += 1
            self.breaker.record_failure()
            flight.fail({"error": "internal",
                         "label": flight.job.label,
                         "detail": f"{type(exc).__name__}: {exc}"})
        else:
            self.breaker.record_success()
            try:
                self.cache.store(flight.digest, flight.job.key, result)
            except OSError:
                pass  # serving the result beats persisting it
            self.metrics.completed += 1
            flight.finish(result_body(flight.digest, result))
            self._keep(flight)
        finally:
            self._running -= 1
            self._flights.pop(flight.digest, None)
            self._slots.release()

    # -- supervised execution -----------------------------------------
    async def _execute(self, job: Job) -> Any:
        """One job on the shared :class:`SupervisedPool`: its result, or
        :class:`JobFailed` once the retry policy is exhausted."""
        result, _attempts = await asyncio.wrap_future(self._pool.submit(job))
        return result
