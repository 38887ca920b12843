"""Transport-independent serving-core tests (repro.serve.service).

Covers the ISSUE acceptance behaviors at the service layer, without
HTTP in the way: request coalescing (two clients on one digest run
exactly one simulation and read byte-identical bodies), round-robin
fairness under a one-tenant flood, token-bucket and queue-depth
admission control, cached-hit fast paths, and supervised failure
semantics (typed JobFailed, bounded retries).

Everything runs on the thread executor so test jobs can share gates
and counters with the test body.
"""

import asyncio
import json
import math
import os
import random
import tempfile
import threading
import time

import pytest

from repro.runner import Job, ResultCache
from repro.runner import jobs as jobs_module
from repro.runner.supervisor import RetryPolicy
from repro.serve import (AdmissionError, BreakerOpen, CircuitBreaker,
                         ServiceConfig, ServiceMetrics, SimulationService,
                         TokenBucket, result_body)
from repro.serve import service as service_module

# Shared state for thread-executor jobs (the pool shares our memory).
_LOCK = threading.Lock()
_RUNS: list[str] = []
_GATES: dict[str, threading.Event] = {}
_STARTED: dict[str, threading.Event] = {}
_FLAKY_CALLS: dict[str, int] = {}


def _reset_state():
    with _LOCK:
        _RUNS.clear()
        _GATES.clear()
        _STARTED.clear()
        _FLAKY_CALLS.clear()


@pytest.fixture(autouse=True)
def _clean_state():
    _reset_state()
    yield
    for gate in _GATES.values():   # never leave a worker thread hanging
        gate.set()


def _counted_job(name: str):
    with _LOCK:
        _RUNS.append(name)
    return {"name": name, "rows": [1, 2, 3]}


def _gated_job(name: str):
    _STARTED[name].set()
    assert _GATES[name].wait(timeout=30.0), f"gate {name} never opened"
    with _LOCK:
        _RUNS.append(name)
    return {"name": name}


def _failing_job(name: str):
    raise ValueError(f"boom: {name}")


def _flaky_job(name: str):
    with _LOCK:
        _FLAKY_CALLS[name] = _FLAKY_CALLS.get(name, 0) + 1
        calls = _FLAKY_CALLS[name]
    if calls == 1:
        raise RuntimeError(f"transient: {name}")
    return {"name": name, "calls": calls}


def _sleep_job(name: str, seconds: float):
    time.sleep(seconds)
    return {"name": name}


def _job(fn, name: str) -> Job:
    return Job(fn=fn, args=(name,),
               key={"fn": "serve-service-test", "job": fn.__name__,
                    "name": name},
               label=f"test:{name}")


def _gate(name: str) -> Job:
    _GATES[name] = threading.Event()
    _STARTED[name] = threading.Event()
    return _job(_gated_job, name)


def _service(root: str, **overrides) -> SimulationService:
    config = dict(workers=2, executor="thread",
                  policy=RetryPolicy(timeout=0, max_retries=0,
                                     retry_delay=0.001))
    config.update(overrides)
    return SimulationService(cache=ResultCache(root),
                             config=ServiceConfig(**config))


def serve_run(test_coro, **overrides):
    """Run an async test body against a started service."""
    async def main():
        with tempfile.TemporaryDirectory(
                prefix="repro-serve-test-") as root:
            service = _service(root, **overrides)
            await service.start()
            try:
                return await test_coro(service)
            finally:
                await service.close()
    return asyncio.run(main())


async def _wait_started(name: str, timeout: float = 10.0):
    """Await a gated job reaching its worker thread."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not _STARTED[name].is_set():
        assert asyncio.get_running_loop().time() < deadline, \
            f"job {name} never started"
        await asyncio.sleep(0.005)


# -- coalescing ------------------------------------------------------------

def test_two_clients_one_digest_run_once_with_identical_bodies():
    async def body(service):
        job_a, job_b = _gate("co"), _gate("co")

        first = await service.submit(job_a, "alice")
        await _wait_started("co")
        second = await service.submit(job_b, "bob")
        assert (first.source, second.source) == ("miss", "coalesced")
        assert first.digest == second.digest
        assert second.flight is first.flight

        _GATES["co"].set()
        await asyncio.gather(service.wait(first), service.wait(second))

        assert _RUNS == ["co"]                 # exactly one execution
        assert first.flight.body == second.flight.body
        payload = json.loads(first.flight.body)
        assert payload["result"] == {"name": "co"}
        assert service.metrics.misses == 1
        assert service.metrics.coalesced == 1
        assert service.cache.stores == 1
    serve_run(body)


def test_after_completion_same_digest_is_a_cache_hit():
    async def body(service):
        record = await service.submit(_job(_counted_job, "warm"), "a")
        await service.wait(record)
        replay = await service.submit(_job(_counted_job, "warm"), "b")
        assert replay.source == "hit"
        assert replay.status == "done"
        assert replay.flight.body == record.flight.body
        assert _RUNS == ["warm"]
        assert service.metrics.hits == 1
    serve_run(body)


def test_prewarmed_cache_serves_hit_without_execution():
    async def body(service):
        job = _job(_counted_job, "prewarmed")
        digest = service.cache.digest(job.key)
        service.cache.store(digest, job.key, {"rows": [9]})
        # GET /results reads the disk entry but does not keep it ...
        assert service.result_bytes(digest) == \
            result_body(digest, {"rows": [9]})
        record = await service.submit(job, "a")
        assert record.source == "hit"
        assert record.flight.body == result_body(digest, {"rows": [9]})
        assert service.cache.hits == 2
        # ... a request does: its repeat is answered from memory.
        repeat = await service.submit(job, "b")
        assert repeat.flight is record.flight
        assert service.cache.hits == 2
        assert _RUNS == []
    serve_run(body)


# -- kept flights ----------------------------------------------------------

def test_warm_hit_reads_no_disk():
    """A finished flight is kept: with its disk entry corrupted, then
    deleted, repeats still return the miss's bytes and never read the
    disk cache."""
    async def body(service):
        record = await service.submit(_job(_counted_job, "kept"), "a")
        await service.wait(record)
        path = service.cache._path(record.digest)
        with open(path, "r+b") as fh:
            fh.seek(80)
            fh.write(b"\xde\xad\xbe\xef")
        disk = (service.cache.hits, service.cache.misses)
        corrupted = await service.submit(_job(_counted_job, "kept"), "b")
        os.remove(path)
        deleted = await service.submit(_job(_counted_job, "kept"), "c")
        assert (corrupted.source, deleted.source) == ("hit", "hit")
        assert corrupted.flight is record.flight is deleted.flight
        assert service.result_bytes(record.digest) == record.flight.body
        assert (service.cache.hits, service.cache.misses) == disk
        assert service.cache.corrupt == 0
        assert _RUNS == ["kept"]
    serve_run(body)


def test_kept_flights_drop_the_oldest_past_the_bound(monkeypatch):
    """At most MAX_RECORDS finished flights are kept, oldest dropped
    first; a dropped digest is a disk hit and is kept again, and a
    flight still in progress is never dropped."""
    monkeypatch.setattr(service_module, "MAX_RECORDS", 2)

    async def body(service):
        slow = await service.submit(_gate("slow"), "a")
        await _wait_started("slow")
        done = []
        for name in ("k1", "k2", "k3"):
            record = await service.submit(_job(_counted_job, name), "a")
            done.append(await service.wait(record))

        hits = service.cache.hits
        again = await service.submit(_job(_counted_job, "k1"), "b")
        assert again.source == "hit"
        assert again.flight is not done[0].flight    # k1 was dropped
        assert again.flight.body == done[0].flight.body
        assert service.cache.hits == hits + 1         # read from disk
        replay = await service.submit(_job(_counted_job, "k1"), "c")
        assert replay.flight is again.flight          # ... and kept
        assert service.cache.hits == hits + 1
        newest = await service.submit(_job(_counted_job, "k3"), "c")
        assert newest.flight is done[2].flight

        joined = await service.submit(_job(_gated_job, "slow"), "b")
        assert joined.source == "coalesced"
        assert joined.flight is slow.flight
        _GATES["slow"].set()
        await asyncio.wait_for(service.wait(slow), 30.0)
        repeat = await service.submit(_job(_gated_job, "slow"), "c")
        assert repeat.source == "hit" and repeat.flight is slow.flight
        assert _RUNS == ["k1", "k2", "k3", "slow"]
    serve_run(body)


def test_failed_flight_is_not_kept():
    async def body(service):
        first = await service.submit(_job(_flaky_job, "once"), "a")
        await asyncio.wait_for(service.wait(first), 30.0)
        assert first.status == "failed"
        second = await service.submit(_job(_flaky_job, "once"), "b")
        assert second.source == "miss"
        await asyncio.wait_for(service.wait(second), 30.0)
        assert second.status == "done"
        assert json.loads(second.flight.body)["result"]["calls"] == 2
    serve_run(body)


def test_degraded_answer_is_not_kept():
    """Once the breaker closes, a digest first answered degraded is
    simulated, and its kept body carries no degraded marker."""
    clock = [0.0]

    async def body(service):
        bad = await service.submit(_job(_failing_job, "bad"), "a")
        await asyncio.wait_for(service.wait(bad), 30.0)
        assert service.breaker.state == "open"
        approx = await service.submit(
            _job(_counted_job, "d"), "b",
            degraded_fn=lambda: [{"analytical": True}])
        assert approx.source == "degraded"

        clock[0] += 61.0                    # cooldown over: half-open
        probe = await service.submit(_job(_counted_job, "d"), "c",
                                     degraded_fn=lambda: [])
        assert probe.source == "miss"
        await asyncio.wait_for(service.wait(probe), 30.0)
        assert service.breaker.state == "closed"
        again = await service.submit(_job(_counted_job, "d"), "d")
        assert again.source == "hit" and again.flight is probe.flight
        payload = json.loads(again.flight.body)
        assert "degraded" not in payload
        assert payload["result"] == {"name": "d", "rows": [1, 2, 3]}
        assert _RUNS == ["d"]
    serve_run(body, breaker_threshold=1, breaker_cooldown=60.0,
              degraded=True, clock=lambda: clock[0])


def test_key_mismatch_under_one_digest_is_not_served_from_memory(
        monkeypatch):
    """Two keys forced onto one digest: the second must not be served
    the first's kept body."""
    monkeypatch.setattr(jobs_module, "key_digest", lambda key: "ab" * 32)

    async def body(service):
        first = await service.submit(_job(_counted_job, "one"), "a")
        await service.wait(first)
        other = await service.submit(_job(_counted_job, "two"), "b")
        assert other.digest == first.digest
        assert other.source == "miss"
        await service.wait(other)
        assert json.loads(other.flight.body)["result"]["name"] == "two"
        assert _RUNS == ["one", "two"]
    serve_run(body)


# -- fairness --------------------------------------------------------------

def test_flood_from_one_client_does_not_starve_another():
    async def body(service):
        blocker = _gate("fair-block")
        await service.submit(blocker, "flooder")
        await _wait_started("fair-block")

        flood = [await service.submit(
            _job(_counted_job, f"flood-{i}"), "flooder")
            for i in range(6)]
        victim = await service.submit(
            _job(_counted_job, "victim"), "tenant-b")

        _GATES["fair-block"].set()
        for record in [*flood, victim]:
            await asyncio.wait_for(service.wait(record), 30.0)

        # Round-robin dispatch bounds the wait at one extra job per
        # competing client per round: the other tenant's single job
        # runs within two dispatches of the in-flight blocker, never
        # behind the whole flood.
        assert _RUNS.index("victim") <= 2
    serve_run(body, workers=1)


# -- admission control -----------------------------------------------------

def test_token_bucket_rate_limits_per_client():
    clock = [0.0]

    async def body(service):
        job = _job(_counted_job, "rated")
        digest = service.cache.digest(job.key)
        service.cache.store(digest, job.key, "x")

        await service.submit(job, "alice")
        await service.submit(job, "alice")
        with pytest.raises(AdmissionError) as excinfo:
            await service.submit(job, "alice")
        assert excinfo.value.reason == "rate-limited"
        assert service.metrics.rejected["rate-limited"] == 1

        # A different client has its own bucket.
        await service.submit(job, "bob")
        # ... and the refill restores admission.
        clock[0] += 1.5
        await service.submit(job, "alice")
    serve_run(body, rate=1.0, burst=2, clock=lambda: clock[0])


def test_queue_depth_bound_rejects_with_typed_error():
    async def body(service):
        blocker = _gate("depth-block")
        await service.submit(blocker, "a")
        await _wait_started("depth-block")

        await service.submit(_job(_counted_job, "queued-1"), "a")
        with pytest.raises(AdmissionError) as excinfo:
            await service.submit(_job(_counted_job, "queued-2"), "a")
        assert excinfo.value.reason == "queue-full"
        assert service.metrics.rejected["queue-full"] == 1
        _GATES["depth-block"].set()
    serve_run(body, workers=1, queue_depth=1)


def test_uncacheable_job_is_rejected():
    async def body(service):
        with pytest.raises(ValueError, match="cache key"):
            await service.submit(Job(fn=_counted_job, args=("x",)), "a")
    serve_run(body)


# -- supervision -----------------------------------------------------------

def test_poison_job_surfaces_typed_failure():
    async def body(service):
        record = await service.submit(_job(_failing_job, "poison"), "a")
        await asyncio.wait_for(service.wait(record), 30.0)
        assert record.status == "failed"
        error = record.flight.error
        assert error["error"] == "job-failed"
        assert error["kind"] == "error"
        assert error["attempts"] == 1
        assert "boom: poison" in error["traceback"]
        assert service.metrics.failed == 1
        # A failed digest is not cached — a resubmit retries it.
        assert service.cache.stores == 0
    serve_run(body)


def test_transient_failure_retries_then_succeeds():
    async def body(service):
        record = await service.submit(_job(_flaky_job, "flaky"), "a")
        await asyncio.wait_for(service.wait(record), 30.0)
        assert record.status == "done"
        assert json.loads(record.flight.body)["result"]["calls"] == 2
        assert service.metrics.retries == 1
        assert service.metrics.completed == 1
    serve_run(body, policy=RetryPolicy(timeout=0, max_retries=2,
                                       retry_delay=0.001))


def test_watchdog_kill_requeues_an_in_flight_bystander_uncharged():
    """A hung job's watchdog kills the process pool; the innocent miss
    running beside it is requeued uncharged and completes, instead of
    failing as ``worker-lost``."""
    def sleeper(name: str, seconds: float) -> Job:
        return Job(fn=_sleep_job, args=(name, seconds),
                   key={"fn": "serve-service-test", "job": "sleep",
                        "name": name},
                   label=f"test:{name}")

    async def body(service):
        hung = await service.submit(sleeper("hung", 60.0), "a")
        await asyncio.sleep(0.7)
        bystander = await service.submit(sleeper("bystander", 0.6), "b")
        await asyncio.wait_for(service.wait(hung), 30.0)
        await asyncio.wait_for(service.wait(bystander), 30.0)
        assert hung.status == "failed"
        assert hung.flight.error["kind"] == "timeout"
        assert bystander.status == "done", bystander.flight.error
        assert json.loads(bystander.flight.body)["result"] == \
            {"name": "bystander"}
        assert service.metrics.retries == 0
    serve_run(body, executor="process",
              policy=RetryPolicy(timeout=1.0, max_retries=0))


# -- metrics / plumbing ----------------------------------------------------

def test_metrics_snapshot_shape_and_hit_rate():
    async def body(service):
        record = await service.submit(_job(_counted_job, "m1"), "a")
        await service.wait(record)
        hit = await service.submit(_job(_counted_job, "m1"), "a")
        service.metrics.observe(hit.source, 0.001)
        service.metrics.observe(record.source, 0.2)

        snap = service.metrics_snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == pytest.approx(0.5)
        assert snap["completed"] == 1
        assert snap["queue_depth"] == 0 and snap["running"] == 0
        assert snap["latency"]["hit"]["n"] == 1
        assert snap["latency"]["all"]["n"] == 2
        assert snap["latency"]["miss"]["p99_ms"] >= 100.0
        assert snap["cache"]["stores"] == 1
        json.dumps(snap)               # must be JSON-able as-is
    serve_run(body)


def test_metrics_quantiles_are_true(tmp_path):
    """Every /metrics latency class reads its exact nearest-rank p50 and
    p99 to within 1/128 (fixed-width bins read 0.5 and 50 ms here)."""
    rng = random.Random(19)
    samples = {"hit": [rng.uniform(0.25, 0.9) for _ in range(400)],
               "miss": [rng.uniform(8.0, 40.0) for _ in range(30)]}
    metrics = ServiceMetrics()
    for source, values in samples.items():
        for ms in values:
            metrics.observe(source, ms / 1000.0)
    samples["all"] = samples["hit"] + samples["miss"]
    latency = metrics.snapshot(ResultCache(str(tmp_path)), 0, 0)["latency"]
    for name, values in samples.items():
        ordered = sorted(values)
        got = latency[name]
        assert got["n"] == len(values)
        assert got["max_ms"] == pytest.approx(ordered[-1])
        for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            assert abs(got[key] - exact) <= exact / 128 * (1 + 1e-9), \
                (name, key, got[key], exact)
        assert got["p50_ms"] <= got["p99_ms"] <= got["max_ms"]


def test_result_bytes_round_trip():
    async def body(service):
        record = await service.submit(_job(_counted_job, "rb"), "a")
        await service.wait(record)
        assert service.result_bytes(record.digest) == record.flight.body
        assert service.result_bytes("0" * 64) is None
    serve_run(body)


def test_lookup_returns_records_and_none_for_unknown():
    async def body(service):
        record = await service.submit(_job(_counted_job, "lk"), "a")
        assert service.lookup(record.id) is record
        assert service.lookup("j999999") is None
        await service.wait(record)
    serve_run(body)


def test_token_bucket_refills_at_rate():
    clock = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock[0])
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()
    clock[0] += 0.5                     # half a second -> one token
    assert bucket.try_take()
    assert not bucket.try_take()
    clock[0] += 10.0                    # refill clamps at burst
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()


@pytest.mark.parametrize("bad", [
    {"workers": -1},
    {"executor": "fiber"},
    {"queue_depth": 0},
    {"rate": -0.5},
    {"burst": 0},
    {"breaker_threshold": -1},
    {"breaker_cooldown": 0.0},
    {"breaker_cooldown": -2.0},
])
def test_service_config_validation(bad):
    with pytest.raises(ValueError):
        ServiceConfig(**bad)


# -- circuit breaker / degraded mode ---------------------------------------

def test_circuit_breaker_state_machine_with_fake_clock():
    clock = [0.0]
    breaker = CircuitBreaker(threshold=3, cooldown=30.0,
                             clock=lambda: clock[0])
    assert breaker.state == "closed" and breaker.allow()

    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_success()                # a success resets the streak
    assert breaker.failures == 0

    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == "open" and not breaker.allow()
    assert breaker.trips == 1
    assert breaker.retry_after() == pytest.approx(30.0)

    clock[0] += 29.0                        # still cooling down
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(1.0)

    clock[0] += 1.0                         # cooldown elapsed
    assert breaker.state == "half-open"
    assert breaker.allow()                  # exactly one probe admitted
    assert not breaker.allow()              # concurrent misses still shed
    breaker.record_failure()                # probe failed -> re-open
    assert breaker.state == "open" and breaker.trips == 2

    clock[0] += 30.0
    assert breaker.allow()
    breaker.record_success()                # probe succeeded -> closed
    assert breaker.state == "closed" and breaker.failures == 0
    assert breaker.allow()


def test_circuit_breaker_disabled_at_threshold_zero():
    breaker = CircuitBreaker(threshold=0, cooldown=1.0)
    for _ in range(100):
        breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    assert breaker.trips == 0


def test_open_breaker_fast_fails_misses_but_serves_hits():
    async def body(service):
        warm = await service.submit(_job(_counted_job, "warm"), "a")
        await service.wait(warm)
        assert warm.status == "done"

        for client in ("b", "c"):
            bad = await service.submit(_job(_failing_job, "bad"),
                                       client)
            await service.wait(bad)
            assert bad.status == "failed"
        assert service.breaker.state == "open"

        with pytest.raises(BreakerOpen) as excinfo:
            await service.submit(_job(_counted_job, "fresh"), "d")
        assert excinfo.value.retry_after > 0
        assert service.metrics.rejected["breaker-open"] == 1

        # The cache stays healthy even when the pool is not.
        hit = await service.submit(_job(_counted_job, "warm"), "e")
        assert hit.source == "hit"
        assert json.loads(hit.flight.body)["result"] == \
            {"name": "warm", "rows": [1, 2, 3]}

        snapshot = service.metrics_snapshot()
        assert snapshot["breaker"] == {"state": "open", "failures": 2,
                                       "trips": 1}
    serve_run(body, breaker_threshold=2, breaker_cooldown=60.0)


def test_degraded_mode_answers_from_surrogate_and_never_caches():
    async def body(service):
        bad = await service.submit(_job(_failing_job, "bad"), "a")
        await service.wait(bad)
        assert service.breaker.state == "open"
        stores_before = service.cache.stores

        record = await service.submit(
            _job(_counted_job, "fresh"), "b",
            degraded_fn=lambda: [{"analytical": True}])
        assert record.source == "degraded"
        assert record.status == "done"
        payload = json.loads(record.flight.body)
        assert payload["degraded"] is True
        assert payload["result"] == [{"analytical": True}]
        snap = record.snapshot()
        assert snap["degraded"] is True
        assert "result_url" not in snap

        # Surrogate answers are marked, never cached, never run the
        # real job — a resubmission recomputes instead of hitting.
        assert "fresh" not in _RUNS
        assert service.cache.stores == stores_before
        again = await service.submit(
            _job(_counted_job, "fresh"), "c",
            degraded_fn=lambda: [])
        assert again.source == "degraded"
        assert service.metrics.degraded == 2

        # Without a surrogate the open breaker still fast-fails.
        with pytest.raises(BreakerOpen):
            await service.submit(_job(_counted_job, "fresh2"), "d")
    serve_run(body, breaker_threshold=1, breaker_cooldown=60.0,
              degraded=True)


def test_probe_slot_released_when_admission_rejects_the_probe():
    """A half-open probe rejected by the queue-depth bound must return
    its slot; otherwise the breaker is stuck half-open forever and the
    service 503s every miss until restart."""
    async def body(service):
        # Occupy the single worker and fill the one-deep queue while
        # the breaker is still closed.
        running = await service.submit(_gate("g1"), "a")
        await _wait_started("g1")
        queued = await service.submit(_gate("g2"), "a")
        assert service._queued == 1

        service.breaker.record_failure()      # threshold=1: trips open
        assert service.breaker.state == "open"
        await asyncio.sleep(0.05)             # cooldown elapses
        assert service.breaker.state == "half-open"

        # The probe miss is admitted past the breaker but rejected by
        # the full queue — the slot must come back.
        with pytest.raises(AdmissionError) as excinfo:
            await service.submit(_job(_counted_job, "fresh"), "b")
        assert excinfo.value.reason == "queue-full"
        assert not service.breaker.probing
        assert service.breaker.state == "half-open"

        # Before the fix this second attempt raised BreakerOpen (the
        # leaked slot shed every miss); now it reaches admission again.
        with pytest.raises(AdmissionError) as excinfo:
            await service.submit(_job(_counted_job, "fresh"), "b")
        assert excinfo.value.reason == "queue-full"

        # Drain: once the queue has room the probe actually runs and
        # its success closes the breaker.
        _GATES["g1"].set()
        _GATES["g2"].set()
        await service.wait(running)
        await service.wait(queued)
        probe = await service.submit(_job(_counted_job, "fresh"), "b")
        await service.wait(probe)
        assert probe.status == "done"
        assert service.breaker.state == "closed"
    serve_run(body, workers=1, queue_depth=1, breaker_threshold=1,
              breaker_cooldown=0.02)


def test_internal_error_counts_as_breaker_failure_and_resolves_probe():
    """A non-job internal error is still a failed flight: it must feed
    the breaker (and, for a half-open probe, re-open it) instead of
    leaving the probe slot claimed forever."""
    async def body(service):
        async def _broken_execute(job):
            raise RuntimeError("executor wiring broke")
        service._execute = _broken_execute

        first = await service.submit(_job(_counted_job, "x"), "a")
        await service.wait(first)
        assert first.status == "failed"
        assert first.flight.error["error"] == "internal"
        assert service.breaker.state == "open"   # threshold=1
        assert service.breaker.trips == 1

        await asyncio.sleep(0.05)                # half-open window
        probe = await service.submit(_job(_counted_job, "y"), "b")
        assert probe.flight.probe
        await service.wait(probe)
        assert probe.status == "failed"
        # The failed probe re-opened the breaker — not stuck half-open.
        assert not service.breaker.probing
        assert service.breaker.state == "open"
        assert service.breaker.trips == 2
    serve_run(body, workers=1, breaker_threshold=1,
              breaker_cooldown=0.02)


def test_close_resolves_queued_probe_and_releases_its_slot():
    """close() must settle flights that never reached a worker: their
    waiters unblock with a typed error and a claimed half-open probe
    slot is returned."""
    async def body(service):
        running = await service.submit(_gate("g1"), "a")
        await _wait_started("g1")
        service.breaker.record_failure()
        await asyncio.sleep(0.05)
        assert service.breaker.state == "half-open"

        # Admitted as the probe, but stuck behind g1 in the queue.
        queued = await service.submit(_job(_counted_job, "q"), "b")
        assert queued.flight.probe
        assert queued.status == "queued"

        await service.close()
        assert not service.breaker.probing
        assert queued.status == "failed"
        assert queued.flight.error["error"] == "cancelled"
        assert running.status == "failed"
        assert service._queued == 0 and not service._flights
        _GATES["g1"].set()
    serve_run(body, workers=1, breaker_threshold=1,
              breaker_cooldown=0.02)
