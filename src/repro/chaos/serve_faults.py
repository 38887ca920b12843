"""Serving-stack chaos: scripted adversaries against ``repro serve``.

:mod:`repro.chaos.runner_faults` attacks the sweep scheduler; this
module attacks the **HTTP serving stack** above it — the asyncio
listener, the service core, and the result cache they share.  Each
scenario boots a real server on an ephemeral port, runs one scripted
adversary against it, and asserts the resilience contract: the server
never hangs past its configured deadlines, every answer is a
well-formed typed response, and once the adversary stops, a warm
replay is byte-identical to a clean serial ``run_jobs`` sweep.

* ``slowloris`` — clients that never finish the request line, trickle
  headers forever, or truncate a declared body must be answered 408
  (or silently reaped) within the configured deadlines while a
  concurrent healthy request still succeeds.
* ``malformed``  — a negative ``Content-Length`` is a typed 400, a
  header flood past ``MAX_HEADERS`` a 431 + close (no unread bytes
  misparsed as a pipelined request), an oversized body a 413.
* ``sigterm``    — SIGTERM mid-ndjson-stream triggers graceful drain:
  the stream ends with a well-formed JSON tail + EOF, an in-flight
  request finishes with its real 200, a request pipelined behind it is
  answered ``503 {"error": "draining"}`` + close, and the server task
  exits within its drain deadline.
* ``cache``      — with its stored entry corrupted, the warm service
  answers a concurrent storm from its kept flight without reading the
  disk; a fresh service on the same cache purges the entry (counted),
  re-simulates it once, and every response stays byte-identical to the
  serial baseline; a one-byte quota degrades the cache to
  pass-through (evictions counted) without changing a byte.
* ``breaker``    — a poisoned pool trips the circuit breaker after the
  configured consecutive failures: fast-fail ``503`` + ``Retry-After``
  while open, analytical degraded answers (marked, uncached) when
  enabled, and a half-open probe closes it once the pool heals.
* ``warm-replay`` — a fresh server on the post-chaos cache serves the
  sweep as a pure hit, byte-identical to the serial baseline, and
  ``fsck`` finds nothing left to purge.

Backs ``benchmarks/bench_serve_chaos.py`` and the CI ``serve-chaos``
smoke job.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import tempfile
import threading
from typing import Callable, Optional

from repro.chaos.runner_faults import pool_fault_job
from repro.runner import Job, ResultCache, RetryPolicy, key_digest, run_jobs
from repro.serve import (ServeConfig, ServeServer, ServiceConfig,
                         SimulationService, result_body, run_server)
from repro.serve.http import MAX_HEADERS
from repro.serve.jobspec import JobSpec
from repro.serve.loadtest import open_http, post_job

#: Scenario names in execution order.
SERVE_CHAOS_SCENARIOS = ("slowloris", "malformed", "sigterm", "cache",
                         "breaker", "warm-replay")

#: Hard per-scenario wall-clock bound — the "no hang" assertion.  Every
#: configured deadline inside a scenario is far tighter than this.
SCENARIO_TIMEOUT = 60.0

#: Gates for jobs that must block until the scenario releases them
#: (thread-executor only, so plain threading primitives work).
_GATES: dict[str, threading.Event] = {}


def _gated_job(name: str, fn, args):
    """Run the real job payload once the scenario opens the gate."""
    _GATES[name].wait(SCENARIO_TIMEOUT)
    return fn(*args)


def _service_config(**overrides) -> ServiceConfig:
    base = dict(workers=2, executor="thread",
                policy=RetryPolicy(timeout=0, max_retries=0,
                                   retry_delay=0.001))
    base.update(overrides)
    return ServiceConfig(**base)


async def _boot(cache: ResultCache,
                service_config: Optional[ServiceConfig] = None,
                serve_config: Optional[ServeConfig] = None):
    service = SimulationService(cache=cache,
                                config=service_config
                                or _service_config())
    await service.start()
    server = ServeServer(service, "127.0.0.1", 0, config=serve_config)
    await server.start()
    return service, server


async def _shutdown(service, server, drain: float = 0.0) -> None:
    await server.close(drain=drain)
    await service.close()


async def _response(reader) -> tuple[int, dict, bytes]:
    """Parse one HTTP response (status, headers, body); status 0 on a
    bare EOF."""
    status_line = await reader.readline()
    if not status_line:
        return 0, {}, b""
    status = int(status_line.split(None, 2)[1])
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _closed(reader) -> bool:
    """True once the server half has closed the connection."""
    return await reader.read() == b""


async def _close_writer(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def _patch_submit(service, wrap: Callable[[Job], Job]) -> None:
    """Route every submission's job through ``wrap`` (key preserved, so
    digests — and therefore coalescing — are unchanged)."""
    original = service.submit

    async def patched(job, client, **kwargs):
        return await original(wrap(job), client, **kwargs)

    service.submit = patched


class _Checks:
    """Accumulates sub-assertions for one scenario."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def verdict(self, summary: str) -> tuple[bool, str]:
        if self.failures:
            return False, "; ".join(self.failures)
        return True, f"{summary} ({self.passed} checks)"


# -- scenarios ---------------------------------------------------------


async def _scenario_slowloris(spec, baseline, workdir) -> tuple[bool, str]:
    checks = _Checks()
    tight = ServeConfig(header_timeout=0.4, body_timeout=0.4,
                        idle_timeout=0.4, write_timeout=5.0)
    cache = ResultCache(os.path.join(workdir, "slowloris-cache"))
    service, server = await _boot(cache, serve_config=tight)
    host, port = server.address
    try:
        async def silent():
            # Never sends a byte: the idle deadline must reap it.
            reader, writer = await open_http(host, port)
            try:
                closed = await asyncio.wait_for(_closed(reader), 5.0)
                checks.expect(closed, "silent connection not reaped")
            finally:
                await _close_writer(writer)

        async def trickling_headers():
            # Request line lands, headers never finish: the shared
            # header deadline must fire a typed 408 and close.
            reader, writer = await open_http(host, port)
            try:
                writer.write(b"POST /jobs HTTP/1.1\r\nHost: x\r\n")
                await writer.drain()
                status, _headers, body = await asyncio.wait_for(
                    _response(reader), 5.0)
                checks.expect(status == 408,
                              f"stalled headers got {status}, not 408")
                checks.expect(b"request-timeout" in body,
                              "408 body missing request-timeout slug")
                checks.expect(await asyncio.wait_for(_closed(reader),
                                                     5.0),
                              "connection stayed open after 408")
            finally:
                await _close_writer(writer)

        async def truncated_body():
            # Declares 64 body bytes, sends 4: body deadline -> 408.
            reader, writer = await open_http(host, port)
            try:
                writer.write(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 64\r\n\r\n{\"a\"")
                await writer.drain()
                status, _headers, _body = await asyncio.wait_for(
                    _response(reader), 5.0)
                checks.expect(status == 408,
                              f"truncated body got {status}, not 408")
            finally:
                await _close_writer(writer)

        async def healthy():
            # A well-behaved client is unaffected by its neighbours.
            reader, writer = await open_http(host, port)
            try:
                status, _headers, body = await asyncio.wait_for(
                    post_job(reader, writer, spec, "healthy"), 30.0)
                checks.expect(status == 200 and body == baseline,
                              "healthy request degraded alongside "
                              "slowloris peers")
            finally:
                await _close_writer(writer)

        await asyncio.gather(silent(), trickling_headers(),
                             truncated_body(), healthy())
        checks.expect(server.stats["request_timeouts"] >= 2,
                      "408s not counted in server stats")
    finally:
        await _shutdown(service, server)
    return checks.verdict("slowloris clients reaped within deadlines, "
                          "healthy traffic unharmed")


async def _scenario_malformed(spec, baseline, workdir) -> tuple[bool, str]:
    checks = _Checks()
    cache = ResultCache(os.path.join(workdir, "malformed-cache"))
    service, server = await _boot(cache)
    host, port = server.address
    try:
        # Negative Content-Length: typed 400, never readexactly(-n).
        reader, writer = await open_http(host, port)
        writer.write(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: -17\r\n\r\n")
        await writer.drain()
        status, _headers, body = await asyncio.wait_for(
            _response(reader), 5.0)
        checks.expect(status == 400,
                      f"negative Content-Length got {status}, not 400")
        checks.expect(b"bad Content-Length" in body,
                      "400 body missing Content-Length detail")
        checks.expect(await asyncio.wait_for(_closed(reader), 5.0),
                      "connection stayed open after bad length")
        await _close_writer(writer)

        # Header flood: 431 and close -- the unread tail of the flood
        # must never be parsed as a pipelined request.
        reader, writer = await open_http(host, port)
        flood = b"".join(b"X-Flood-%d: y\r\n" % i
                         for i in range(MAX_HEADERS + 5))
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                     + flood + b"\r\n")
        await writer.drain()
        status, _headers, body = await asyncio.wait_for(
            _response(reader), 5.0)
        checks.expect(status == 431,
                      f"header flood got {status}, not 431")
        checks.expect(b"headers-too-large" in body,
                      "431 body missing typed slug")
        checks.expect(await asyncio.wait_for(_closed(reader), 5.0),
                      "connection stayed open after 431 (flood tail "
                      "would be misparsed)")
        await _close_writer(writer)

        # Oversized declared body: 413 before reading it.
        reader, writer = await open_http(host, port)
        writer.write(b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 1048577\r\n\r\n")
        await writer.drain()
        status, _headers, body = await asyncio.wait_for(
            _response(reader), 5.0)
        checks.expect(status == 413,
                      f"oversized body got {status}, not 413")
        checks.expect(b"payload-too-large" in body,
                      "413 body missing typed slug")
        await _close_writer(writer)
    finally:
        await _shutdown(service, server)
    return checks.verdict("malformed requests all answered with typed "
                          "responses and closed")


async def _scenario_sigterm(spec, baseline, workdir) -> tuple[bool, str]:
    checks = _Checks()
    cache = ResultCache(os.path.join(workdir, "sigterm-cache"))
    service = SimulationService(cache=cache, config=_service_config())
    gate = _GATES["sigterm"] = threading.Event()

    def gated(job: Job) -> Job:
        return Job(fn=_gated_job, args=("sigterm", job.fn, job.args),
                   key=job.key, label=job.label)

    _patch_submit(service, gated)
    address: asyncio.Future = asyncio.get_running_loop().create_future()
    server_task = asyncio.create_task(
        run_server(service, "127.0.0.1", 0,
                   ready=address.set_result,
                   config=ServeConfig(drain=10.0)))
    host, port = await asyncio.wait_for(address, 10.0)
    stream_reader = stream_writer = None
    pipeline_reader = pipeline_writer = None
    try:
        # Submit the gated job asynchronously; it parks in the pool.
        reader, writer = await open_http(host, port)
        status, _headers, body = await post_job(reader, writer, spec,
                                                "alice", wait=False)
        checks.expect(status == 202, f"async submit got {status}")
        job_id = json.loads(body)["id"]
        await _close_writer(writer)

        # Start the ndjson status stream and read its first update.
        stream_reader, stream_writer = await open_http(host, port)
        stream_writer.write((f"GET /jobs/{job_id}?stream=1 HTTP/1.1\r\n"
                             f"Host: x\r\n\r\n").encode())
        await stream_writer.drain()
        head = await asyncio.wait_for(stream_reader.readline(), 5.0)
        checks.expect(b"200" in head, "stream did not open")
        while True:
            line = await asyncio.wait_for(stream_reader.readline(), 5.0)
            if line in (b"\r\n", b"\n"):
                break
        first = json.loads(await asyncio.wait_for(
            stream_reader.readline(), 5.0))
        checks.expect(first["status"] in ("queued", "running"),
                      f"unexpected first stream update {first}")

        # A waiting client with a second request pipelined behind it:
        # the first must finish with its real result, the second must
        # be drained with a typed 503.
        pipeline_reader, pipeline_writer = await open_http(host, port)
        post = json.dumps(dict(spec, client="bob", wait=True)).encode()
        pipeline_writer.write(
            (f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(post)}\r\n\r\n").encode() + post
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        await pipeline_writer.drain()
        await asyncio.sleep(0.3)      # server is now awaiting the flight

        # SIGTERM mid-stream: the loop signal handler starts the drain.
        os.kill(os.getpid(), signal.SIGTERM)
        await asyncio.sleep(0.3)
        gate.set()

        # The stream must end with well-formed JSON then EOF, fast.
        tail = []
        while True:
            line = await asyncio.wait_for(stream_reader.readline(), 10.0)
            if not line:
                break
            tail.append(json.loads(line))
        checks.expect(bool(tail), "stream ended without a tail line")
        if tail:
            last = tail[-1]
            checks.expect(last.get("error") == "draining"
                          or last.get("status") in ("done", "failed"),
                          f"stream tail not terminal/typed: {last}")

        status, _headers, body = await asyncio.wait_for(
            _response(pipeline_reader), 10.0)
        checks.expect(status == 200 and body == baseline,
                      f"in-flight request got {status} during drain "
                      f"(want its real 200)")
        status, _headers, body = await asyncio.wait_for(
            _response(pipeline_reader), 10.0)
        checks.expect(status == 503 and b"draining" in body,
                      f"pipelined request got {status}, not a typed "
                      f"draining 503")
        checks.expect(await asyncio.wait_for(_closed(pipeline_reader),
                                             5.0),
                      "connection stayed open after draining 503")

        await asyncio.wait_for(server_task, 15.0)
        checks.expect(server_task.done(),
                      "server task still alive after drain deadline")
    finally:
        gate.set()
        for w in (stream_writer, pipeline_writer):
            if w is not None:
                await _close_writer(w)
        if not server_task.done():
            server_task.cancel()
            try:
                await server_task
            except (asyncio.CancelledError, Exception):
                pass
    return checks.verdict("SIGTERM drained gracefully: stream tail + "
                          "EOF, in-flight 200, pipelined 503")


async def _scenario_cache(spec, baseline, workdir,
                          clients: int) -> tuple[bool, str]:
    checks = _Checks()
    cache = ResultCache(os.path.join(workdir, "serve-cache"))

    async def storm(host, port, label: str) -> None:
        async def one(name: str):
            r, w = await open_http(host, port)
            try:
                return await post_job(r, w, spec, name)
            finally:
                await _close_writer(w)

        replies = await asyncio.gather(
            *[one(f"{label}-{i}") for i in range(clients)])
        checks.expect(all(s == 200 for s, _h, _b in replies),
                      f"non-200 under corrupt-entry load ({label})")
        checks.expect(all(b == baseline for _s, _h, b in replies),
                      f"a response diverged after cache corruption "
                      f"({label})")

    service, server = await _boot(cache)
    host, port = server.address
    try:
        reader, writer = await open_http(host, port)
        status, headers, body = await post_job(reader, writer, spec,
                                               "seed")
        await _close_writer(writer)
        checks.expect(status == 200 and body == baseline,
                      "cold serve body diverged from serial baseline")
        digest = headers.get("x-digest", "")

        # Flip bytes in the stored entry.  The warm service keeps the
        # flight it served, so its storm is answered from memory: no
        # disk read, every response byte-identical.
        victim = cache._path(digest)
        with open(victim, "r+b") as fh:
            fh.seek(80)
            fh.write(b"\xde\xad\xbe\xef")
        disk = (cache.hits, cache.misses)
        await storm(host, port, "warm")
        checks.expect((cache.hits, cache.misses) == disk,
                      f"warm service read the disk (hits, misses "
                      f"{disk} -> {(cache.hits, cache.misses)}), want "
                      f"its kept flight")
    finally:
        await _shutdown(service, server)

    # A fresh service on the same cache holds nothing in memory: the
    # checksum must catch the corruption, one request re-simulates,
    # and every response stays byte-identical.
    service, server = await _boot(cache)
    host, port = server.address
    try:
        await storm(host, port, "fresh")
        checks.expect(cache.corrupt == 1,
                      f"corrupt entry purged {cache.corrupt} times, "
                      f"want exactly 1")
        checks.expect(service.metrics.misses == 1,
                      f"fresh service simulated {service.metrics.misses} "
                      f"times, want exactly 1")
    finally:
        await _shutdown(service, server)

    # A one-byte quota degrades the cache to pass-through (evictions
    # counted): the first request simulates, the second is answered
    # from the service's kept flight, and bytes never change.
    quota_cache = ResultCache(os.path.join(workdir, "quota-cache"),
                              quota_bytes=1)
    service, server = await _boot(quota_cache)
    host, port = server.address
    try:
        for name, source in (("q-one", "miss"), ("q-two", "hit")):
            reader, writer = await open_http(host, port)
            status, headers, body = await post_job(reader, writer,
                                                   spec, name)
            await _close_writer(writer)
            checks.expect(status == 200 and body == baseline,
                          f"pass-through serve diverged for {name}")
            checks.expect(headers.get("x-cache") == source,
                          f"{name} source {headers.get('x-cache')!r}, "
                          f"want {source!r}")
        checks.expect(quota_cache.evictions >= 1,
                      "quota eviction not counted")
        checks.expect(quota_cache.hits == 0,
                      "one-byte quota unexpectedly served a disk hit")
    finally:
        await _shutdown(service, server)
    return checks.verdict("warm service answered from memory, fresh one "
                          "purged + re-simulated, byte-identical under "
                          "load; quota degrades to pass-through")


async def _scenario_breaker(spec, baseline, workdir) -> tuple[bool, str]:
    checks = _Checks()
    cache = ResultCache(os.path.join(workdir, "breaker-cache"))
    config = _service_config(breaker_threshold=2, breaker_cooldown=2.0)
    service, server = await _boot(cache, service_config=config)
    host, port = server.address
    original_submit = service.submit

    def poisoned(job: Job) -> Job:
        return Job(fn=pool_fault_job, args=("poison", "", job.fn, job.args),
                   key=job.key, label=job.label)

    try:
        _patch_submit(service, poisoned)
        reader, writer = await open_http(host, port)
        try:
            for i in range(2):
                status, _headers, body = await post_job(
                    reader, writer, spec, f"victim-{i}")
                checks.expect(status == 500
                              and b"job-failed" in body,
                              f"poisoned request {i} got {status}, "
                              f"want a typed 500")
            # Threshold reached: the next miss must fast-fail.
            status, headers, body = await post_job(reader, writer,
                                                   spec, "shed")
            checks.expect(status == 503, f"open breaker got {status}, "
                                         f"not 503")
            checks.expect("retry-after" in headers,
                          "503 missing Retry-After header")
            checks.expect(b"breaker-open" in body,
                          "503 body missing breaker-open slug")

            # Same open breaker with degraded mode: an analytical
            # answer, explicitly marked, never cached.
            service.config = dataclasses.replace(service.config,
                                                 degraded=True)
            status, headers, body = await post_job(reader, writer,
                                                   spec, "approx")
            payload = json.loads(body)
            checks.expect(status == 200
                          and headers.get("x-cache") == "degraded",
                          f"degraded answer got {status}/"
                          f"{headers.get('x-cache')}")
            checks.expect(payload.get("degraded") is True,
                          "degraded body not marked")
            checks.expect(bool(payload.get("result")),
                          "degraded body has no rows")
            checks.expect(body != baseline,
                          "degraded body identical to simulation "
                          "(marker missing?)")
            checks.expect(cache.stores == 0,
                          "degraded answer was persisted to the cache")

            # Heal the pool, wait out the cooldown: the half-open
            # probe must close the breaker with a real simulation.
            service.submit = original_submit
            await asyncio.sleep(2.1)
            status, headers, body = await post_job(reader, writer,
                                                   spec, "probe")
            checks.expect(status == 200 and body == baseline,
                          f"half-open probe got {status}, want the "
                          f"real 200")
            checks.expect(service.breaker.state == "closed",
                          f"breaker {service.breaker.state} after a "
                          f"successful probe, want closed")
            checks.expect(service.breaker.trips >= 1,
                          "breaker trip not counted")
            snapshot = service.metrics_snapshot()
            checks.expect(snapshot["rejected"]["breaker-open"] == 1,
                          "breaker-open rejection not counted")
            checks.expect(snapshot["degraded"] == 1,
                          "degraded answer not counted")
        finally:
            await _close_writer(writer)
    finally:
        await _shutdown(service, server)
    return checks.verdict("breaker tripped to 503+Retry-After, "
                          "degraded answers marked, probe re-closed it")


async def _scenario_warm_replay(spec, baseline,
                                workdir) -> tuple[bool, str]:
    checks = _Checks()
    # The cache scenario left a healthy re-simulated entry behind;
    # a fresh server over the same root must serve it as a pure hit.
    cache = ResultCache(os.path.join(workdir, "serve-cache"))
    report = cache.fsck()
    checks.expect(report["purged"] == 0 and report["ok"] >= 1,
                  f"post-chaos fsck still purging: {report}")
    service, server = await _boot(cache)
    host, port = server.address
    try:
        reader, writer = await open_http(host, port)
        status, headers, body = await post_job(reader, writer, spec,
                                               "replay")
        await _close_writer(writer)
        checks.expect(status == 200, f"warm replay got {status}")
        checks.expect(headers.get("x-cache") == "hit",
                      f"warm replay source "
                      f"{headers.get('x-cache')!r}, want 'hit'")
        checks.expect(body == baseline,
                      "warm replay not byte-identical to the clean "
                      "serial run_jobs baseline")
    finally:
        await _shutdown(service, server)
    return checks.verdict("post-chaos warm replay is a byte-identical "
                          "cache hit")


def run_serve_chaos(*, smoke: bool = True,
                    workdir: Optional[str] = None,
                    log: Optional[Callable[[str], None]] = None) -> dict:
    """Run every serve-chaos scenario; returns a summary dict.

    Summary keys: ``scenarios`` (one dict per scenario with ``name``,
    ``ok``, ``detail``), ``baseline_digest``, and ``ok``.  ``workdir``
    holds the scenario caches (a temp dir by default); pass a
    persistent path so CI can upload it as a failure artifact.
    """
    say = log or (lambda msg: None)
    workdir = workdir or tempfile.mkdtemp(prefix="repro-serve-chaos-")
    os.makedirs(workdir, exist_ok=True)

    spec = {"scheme": "ui-ua", "mesh": 2 if smoke else 4,
            "degrees": [2] if smoke else [2, 4],
            "per_degree": 1 if smoke else 2, "seed": 0}
    clients = 4 if smoke else 12

    say("baseline: clean serial run_jobs sweep")
    job = JobSpec.from_mapping(spec).to_job()
    digest = key_digest(job.key)
    baseline_cache = ResultCache(os.path.join(workdir, "baseline-cache"))
    run_jobs([job], workers=1, cache=baseline_cache)
    baseline = result_body(digest, baseline_cache.load(digest, job.key))

    runs = [
        ("slowloris", _scenario_slowloris(spec, baseline, workdir)),
        ("malformed", _scenario_malformed(spec, baseline, workdir)),
        ("sigterm", _scenario_sigterm(spec, baseline, workdir)),
        ("cache", _scenario_cache(spec, baseline, workdir, clients)),
        ("breaker", _scenario_breaker(spec, baseline, workdir)),
        ("warm-replay", _scenario_warm_replay(spec, baseline, workdir)),
    ]
    scenarios: list[dict] = []
    for name, coro in runs:
        try:
            ok, detail = asyncio.run(
                asyncio.wait_for(coro, SCENARIO_TIMEOUT))
        except asyncio.TimeoutError:
            ok, detail = False, (f"scenario hung past its "
                                 f"{SCENARIO_TIMEOUT:g}s deadline")
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        scenarios.append({"name": name, "ok": ok, "detail": detail})
        say(f"{name}: {'survived' if ok else 'FAILED'} — {detail}")

    return {
        "ok": all(s["ok"] for s in scenarios),
        "baseline_digest": digest,
        "scenarios": scenarios,
        "workdir": workdir,
    }
