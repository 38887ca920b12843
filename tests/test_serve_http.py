"""HTTP front-end tests (repro.serve.http) over real sockets.

Each test boots a full server — SimulationService on a thread pool plus
the asyncio listener on an ephemeral port — and drives it with the
stdlib load-test client.  Covers the serving contract end to end:
cold-miss/warm-hit submission with byte-identical bodies, result and
status endpoints (including ndjson streaming), typed 4xx/5xx error
responses, and the aggregate ``run_load`` fleet.
"""

import asyncio
import inspect
import json
import logging
import os
import signal
import socket
import tempfile
import threading
import time
import types

import pytest

from repro.analysis.experiments import (run_analytical_sweep,
                                        run_invalidation_sweep)
from repro.runner import Job, ResultCache, run_jobs
from repro.runner import jobs as jobs_module
from repro.runner.supervisor import RetryPolicy
from repro.serve import (JobSpec, ServeConfig, ServeServer, ServiceConfig,
                         SimulationService, result_body, run_load,
                         run_server)
from repro.serve import http as http_module
from repro.serve.http import (_COUNTS_CANCELS, MAX_HEADERS, MAX_KEPT_BODY,
                              _with_deadline)
from repro.serve.loadtest import (fetch_json, fetch_result, http_request,
                                  open_http, post_job, read_response)

#: Smallest legal sweep: 4-node mesh, one degree, one pattern.
SPEC = {"scheme": "ui-ua", "mesh": 2, "degrees": [2], "per_degree": 1,
        "seed": 0}


def _service_config(**overrides) -> ServiceConfig:
    config = dict(workers=2, executor="thread",
                  policy=RetryPolicy(timeout=0, max_retries=0,
                                     retry_delay=0.001))
    config.update(overrides)
    return ServiceConfig(**config)


def serve_run(test_coro, serve_config=None, debug=False, cache=None,
              **overrides):
    """Boot service + server, run the test body, tear down.

    The body coroutine may take ``(host, port, service)`` or
    ``(host, port, service, server)`` — the listener is passed when a
    test wants to poke connection accounting directly.  ``cache``
    defaults to an empty store in a temp dir.
    """
    async def main():
        with tempfile.TemporaryDirectory(
                prefix="repro-serve-http-") as root:
            service = SimulationService(
                cache=cache if cache is not None else ResultCache(root),
                config=_service_config(**overrides))
            await service.start()
            server = ServeServer(service, "127.0.0.1", 0,
                                 config=serve_config)
            await server.start()
            host, port = server.address
            try:
                arity = len(inspect.signature(test_coro).parameters)
                args = (host, port, service, server)[:arity]
                return await test_coro(*args)
            finally:
                await server.close()
                await service.close()
    return asyncio.run(main(), debug=debug)


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def _gate_jobs(service, gate: threading.Event) -> None:
    """Hold every job ``service`` runs until ``gate`` opens (keys kept,
    so digests and coalescing are unchanged)."""
    def gated(fn, args):
        assert gate.wait(30.0)
        return fn(*args)

    async def gated_submit(job, client, _original=service.submit,
                           **kwargs):
        return await _original(
            Job(fn=gated, args=(job.fn, job.args), key=job.key,
                label=job.label), client, **kwargs)

    service.submit = gated_submit


def _serial_body(spec=SPEC) -> bytes:
    """The body a clean serial ``run_jobs`` run renders for ``spec``."""
    job_spec = JobSpec.from_mapping(spec)
    (rows,) = run_jobs([job_spec.to_job()], workers=1)
    return result_body(job_spec.digest, rows)


# -- submission ------------------------------------------------------------

def test_cold_miss_then_warm_hit_bodies_are_byte_identical():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            status, headers, cold = await post_job(reader, writer,
                                                   SPEC, "alice")
            assert status == 200
            assert headers["x-cache"] == "miss"
            assert headers["x-digest"] == JobSpec.from_mapping(SPEC).digest
            assert headers["x-job-id"].startswith("j")

            status, headers, warm = await post_job(reader, writer,
                                                   SPEC, "bob")
            assert status == 200
            assert headers["x-cache"] == "hit"
            assert warm == cold                       # byte identity

            payload = json.loads(cold)
            assert payload["digest"] == headers["x-digest"]
            assert payload["result"]                  # non-empty rows
        finally:
            await _close(writer)
    serve_run(body)


def test_fresh_service_purges_a_corrupt_entry_once_under_a_storm(
        tmp_path):
    """A fresh server holds nothing in memory, so a storm on a digest
    whose disk entry is corrupt must read the damage once: one purge,
    one simulation, every reply byte-identical to a serial run."""
    spec = JobSpec.from_mapping(SPEC)
    seeded = ResultCache(str(tmp_path))
    (rows,) = run_jobs([spec.to_job()], workers=1, cache=seeded)
    expected = result_body(spec.digest, rows)
    with open(seeded._path(spec.digest), "r+b") as fh:
        fh.seek(80)
        fh.write(b"\xde\xad\xbe\xef")
    cache = ResultCache(str(tmp_path))        # counters start at zero

    async def body(host, port, service):
        async def one(i):
            reader, writer = await open_http(host, port)
            try:
                return await post_job(reader, writer, SPEC, f"storm-{i}")
            finally:
                await _close(writer)

        replies = await asyncio.wait_for(
            asyncio.gather(*[one(i) for i in range(8)]), 30.0)
        assert [status for status, _h, _b in replies] == [200] * 8
        assert all(resp == expected for _s, _h, resp in replies)
        assert cache.corrupt == 1
        assert service.metrics.misses == 1
    serve_run(body, cache=cache)
    report = cache.fsck()
    assert (report["purged"], report["ok"]) == (0, 1)


def test_one_byte_quota_answers_the_repeat_from_memory(tmp_path):
    """A quota no entry fits evicts every store, so the disk serves
    nothing; the repeat is still a hit, on the kept flight."""
    cache = ResultCache(str(tmp_path), quota_bytes=1)
    expected = _serial_body()

    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            replies = [await asyncio.wait_for(
                post_job(reader, writer, SPEC, client), 30.0)
                for client in ("alice", "bob")]
        finally:
            await _close(writer)
        assert [(status, headers["x-cache"])
                for status, headers, _b in replies] == \
            [(200, "miss"), (200, "hit")]
        assert replies[0][2] == replies[1][2] == expected
        assert cache.evictions >= 1
        assert cache.hits == 0
    serve_run(body, cache=cache)


def test_result_endpoint_serves_cached_digest():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            _status, headers, posted = await post_job(reader, writer,
                                                      SPEC, "alice")
        finally:
            await _close(writer)
        digest = headers["x-digest"]
        assert await fetch_result(host, port, digest) == posted

        with pytest.raises(RuntimeError, match="404"):
            await fetch_result(host, port, "0" * 64)
        with pytest.raises(RuntimeError, match="404"):
            await fetch_result(host, port, "not-a-digest")
    serve_run(body)


def test_result_endpoint_is_immutable_cacheable_with_etag():
    """Results are content-addressed, so GET /results/<digest> carries
    an immutable Cache-Control plus a digest ETag, and revalidation
    with If-None-Match (weak comparison) short-circuits to an empty
    304."""
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            _status, headers, posted = await post_job(reader, writer,
                                                      SPEC, "alice")
            digest = headers["x-digest"]

            status, rh, body_bytes = await http_request(
                reader, writer, "GET", f"/results/{digest}")
            assert status == 200
            assert body_bytes == posted
            assert rh["etag"] == f'"{digest}"'
            assert rh["cache-control"] == \
                "public, max-age=31536000, immutable"

            # Matching validator -> 304, no body, cache headers intact.
            status, rh, body_bytes = await http_request(
                reader, writer, "GET", f"/results/{digest}",
                headers=(("If-None-Match", f'"{digest}"'),))
            assert status == 304
            assert body_bytes == b""
            assert rh["etag"] == f'"{digest}"'
            assert "immutable" in rh["cache-control"]

            # If-None-Match compares weakly (RFC 9110 §13.1.2): a weak
            # validator matches, alone or anywhere in a list.
            for validator in (f'W/"{digest}"',
                              '"' + "0" * 64 + f'", W/"{digest}"'):
                status, _rh, body_bytes = await http_request(
                    reader, writer, "GET", f"/results/{digest}",
                    headers=(("If-None-Match", validator),))
                assert status == 304, validator
                assert body_bytes == b""

            # Wildcard matches anything cached.
            status, _rh, body_bytes = await http_request(
                reader, writer, "GET", f"/results/{digest}",
                headers=(("If-None-Match", "*"),))
            assert status == 304
            assert body_bytes == b""

            # Stale/foreign validator -> full 200 again.
            status, _rh, body_bytes = await http_request(
                reader, writer, "GET", f"/results/{digest}",
                headers=(("If-None-Match", '"' + "0" * 64 + '"'),))
            assert status == 200
            assert body_bytes == posted
        finally:
            await _close(writer)
    serve_run(body)


def test_async_submit_then_poll_status():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            request = dict(SPEC, client="alice", wait=False)
            status, _headers, submitted = await http_request(
                reader, writer, "POST", "/jobs",
                json.dumps(request).encode())
            assert status == 202
            snapshot = json.loads(submitted)
            assert snapshot["status"] in ("queued", "running")
            job_id = snapshot["id"]

            for _ in range(1000):
                view = await fetch_json(host, port, f"/jobs/{job_id}")
                if view["status"] in ("done", "failed"):
                    break
                await asyncio.sleep(0.01)
            assert view["status"] == "done"
            assert view["result_url"] == f"/results/{view['digest']}"
            assert await fetch_result(host, port, view["digest"])
        finally:
            await _close(writer)
    serve_run(body)


def test_status_streaming_emits_ndjson_until_terminal():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            request = dict(SPEC, client="alice", wait=False)
            _status, _headers, submitted = await http_request(
                reader, writer, "POST", "/jobs",
                json.dumps(request).encode())
            job_id = json.loads(submitted)["id"]
        finally:
            await _close(writer)

        reader, writer = await open_http(host, port)
        try:
            writer.write((f"GET /jobs/{job_id}?stream=1 HTTP/1.1\r\n"
                          f"Host: {host}\r\n\r\n").encode())
            await writer.drain()
            head = await reader.readline()
            assert b"200" in head
            while True:                       # headers
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
            updates = []
            while True:                       # ndjson until server EOF
                line = await reader.readline()
                if not line:
                    break
                updates.append(json.loads(line))
        finally:
            await _close(writer)
        assert updates
        assert updates[-1]["status"] == "done"
        assert all(u["id"] == job_id for u in updates)
    serve_run(body)


@pytest.mark.parametrize("analytical", [False, True])
def test_spec_digest_is_the_digest_of_the_sweep_job(tmp_path, analytical):
    """``repro sweep`` and a served spec of the same config build one
    job, so the sweep's cache entry is the one the service looks up."""
    spec = JobSpec.from_mapping(dict(SPEC, mesh=4, degrees=[2, 5],
                                     kind="column", analytical=analytical))
    sweep = run_analytical_sweep if analytical else run_invalidation_sweep
    cache = ResultCache(str(tmp_path))
    rows = sweep([spec.scheme], spec.degrees, per_degree=spec.per_degree,
                 params=spec.params, kind=spec.kind, seed=spec.seed,
                 cache=cache)
    assert cache.stores == 1
    assert cache.load(spec.digest, spec.to_job().key) == rows


# -- typed errors ----------------------------------------------------------

def test_malformed_json_is_400():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            status, _headers, resp = await http_request(
                reader, writer, "POST", "/jobs", b"{not json")
            assert status == 400
            assert json.loads(resp)["error"] == "bad-request"
        finally:
            await _close(writer)
    serve_run(body)


@pytest.mark.parametrize("spec, fragment", [
    (dict(SPEC, scheme="warp-speed"), "scheme"),
    (dict(SPEC, typo_field=1), "unknown field"),
    (dict(SPEC, mesh=999), "mesh"),
    (dict(SPEC, params={"mesh_width": 4}), "not overridable"),
    (dict(SPEC, params={"kernel": "soa"}), "unknown parameter"),
    (dict(SPEC, params={"jobs": 4}), "unknown parameter"),
    (dict(SPEC, scheme=["ui-ua"]), "scheme"),
    (dict(SPEC, mesh=4, kind="column", degrees=[12]), "degree"),
    (dict(SPEC, params={"audit": "full"}), "unknown parameter"),
    (dict(SPEC, params={"multidest_header_flits": 3}), "unknown parameter"),
    (dict(SPEC, params={"deferred_delivery": "no"}),
     "deferred_delivery must be a boolean"),
    (dict(SPEC, params={"router_delay": 2.5}),
     "router_delay must be an integer"),
    (dict(SPEC, params={"iack_buffers": True}),
     "iack_buffers must be an integer"),
    (dict(SPEC, params={"net_cycle_ns": "5"}),
     "net_cycle_ns must be a number"),
    # json.dumps writes NaN, which json.loads reads back.
    (dict(SPEC, params={"net_cycle_ns": float("nan")}),
     "net_cycle_ns must be a number"),
])
def test_invalid_spec_is_400_with_detail(spec, fragment):
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            status, _headers, resp = await http_request(
                reader, writer, "POST", "/jobs",
                json.dumps(dict(spec, client="a")).encode())
            assert status == 400
            payload = json.loads(resp)
            assert payload["error"] == "bad-request"
            assert fragment in payload["detail"]
        finally:
            await _close(writer)
    serve_run(body)


def test_unknown_route_404_and_wrong_method_405():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            status, _headers, _resp = await http_request(
                reader, writer, "GET", "/nope")
            assert status == 404
            status, _headers, resp = await http_request(
                reader, writer, "GET", "/jobs")
            assert status == 405
            assert json.loads(resp)["error"] == "method-not-allowed"
        finally:
            await _close(writer)
    serve_run(body)


def test_rate_limited_client_gets_429():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            status, _headers, _resp = await post_job(reader, writer,
                                                     SPEC, "alice")
            assert status == 200
            status, _headers, resp = await post_job(reader, writer,
                                                    SPEC, "alice")
            assert status == 429
            assert json.loads(resp)["error"] == "rate-limited"
            # Another tenant is not affected by alice's empty bucket.
            status, _headers, _resp = await post_job(reader, writer,
                                                    SPEC, "bob")
            assert status == 200
        finally:
            await _close(writer)
    serve_run(body, rate=0.0001, burst=1)


def test_failed_job_is_500_with_supervision_verdict():
    async def body(host, port, service):
        # Reach past the HTTP-validated spec surface: make the worker
        # itself die so the supervised JobFailed verdict travels back
        # as a typed 500.
        def _boom():
            raise RuntimeError("worker exploded")

        async def failing_submit(job, client, _original=service.submit,
                                 **kwargs):
            return await _original(
                Job(fn=_boom, args=(), key=job.key, label=job.label),
                client, **kwargs)

        service.submit = failing_submit
        reader, writer = await open_http(host, port)
        try:
            status, headers, resp = await post_job(reader, writer,
                                                   SPEC, "alice")
        finally:
            await _close(writer)
        assert status == 500
        assert headers["x-cache"] == "miss"
        payload = json.loads(resp)
        assert payload["error"] == "job-failed"
        assert payload["kind"] == "error"
        assert "worker exploded" in payload["traceback"]
    serve_run(body)


def test_oversized_body_is_413():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            writer.write((f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Length: {(1 << 20) + 1}\r\n"
                          f"\r\n").encode())
            await writer.drain()
            head = await reader.readline()
            assert b"413" in head
        finally:
            await _close(writer)
    serve_run(body)


@pytest.mark.parametrize("wait", ["false", 0])
def test_non_boolean_wait_is_400(wait):
    """``"wait": "false"`` used to block until the result (a truthy
    string) and ``"wait": 0`` to answer 202: both are 400 now."""
    async def body(host, port, service, server):
        reader, writer = await open_http(host, port)
        try:
            replies = [await http_request(
                reader, writer, "POST", "/jobs",
                json.dumps(dict(SPEC, wait=wait)).encode())
                for _ in range(2)]
        finally:
            await _close(writer)
        for status, _headers, resp in replies:
            assert status == 400
            assert json.loads(resp) == {"error": "bad-request",
                                        "detail": "wait must be a boolean"}
        assert server._bodies == {}
        assert service.metrics.submitted == 0
    serve_run(body)


# -- validated-body store --------------------------------------------------

def _count_parse_calls(monkeypatch) -> dict:
    """Count every parse-path call a ``POST /jobs`` body can make: the
    JSON decode, spec validation, the job lowering, the key digest."""
    calls = dict.fromkeys(("json.loads", "from_mapping", "to_job",
                           "key_digest"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(http_module, "json", types.SimpleNamespace(
        loads=counted("json.loads", json.loads), dumps=json.dumps,
        JSONDecodeError=json.JSONDecodeError))
    monkeypatch.setattr(JobSpec, "from_mapping", classmethod(
        counted("from_mapping", JobSpec.from_mapping.__func__)))
    monkeypatch.setattr(JobSpec, "to_job",
                        counted("to_job", JobSpec.to_job))
    monkeypatch.setattr(jobs_module, "key_digest",
                        counted("key_digest", jobs_module.key_digest))
    return calls


async def _post_bodies(host, port, payloads, headers=()):
    reader, writer = await open_http(host, port)
    try:
        return [await asyncio.wait_for(http_request(
            reader, writer, "POST", "/jobs", payload, headers=headers),
            30.0) for payload in payloads]
    finally:
        await _close(writer)


def test_repeated_body_skips_the_parse(monkeypatch):
    """A repeat of a kept body's exact bytes makes no JSON decode, spec
    validation, job lowering or key digest, and gets the miss's bytes."""
    calls = _count_parse_calls(monkeypatch)
    payload = json.dumps(dict(SPEC, client="alice")).encode()

    async def body(host, port, service, server):
        (first,) = await _post_bodies(host, port, [payload])
        assert calls == dict.fromkeys(calls, 1)
        calls.update(dict.fromkeys(calls, 0))
        repeats = await _post_bodies(host, port, [payload] * 3)
        assert calls == dict.fromkeys(calls, 0)
        assert (first[0], first[1]["x-cache"]) == (200, "miss")
        for status, headers, resp in repeats:
            assert (status, headers["x-cache"]) == (200, "hit")
            assert headers["x-digest"] == first[1]["x-digest"]
            assert resp == first[2]
        assert list(server._bodies) == [payload]
    serve_run(body)


def test_rejected_body_is_rejected_again_and_never_kept(monkeypatch):
    calls = _count_parse_calls(monkeypatch)
    payload = json.dumps(dict(SPEC, scheme="warp-speed")).encode()

    async def body(host, port, service, server):
        replies = await _post_bodies(host, port, [payload] * 2)
        assert [status for status, _h, _b in replies] == [400, 400]
        assert replies[0][2] == replies[1][2]
        assert "scheme" in json.loads(replies[0][2])["detail"]
        assert calls["from_mapping"] == 2
        assert server._bodies == {}
    serve_run(body)


def test_kept_body_is_rate_limited_per_client_header(monkeypatch):
    """The client is per request: one kept body under two ``X-Client``
    headers draws on two token buckets."""
    calls = _count_parse_calls(monkeypatch)
    payload = json.dumps(SPEC).encode()

    async def body(host, port, service):
        alice = await _post_bodies(host, port, [payload] * 2,
                                   headers=(("X-Client", "alice"),))
        (bob,) = await _post_bodies(host, port, [payload],
                                    headers=(("X-Client", "bob"),))
        assert [status for status, _h, _b in alice] == [200, 429]
        assert json.loads(alice[1][2])["error"] == "rate-limited"
        assert "'alice'" in json.loads(alice[1][2])["detail"]
        assert bob[0] == 200 and bob[1]["x-cache"] == "hit"
        assert calls["from_mapping"] == 1
    serve_run(body, rate=0.0001, burst=1)


def test_one_spec_in_two_key_orders_runs_once():
    """Other bytes for the same spec take the parse path and still
    reach the one kept flight."""
    forward = json.dumps(SPEC).encode()
    backward = json.dumps(dict(reversed(list(SPEC.items())))).encode()
    assert forward != backward

    async def body(host, port, service, server):
        replies = await _post_bodies(host, port, [forward, backward])
        assert [(status, headers["x-cache"])
                for status, headers, _b in replies] == \
            [(200, "miss"), (200, "hit")]
        assert replies[0][2] == replies[1][2] == _serial_body()
        assert service.metrics.misses == service.metrics.completed == 1
        assert list(server._bodies) == [forward, backward]
    serve_run(body)


def test_body_over_the_keep_cap_is_answered_and_not_kept(monkeypatch):
    expected = _serial_body()
    calls = _count_parse_calls(monkeypatch)
    payload = json.dumps(SPEC, indent=MAX_KEPT_BODY).encode()
    assert len(payload) > MAX_KEPT_BODY

    async def body(host, port, service, server):
        replies = await _post_bodies(host, port, [payload] * 2)
        assert [(status, headers["x-cache"])
                for status, headers, _b in replies] == \
            [(200, "miss"), (200, "hit")]
        assert replies[0][2] == replies[1][2] == expected
        assert calls["from_mapping"] == 2
        assert server._bodies == {}
    serve_run(body)


def test_body_store_is_bounded_and_drops_the_oldest(monkeypatch):
    monkeypatch.setattr(http_module, "MAX_RECORDS", 2)
    calls = _count_parse_calls(monkeypatch)
    first, second, third = (json.dumps(SPEC, indent=n).encode()
                            for n in (None, 1, 2))

    async def body(host, port, service, server):
        replies = await _post_bodies(host, port, [first, second, third])
        assert list(server._bodies) == [second, third]
        replies += await _post_bodies(host, port, [first])
        assert list(server._bodies) == [third, first]
        assert calls["from_mapping"] == 4
        assert [status for status, _h, _b in replies] == [200] * 4
        assert len({resp for _s, _h, resp in replies}) == 1
    serve_run(body)


# -- metrics / health / fleet ---------------------------------------------

def test_metrics_endpoint_reflects_traffic():
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            await post_job(reader, writer, SPEC, "alice")
            await post_job(reader, writer, SPEC, "alice")
        finally:
            await _close(writer)
        metrics = await fetch_json(host, port, "/metrics")
        assert metrics["misses"] == 1
        assert metrics["hits"] == 1
        assert metrics["hit_rate"] == pytest.approx(0.5)
        assert metrics["http_requests"] >= 2
        assert metrics["latency"]["hit"]["n"] == 1
        assert metrics["cache"]["stores"] == 1
    serve_run(body)


def test_healthz():
    async def body(host, port, service):
        assert await fetch_json(host, port, "/healthz") == {"ok": True}
    serve_run(body)


def test_run_load_fleet_end_to_end():
    async def body(host, port, service):
        specs = [SPEC, dict(SPEC, seed=1)]
        stats = await run_load(host, port, specs, clients=4, requests=6)
        assert stats["errors"] == 0
        assert stats["requests"] == 24
        assert stats["hit_rate"] > 0.5
        assert set(stats["sources"]) <= {"hit", "miss", "coalesced"}
        assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0
        return stats
    serve_run(body)


# -- connection lifecycle ---------------------------------------------------

def test_negative_content_length_is_400_and_closes():
    # Regression: ``Content-Length: -17`` used to reach
    # ``readexactly(-17)``, whose ValueError killed the connection
    # task with no response at all.
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            writer.write(b"POST /jobs HTTP/1.1\r\n"
                         b"Content-Length: -17\r\n\r\n")
            await writer.drain()
            status, headers, resp = await read_response(reader)
            assert status == 400
            payload = json.loads(resp)
            assert payload["error"] == "bad-request"
            assert "Content-Length" in payload["detail"]
            assert "-17" in payload["detail"]
            assert headers["connection"] == "close"
            assert await reader.read() == b""
        finally:
            await _close(writer)
    serve_run(body)


def test_header_flood_is_431_and_closes():
    # Regression: past MAX_HEADERS the parser used to stop reading
    # header lines, so the flood's unread tail was misparsed as the
    # next pipelined request.  Now: 431, connection closed, tail
    # never interpreted.
    async def body(host, port, service):
        reader, writer = await open_http(host, port)
        try:
            flood = "".join(f"X-Flood-{i}: 1\r\n"
                            for i in range(MAX_HEADERS + 5))
            writer.write((f"GET /healthz HTTP/1.1\r\n{flood}\r\n"
                          f"GET /metrics HTTP/1.1\r\n\r\n").encode())
            await writer.drain()
            status, headers, resp = await read_response(reader)
            assert status == 431
            assert json.loads(resp)["error"] == "headers-too-large"
            assert headers["connection"] == "close"
            assert await reader.read() == b""   # pipelined GET ignored
        finally:
            await _close(writer)
    serve_run(body)


def test_stalled_header_block_is_408():
    async def body(host, port, service, server):
        reader, writer = await open_http(host, port)
        try:
            writer.write(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
            await writer.drain()
            status, headers, resp = await read_response(reader)
            assert status == 408
            assert json.loads(resp)["error"] == "request-timeout"
            assert headers["connection"] == "close"
            assert server.stats["request_timeouts"] == 1
            assert await reader.read() == b""
        finally:
            await _close(writer)
    serve_run(body, serve_config=ServeConfig(header_timeout=0.2))


async def _settle(predicate, deadline: float = 5.0) -> bool:
    """Poll ``predicate()`` until true (or the deadline passes)."""
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    while loop.time() < end:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


def test_keep_alive_connection_accounting():
    async def body(host, port, service, server):
        reader, writer = await open_http(host, port)
        try:
            for i in range(5):
                status, _headers, _resp = await post_job(
                    reader, writer, SPEC, f"client-{i}")
                assert status == 200
                # Five sequential requests ride ONE connection task.
                assert len(server._connections) == 1
        finally:
            await _close(writer)
        assert await _settle(lambda: not server._connections)
        assert not server._busy
    serve_run(body)


def test_idle_keep_alive_connection_is_reaped():
    async def body(host, port, service, server):
        reader, writer = await open_http(host, port)
        status, _headers, _resp = await post_job(reader, writer, SPEC,
                                                 "alice")
        assert status == 200
        # Go idle: the server must close the connection itself
        # (silently — there is no request to answer with a 408).
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        assert await _settle(lambda: not server._connections)
        await _close(writer)
    serve_run(body, serve_config=ServeConfig(idle_timeout=0.2))


def test_close_reaps_connections_and_leaks_no_tasks():
    async def body(host, port, service, server):
        conns = [await open_http(host, port) for _ in range(3)]
        status, _headers, _resp = await post_job(
            conns[0][0], conns[0][1], SPEC, "alice")
        assert status == 200
        assert await _settle(lambda: len(server._connections) == 3)
        # Cancels that land right after a response was written must
        # still be seen; a lost one held close() for the 60 s idle
        # timeout.
        started = time.monotonic()
        await server.close()
        assert time.monotonic() - started < 5.0
        assert not server._connections
        assert not server._busy
        for reader, writer in conns:
            assert await reader.read() == b""
            await _close(writer)
        await service.close()
        leaked = [t for t in asyncio.all_tasks()
                  if t is not asyncio.current_task() and not t.done()]
        assert not leaked, leaked
    serve_run(body, debug=True)


def test_stalled_body_is_408():
    async def body(host, port, service, server):
        reader, writer = await open_http(host, port)
        try:
            writer.write(b"POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n"
                         b"\r\n{\"a\"")
            await writer.drain()
            status, headers, resp = await read_response(reader)
            assert status == 408
            payload = json.loads(resp)
            assert payload["error"] == "request-timeout"
            assert "64 bytes" in payload["detail"]
            assert headers["connection"] == "close"
            assert server.stats["request_timeouts"] == 1
            assert await reader.read() == b""
        finally:
            await _close(writer)
    serve_run(body, serve_config=ServeConfig(body_timeout=0.2))


def test_healthy_request_is_answered_beside_slowloris_peers():
    """Silent, header-trickling and truncated-body peers hold their
    connections while a healthy request is answered in full; then each
    peer ends typed at its deadline."""
    expected = _serial_body()

    async def body(host, port, service, server):
        peers = [await open_http(host, port) for _ in range(3)]
        (silent, _w), (trickling, trickle), (truncated, truncate) = peers
        try:
            trickle.write(b"POST /jobs HTTP/1.1\r\nHost: x\r\n")
            truncate.write(b"POST /jobs HTTP/1.1\r\nContent-Length: 64"
                           b"\r\n\r\n{\"a\"")
            await trickle.drain()
            await truncate.drain()
            assert await _settle(lambda: len(server._connections) == 3)
            reader, writer = await open_http(host, port)
            try:
                status, _headers, resp = await asyncio.wait_for(
                    post_job(reader, writer, SPEC, "healthy"), 10.0)
                # Answered while every peer still holds its connection.
                assert len(server._connections) == 4
                assert server.stats["request_timeouts"] == 0
            finally:
                await _close(writer)
            assert status == 200
            assert resp == expected
            assert await asyncio.wait_for(silent.read(), 10.0) == b""
            for reader in (trickling, truncated):
                status, headers, resp = await asyncio.wait_for(
                    read_response(reader), 10.0)
                assert status == 408
                assert json.loads(resp)["error"] == "request-timeout"
                assert headers["connection"] == "close"
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
            assert server.stats["request_timeouts"] == 2
        finally:
            for _reader, peer in peers:
                await _close(peer)
    serve_run(body, serve_config=ServeConfig(
        header_timeout=1.5, body_timeout=1.5, idle_timeout=1.5))


def test_non_reading_peer_hits_the_write_deadline():
    # A client that pipelines requests and never reads fills both
    # socket buffers; the server's drain() must give up after
    # write_timeout and abort the transport.
    async def body(host, port, service, server):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (host, port))
        reader, writer = await asyncio.open_connection(sock=sock)
        batch = f"GET /metrics HTTP/1.1\r\nHost: {host}\r\n\r\n" * 50
        sent = 0
        give_up = asyncio.get_running_loop().time() + 10.0
        try:
            try:
                # Until the server stalls, however large its socket
                # buffers are.
                while not server.stats["write_timeouts"] \
                        and asyncio.get_running_loop().time() < give_up:
                    writer.write(batch.encode())
                    sent += 50
                    await asyncio.wait_for(writer.drain(), 10.0)
            except ConnectionError:
                pass             # the abort may reach us as a reset
            assert await _settle(
                lambda: server.stats["write_timeouts"] >= 1)
            assert await _settle(lambda: not server._connections)
            received = b""
            try:
                while chunk := await asyncio.wait_for(
                        reader.read(1 << 16), 5.0):
                    received += chunk
            except ConnectionError:
                pass
            assert received.count(b"HTTP/1.1 200") < sent
        finally:
            await _close(writer)
    serve_run(body, serve_config=ServeConfig(write_timeout=0.2))


@pytest.mark.parametrize("pipelined", [False, True])
def test_drain_returns_once_in_flight_requests_are_answered(pipelined,
                                                            caplog):
    # A keep-alive connection goes back to wait for its next request
    # after answering; close(drain=...) must not wait for it to end.
    # A request pipelined behind the in-flight one is answered 503.
    async def body(host, port, service, server):
        gate = threading.Event()
        _gate_jobs(service, gate)
        reader, writer = await open_http(host, port)
        try:
            post = json.dumps(dict(SPEC, client="alice")).encode()
            writer.write(b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n"
                         b"\r\n%s" % (len(post), post))
            if pipelined:
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            assert await _settle(lambda: bool(server._busy))
            asyncio.get_running_loop().call_later(0.1, gate.set)
            started = time.monotonic()
            await server.close(drain=5.0)
            assert time.monotonic() - started < 1.0
            status, _headers, _resp = await asyncio.wait_for(
                read_response(reader), 5.0)
            assert status == 200                      # answered in full
            if pipelined:
                status, headers, resp = await asyncio.wait_for(
                    read_response(reader), 5.0)
                assert status == 503
                assert json.loads(resp)["error"] == "draining"
                assert headers["connection"] == "close"
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            assert not server._connections
        finally:
            gate.set()
            await _close(writer)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        serve_run(body)
    # A connection task that ends cancelled is logged as an error by
    # asyncio's stream callback on 3.11 and 3.12.
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_sigterm_ends_an_open_status_stream_with_a_typed_tail():
    """A real SIGTERM to ``run_server`` while a client streams a job
    that cannot finish: the stream ends with a ``draining`` tail line
    and EOF, and the server returns within its drain deadline."""
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("loop signal handlers need the main thread")
    drain = 5.0

    async def main():
        with tempfile.TemporaryDirectory(
                prefix="repro-serve-http-") as root:
            service = SimulationService(cache=ResultCache(root),
                                        config=_service_config())
            gate = threading.Event()
            _gate_jobs(service, gate)
            bound = asyncio.get_running_loop().create_future()
            server = asyncio.create_task(run_server(
                service, "127.0.0.1", 0, ready=bound.set_result,
                config=ServeConfig(drain=drain)))
            writer = None
            try:
                host, port = await asyncio.wait_for(bound, 10.0)
                # Without the loop's handler the signal would end
                # the test process instead of draining the server.
                assert signal.getsignal(signal.SIGTERM) not in (
                    signal.SIG_DFL, signal.SIG_IGN, None)
                reader, writer = await open_http(host, port)
                status, _headers, resp = await asyncio.wait_for(
                    post_job(reader, writer, SPEC, "alice", wait=False),
                    10.0)
                assert status == 202
                writer.write(f"GET /jobs/{json.loads(resp)['id']}"
                             f"?stream=1 HTTP/1.1\r\n\r\n".encode())
                await writer.drain()
                status, headers, _resp = await asyncio.wait_for(
                    read_response(reader), 10.0)
                assert status == 200
                assert headers["content-type"] == "application/x-ndjson"
                first = json.loads(await asyncio.wait_for(
                    reader.readline(), 10.0))
                assert first["status"] in ("queued", "running")

                started = time.monotonic()
                os.kill(os.getpid(), signal.SIGTERM)
                tail = []
                while line := await asyncio.wait_for(reader.readline(),
                                                     2 * drain):
                    tail.append(json.loads(line))
                assert tail
                assert tail[-1].get("error") == "draining" \
                    or tail[-1].get("status") in ("done", "failed")
                await asyncio.wait_for(server, 2 * drain)
                assert time.monotonic() - started < drain
            finally:
                gate.set()
                if writer is not None:
                    await _close(writer)
                if not server.done():
                    server.cancel()
                await asyncio.wait_for(
                    asyncio.gather(server, return_exceptions=True), 10.0)
    asyncio.run(main())


# -- the deadline helper ---------------------------------------------------

def test_deadline_expiry_is_a_timeout_that_undoes_its_cancel():
    async def main():
        with pytest.raises(asyncio.TimeoutError):
            await _with_deadline(asyncio.sleep(10), 0.01)
        if _COUNTS_CANCELS:
            assert asyncio.current_task().cancelling() == 0
        await asyncio.sleep(0)           # no stray cancel left behind
        assert await _with_deadline(asyncio.sleep(0, "ok"), 0) == "ok"
    asyncio.run(main())


def test_external_cancel_propagates_through_a_deadline():
    async def main():
        loop = asyncio.get_running_loop()
        inner = loop.create_future()
        guarded = asyncio.create_task(_with_deadline(inner, 5.0))
        await asyncio.sleep(0)
        guarded.cancel()
        with pytest.raises(asyncio.CancelledError):
            await guarded

        # The lost-cancel case: the awaited future is already done
        # when the cancel lands, but the task has not resumed yet.
        inner = loop.create_future()
        guarded = asyncio.create_task(_with_deadline(inner, 5.0))
        await asyncio.sleep(0)
        inner.set_result("answered")
        guarded.cancel()
        with pytest.raises(asyncio.CancelledError):
            await guarded
    asyncio.run(main())


@pytest.mark.skipif(not _COUNTS_CANCELS,
                    reason="tasks count cancels from Python 3.11")
@pytest.mark.parametrize("first", ["expiry", "cancel"])
def test_external_cancel_in_the_expiry_iteration_is_not_a_timeout(first):
    async def main():
        loop = asyncio.get_running_loop()
        tasks = []

        def cancel_externally():
            tasks[0].cancel()

        if first == "cancel":
            loop.call_later(0.05, cancel_externally)
        tasks.append(asyncio.create_task(
            _with_deadline(asyncio.sleep(10), 0.05)))
        await asyncio.sleep(0)           # arms the deadline timer
        if first == "expiry":
            loop.call_later(0.05, cancel_externally)
        time.sleep(0.1)      # both timers come due in one iteration
        with pytest.raises(asyncio.CancelledError):
            await tasks[0]
    asyncio.run(main())


def test_guarded_wait_creates_no_task():
    async def main():
        loop = asyncio.get_running_loop()
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        reader = asyncio.StreamReader()
        reader.feed_data(b"buffered\n")
        before = asyncio.all_tasks()
        assert await _with_deadline(reader.readline(), 5.0) == \
            b"buffered\n"
        during = []
        loop.call_soon(lambda: (during.append(asyncio.all_tasks()),
                                reader.feed_data(b"later\n")))
        assert await _with_deadline(reader.readline(), 5.0) == b"later\n"
        assert during == [before]
        assert asyncio.all_tasks() == before
        assert created == []
    asyncio.run(main())


def test_breaker_open_is_503_then_degraded_mode_answers():
    async def body(host, port, service):
        import dataclasses

        def _boom():
            raise RuntimeError("poisoned worker")

        async def failing_submit(job, client, _original=service.submit,
                                 **kwargs):
            return await _original(
                Job(fn=_boom, args=(), key=job.key, label=job.label),
                client, **kwargs)

        service.submit = failing_submit
        reader, writer = await open_http(host, port)
        try:
            status, _headers, _resp = await post_job(reader, writer,
                                                     SPEC, "alice")
            assert status == 500                  # trips the breaker
            status, headers, resp = await post_job(reader, writer,
                                                   SPEC, "bob")
            assert status == 503
            payload = json.loads(resp)
            assert payload["error"] == "breaker-open"
            assert int(headers["retry-after"]) >= 1

            service.config = dataclasses.replace(service.config,
                                                 degraded=True)
            status, headers, resp = await post_job(reader, writer,
                                                   SPEC, "carol")
            assert status == 200
            assert headers["x-cache"] == "degraded"
            payload = json.loads(resp)
            assert payload["degraded"] is True
            assert payload["result"]              # analytical rows
        finally:
            await _close(writer)
    serve_run(body, breaker_threshold=1, breaker_cooldown=60.0)
