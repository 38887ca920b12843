"""Asyncio load-test client for the ``repro serve`` front end.

A fleet of keep-alive HTTP/1.1 connections hammers ``POST /jobs`` with
a rotating set of specs and measures client-observed latency per
request, classifying each response by its ``X-Cache`` header (``hit`` /
``coalesced`` / ``miss``).  :func:`run_load` aggregates the fleet into
one stats dict (requests/s, p50/p99/mean latency, hit rate, error
count) — the payload ``benchmarks/bench_serve.py`` persists as
``BENCH_serve.json`` and ``repro load`` prints.

Stdlib only, same as the server: the point is to measure the serving
stack, not an HTTP library.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional, Sequence

from repro.config import ConfigError
from repro.sim.stats import Histogram


async def open_http(host: str, port: int):
    """One keep-alive client connection."""
    return await asyncio.open_connection(host, port)


async def http_request(reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter, method: str,
                       path: str, body: Optional[bytes] = None,
                       headers: Sequence[tuple[str, str]] = ()
                       ) -> tuple[int, dict[str, str], bytes]:
    """Send one request on an open connection; returns
    ``(status, headers, body)``.  Assumes the server answers with a
    ``Content-Length`` (every non-streamed ``repro serve`` response
    does)."""
    lines = [f"{method} {path} HTTP/1.1",
             f"Host: {writer.get_extra_info('peername')[0]}",
             "Connection: keep-alive"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    if body is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode()
                 + (body or b""))
    await writer.drain()
    response = await read_response(reader)
    if not response[0]:
        raise ConnectionError("server closed the connection")
    return response


async def read_response(reader: asyncio.StreamReader
                        ) -> tuple[int, dict[str, str], bytes]:
    """Read one response off ``reader``: ``(status, headers, body)``
    with lower-cased header names.  The body is ``Content-Length``
    bytes, empty without one (a streamed ndjson response's lines
    follow on ``reader``).  A bare EOF reads as status 0."""
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


async def post_job(reader, writer, spec: dict, client: str,
                   wait: bool = True
                   ) -> tuple[int, dict[str, str], bytes]:
    """``POST /jobs`` for one spec under one client identity."""
    body = json.dumps(dict(spec, client=client, wait=wait)).encode()
    return await http_request(reader, writer, "POST", "/jobs", body)


async def fetch_json(host: str, port: int, path: str) -> dict:
    """One-shot GET returning parsed JSON."""
    reader, writer = await open_http(host, port)
    try:
        status, _headers, body = await http_request(reader, writer,
                                                    "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: "
                               f"{body.decode(errors='replace')}")
        return json.loads(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def fetch_result(host: str, port: int, digest: str) -> bytes:
    """``GET /results/<digest>`` raw body bytes (raises on non-200)."""
    reader, writer = await open_http(host, port)
    try:
        status, _headers, body = await http_request(
            reader, writer, "GET", f"/results/{digest}")
        if status != 200:
            raise RuntimeError(f"GET /results/{digest} -> {status}")
        return body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _client_worker(host: str, port: int, name: str,
                         specs: Sequence[dict], requests: int,
                         offset: int, out: dict) -> None:
    reader, writer = await open_http(host, port)
    try:
        for i in range(requests):
            spec = specs[(offset + i) % len(specs)]
            t0 = time.monotonic()
            status, headers, _body = await post_job(reader, writer,
                                                    spec, name)
            out["latency_ms"].add((time.monotonic() - t0) * 1000.0)
            if status == 200:
                source = headers.get("x-cache", "miss")
                out["sources"][source] = out["sources"].get(source, 0) + 1
            else:
                out["errors"] += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_load(host: str, port: int, specs: Sequence[dict],
                   clients: int = 8, requests: int = 50,
                   client_prefix: str = "load") -> dict:
    """Drive ``clients`` concurrent connections x ``requests`` each.

    Every client cycles through ``specs`` (staggered starting offsets,
    so concurrent identical submissions — the coalescing path — occur
    naturally).  Returns an aggregate stats dict.  ``clients`` or
    ``requests`` below 1 raise :class:`~repro.config.ConfigError`.
    """
    if clients < 1 or requests < 1:
        raise ConfigError(f"clients and requests must be >= 1, got "
                          f"{clients} and {requests}")
    out = {"latency_ms": Histogram("latency_ms"), "sources": {},
           "errors": 0}
    t0 = time.monotonic()
    await asyncio.gather(*[
        _client_worker(host, port, f"{client_prefix}-{i}", specs,
                       requests, i, out)
        for i in range(clients)])
    elapsed = max(time.monotonic() - t0, 1e-9)
    lats = out["latency_ms"]
    total = lats.n
    hits = out["sources"].get("hit", 0)
    classified = sum(out["sources"].values())
    return {
        "clients": clients,
        "requests": total,
        "errors": out["errors"],
        "elapsed_s": elapsed,
        "requests_per_sec": total / elapsed,
        "p50_ms": lats.percentile(0.50),
        "p99_ms": lats.percentile(0.99),
        "mean_ms": lats.tally.mean,
        "max_ms": lats.tally.max or 0.0,
        "sources": dict(out["sources"]),
        "hit_rate": hits / classified if classified else 0.0,
    }
