#!/usr/bin/env python
"""Load-test the ``repro serve`` front end; writes ``BENCH_serve.json``.

Boots a real server (process-pool workers, fresh throwaway cache root)
in a background event loop, then drives it with the asyncio load client
(:mod:`repro.serve.loadtest`) in two phases:

* **cold** — each distinct spec once, populating the cache (all
  misses);
* **warm** — ``--clients`` concurrent keep-alive connections x
  ``--requests`` requests each over the same spec set: the warm-replay
  serving hot path (the ~500x cached-sweep speedup, now behind HTTP).

The run *asserts* the serving contract and exits non-zero on any
violation, so CI can gate on it:

* warm cache-hit rate >= ``--min-hit-rate`` (default 0.95);
* the warm phase is answered from memory: the server's disk
  ``cache.hits`` (``/metrics``) is at most the number of distinct
  specs;
* warm client-observed p99 <= ``--p99-ceiling-ms``;
* zero client-visible errors;
* each ``/metrics`` latency class with samples reads
  ``p50_ms <= p99_ms <= max_ms``;
* **byte-identity**: a ``GET /results/<digest>`` body must hash equal
  to the same job run serially through ``repro.runner.run_jobs`` in
  this process (the digest cross-check from the acceptance criteria).

``BENCH_serve.json`` (repo root by default) records both phases'
requests/s and latency quantiles, the server's ``/metrics`` snapshot,
and the cross-check digest.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import sys
import tempfile
import threading

from repro.runner import ResultCache, run_jobs
from repro.runner.supervisor import RetryPolicy
from repro.serve import (JobSpec, ServeServer, ServiceConfig,
                         SimulationService, result_body)
from repro.serve.loadtest import fetch_json, fetch_result, run_load

SCHEMA = 1


def spec_set(smoke: bool) -> list[dict]:
    """The distinct request specs of the workload (one digest each)."""
    if smoke:
        return [{"scheme": scheme, "mesh": 4, "degrees": [2, 4],
                 "per_degree": 2, "seed": 0}
                for scheme in ("ui-ua", "mi-ua-ec", "mi-ma-ec")]
    specs = []
    for scheme in ("ui-ua", "mi-ua-ec", "mi-ma-ec", "mi-ma-fa"):
        for seed in (0, 1):
            specs.append({"scheme": scheme, "mesh": 8,
                          "degrees": [2, 4, 8], "per_degree": 3,
                          "seed": seed})
    return specs


class ServerThread:
    """A live server on a background event loop (ephemeral port)."""

    def __init__(self, cache_root: str, workers: int,
                 quota_bytes: int = 0) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.service = None
        self.server = None
        self.host, self.port = self._call(
            self._boot(cache_root, workers, quota_bytes))

    def _call(self, coro, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop) \
            .result(timeout)

    async def _boot(self, cache_root: str, workers: int,
                    quota_bytes: int):
        self.service = SimulationService(
            cache=ResultCache(cache_root,
                              quota_bytes=quota_bytes or None),
            config=ServiceConfig(workers=workers, executor="process",
                                 policy=RetryPolicy(timeout=300.0,
                                                    max_retries=2)))
        await self.service.start()
        self.server = ServeServer(self.service, "127.0.0.1", 0)
        await self.server.start()
        return self.server.address

    def stop(self) -> None:
        async def _close():
            await self.server.close()
            await self.service.close()
        try:
            self._call(_close(), timeout=30.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10.0)


def digest_cross_check(host: str, port: int, spec: dict) -> dict:
    """Serve-vs-serial byte identity for one spec."""
    job_spec = JobSpec.from_mapping(spec)
    digest = job_spec.digest
    served = asyncio.run(fetch_result(host, port, digest))
    serial = run_jobs([job_spec.to_job()], workers=1, cache=None)[0]
    expected = result_body(digest, serial)
    return {"digest": digest,
            "served_sha256": hashlib.sha256(served).hexdigest(),
            "serial_sha256": hashlib.sha256(expected).hexdigest(),
            "match": served == expected}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: 3 specs, a few thousand warm "
                             "requests")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent connections (default: 8 smoke, "
                             "16 full)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per connection (default: 400 "
                             "smoke, 200 full)")
    parser.add_argument("--workers", type=int, default=2,
                        help="server worker processes")
    parser.add_argument("--cache-quota-mib", type=float, default=0.0,
                        help="cache byte quota with LRU eviction "
                             "(0 = unbounded); the warm-phase gates "
                             "must hold with it enabled, proving the "
                             "integrity/quota machinery costs nothing "
                             "on the hot path")
    parser.add_argument("--min-hit-rate", type=float, default=0.95,
                        help="warm-phase cache-hit-rate floor")
    parser.add_argument("--p99-ceiling-ms", type=float, default=500.0,
                        help="warm-phase client-observed p99 ceiling")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="result JSON path (repo root by default)")
    args = parser.parse_args(argv)
    clients = args.clients or (8 if args.smoke else 16)
    requests = args.requests or (400 if args.smoke else 200)
    specs = spec_set(args.smoke)

    failures: list[str] = []
    quota_bytes = int(args.cache_quota_mib * (1 << 20))
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        server = ServerThread(root, args.workers,
                              quota_bytes=quota_bytes)
        try:
            host, port = server.host, server.port
            quota_note = (f", quota {args.cache_quota_mib:g} MiB"
                          if quota_bytes else "")
            print(f"serving on {host}:{port} ({args.workers} worker "
                  f"process(es), cache {root}{quota_note})")

            print(f"cold phase: {len(specs)} distinct spec(s)")
            cold = asyncio.run(run_load(host, port, specs, clients=1,
                                        requests=len(specs),
                                        client_prefix="cold"))
            print(f"  {cold['requests']} requests in "
                  f"{cold['elapsed_s']:.2f}s "
                  f"(p99 {cold['p99_ms']:.1f} ms, sources "
                  f"{cold['sources']})")

            total = clients * requests
            print(f"warm phase: {clients} clients x {requests} requests "
                  f"= {total}")
            warm = asyncio.run(run_load(host, port, specs,
                                        clients=clients,
                                        requests=requests,
                                        client_prefix="warm"))
            print(f"  {warm['requests_per_sec']:.0f} req/s, p50 "
                  f"{warm['p50_ms']:.2f} ms, p99 {warm['p99_ms']:.2f} "
                  f"ms, hit rate {warm['hit_rate']:.3f}")

            check = digest_cross_check(host, port, specs[0])
            print(f"digest cross-check: {check['digest'][:16]}... "
                  f"{'MATCH' if check['match'] else 'MISMATCH'}")
            metrics = asyncio.run(fetch_json(host, port, "/metrics"))
        finally:
            server.stop()

    if warm["hit_rate"] < args.min_hit_rate:
        failures.append(f"warm hit rate {warm['hit_rate']:.3f} < "
                        f"{args.min_hit_rate}")
    if warm["p99_ms"] > args.p99_ceiling_ms:
        failures.append(f"warm p99 {warm['p99_ms']:.1f} ms > "
                        f"{args.p99_ceiling_ms} ms ceiling")
    disk_hits = metrics["cache"]["hits"]
    if disk_hits > len(specs):
        failures.append(f"{disk_hits} disk cache hit(s) for "
                        f"{len(specs)} distinct spec(s): warm requests "
                        f"were not answered from memory")
    if warm["errors"] or cold["errors"]:
        failures.append(f"{warm['errors'] + cold['errors']} "
                        f"client-visible error(s)")
    if not check["match"]:
        failures.append("served body != serial run_jobs body")
    for name, lat in metrics["latency"].items():
        if lat["n"] and not lat["p50_ms"] <= lat["p99_ms"] <= lat["max_ms"]:
            failures.append(f"/metrics {name} quantiles out of order: p50 "
                            f"{lat['p50_ms']} p99 {lat['p99_ms']} max "
                            f"{lat['max_ms']} ms")

    payload = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "workers": args.workers,
        "cache_quota_bytes": quota_bytes,
        "specs": len(specs),
        "cold": cold,
        "warm": warm,
        "digest_check": check,
        "metrics": metrics,
        "thresholds": {"min_hit_rate": args.min_hit_rate,
                       "p99_ceiling_ms": args.p99_ceiling_ms,
                       "max_disk_hits": len(specs)},
        "ok": not failures,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"ok: hit rate {warm['hit_rate']:.3f} >= "
          f"{args.min_hit_rate}, p99 {warm['p99_ms']:.1f} ms <= "
          f"{args.p99_ceiling_ms} ms, {disk_hits} disk hit(s) <= "
          f"{len(specs)}, bodies byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
