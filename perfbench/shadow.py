#!/usr/bin/env python3
"""Reference server for serve-mix: the benchmark's own stand-in for a
result-cache hit, used to measure how fast the host runs that kind of
work at a given moment.

Usage (the benchmark starts it)::

    python3 perfbench/shadow.py FD ENTRY

``FD`` is a listening TCP socket inherited from the benchmark and
``ENTRY`` a cache-entry file written by :func:`write_entry`.  Every
``POST`` is answered the way ``repro serve`` answers a hit, with the
standard library only: asyncio keep-alive HTTP/1.1, parse the JSON
body, hash its canonical form, read the entry from disk, verify its
SHA-256 line, unpickle it and write canonical JSON back.  Every line it
runs belongs to the benchmark, so no change to the program can move its
round-trip time.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle
import socket
import sys

#: The request body the benchmark sends (a serve-mix spec's shape).
PAYLOAD = json.dumps({"degrees": [2, 4, 8], "mesh": 4, "per_degree": 2,
                      "scheme": "mi-ma-ec", "seed": 12345},
                     sort_keys=True).encode()


def write_entry(path: str) -> None:
    """A checksummed pickle entry holding rows shaped like a served
    sweep result (three degrees, seven fields each)."""
    rows = [{"scheme": "mi-ma-ec", "degree": d, "latency": 40.5 + 11.25 * d,
             "latency_max": 48 + 12 * d, "messages": 1.0 + 2 * d,
             "flit_hops": 30.0 + 19.5 * d, "home_occupancy": 1.5 + d}
            for d in (2, 4, 8)]
    blob = pickle.dumps({"cache_schema": 2, "key": {"kind": "shadow"},
                         "result": rows}, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as fh:
        fh.write(hashlib.sha256(blob).hexdigest().encode("ascii") + b"\n"
                 + blob)


async def _answer(entry: str, reader, writer) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            size = 0
            for line in head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    size = int(value)
            spec = json.loads(await reader.readexactly(size))
            digest = hashlib.sha256(json.dumps(
                spec, sort_keys=True).encode()).hexdigest()
            with open(entry, "rb") as fh:
                check, _, blob = fh.read().partition(b"\n")
            if hashlib.sha256(blob).hexdigest().encode("ascii") != check:
                raise ValueError("shadow entry checksum mismatch")
            body = (json.dumps({"digest": digest,
                                "result": pickle.loads(blob)["result"]},
                               sort_keys=True, separators=(",", ":"))
                    + "\n").encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: "
                         b"application/json\r\nContent-Length: %d\r\n\r\n"
                         % len(body) + body)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _serve(fd: int, entry: str) -> None:
    sock = socket.socket(fileno=fd)
    server = await asyncio.start_server(
        lambda r, w: _answer(entry, r, w), sock=sock)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_serve(int(sys.argv[1]), sys.argv[2]))
