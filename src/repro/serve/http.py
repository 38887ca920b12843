"""Hand-rolled asyncio HTTP/1.1 front end for the simulation service.

Zero dependencies beyond the stdlib: requests are parsed straight off
:func:`asyncio.start_server` streams (keep-alive supported — the load
client reuses connections), responses carry explicit ``Content-Length``
and a ``X-Cache: hit|coalesced|miss|degraded`` header on job
submissions.

Endpoints:

=========================  ==========================================
``POST /jobs``             submit a spec (JSON body); ``"wait": true``
                           (default) blocks until the result body,
                           ``false`` returns ``202`` with a job id
``GET /jobs/<id>``         job-status snapshot; ``?stream=1`` streams
                           newline-delimited JSON status updates until
                           the job is terminal
``GET /results/<digest>``  canonical cached result body for a digest
``GET /metrics``           :meth:`SimulationService.metrics_snapshot`
                           plus this listener's connection stats
``GET /healthz``           liveness probe
=========================  ==========================================

A validated ``POST /jobs`` body is kept by its exact bytes, so a
repeat skips the JSON decode, spec validation and key digest; the
client, admission and breaker checks still run per request.

Typed errors: malformed specs are 400 with ``{"error":
"bad-request"}``, admission rejections 429 with the reason
(``rate-limited`` / ``queue-full``), an open circuit breaker 503 with
``Retry-After``, quarantined jobs 500 with the supervision verdict
(kind, attempts, child traceback), unknown routes/digests 404.

Connection lifecycle (:class:`ServeConfig`): every read off a client
socket sits under a deadline — the request line under the keep-alive
idle timeout, the header block under one shared header deadline (a
slowloris trickling one byte per second cannot stretch it), the body
under its own timeout — and every response write under a write
timeout, so a stalled peer can never park a connection task forever.
A connection cap sheds excess load with an immediate 503, and
:meth:`ServeServer.close` supports *graceful drain*: stop accepting,
let requests already being processed finish up to a deadline (new
requests on live keep-alive connections get ``503`` +
``Connection: close``), then reap whatever remains.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.config import ConfigError
from repro.runner import Job
from repro.serve.jobspec import JobSpec, SpecError
from repro.serve.service import (MAX_RECORDS, AdmissionError, BreakerOpen,
                                 SimulationService)

#: Request bodies larger than this are rejected with 413.
MAX_BODY_BYTES = 1 << 20
#: Validated ``POST /jobs`` bodies up to this size are kept by their
#: exact bytes (at most ``MAX_RECORDS``, oldest dropped first), so a
#: repeat skips parsing and validation.  The largest valid spec is
#: about 1 KiB pretty-printed; a bigger body is parsed every time.
MAX_KEPT_BODY = 2048
#: Hard cap on header lines per request (431 past it).
MAX_HEADERS = 100

_REASONS = {200: "OK", 202: "Accepted", 304: "Not Modified",
            400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Typed error slugs for parse-time short-circuits.
_PARSE_ERRORS = {400: "bad-request", 408: "request-timeout",
                 413: "payload-too-large", 431: "headers-too-large"}


@dataclass(frozen=True)
class ServeConfig:
    """Connection-lifecycle knobs for :class:`ServeServer` and
    :func:`run_server`; each field is the ``repro serve`` flag of the
    same name.  An ``idle_timeout`` expiry reaps the connection
    silently (there is no request to answer); a ``write_timeout``
    expiry aborts the transport, so a non-reading peer cannot wedge a
    handler on a full socket buffer.  Negative values raise
    :class:`ConfigError`."""

    header_timeout: float = field(default=10.0, metadata={
        "help": "one shared deadline for a request's whole header "
                "block (seconds; 0 disables)"})
    body_timeout: float = field(default=20.0, metadata={
        "help": "deadline for reading a declared body (seconds; 0 "
                "disables)"})
    idle_timeout: float = field(default=60.0, metadata={
        "help": "keep-alive idle deadline between requests (seconds; "
                "0 disables)"})
    write_timeout: float = field(default=20.0, metadata={
        "help": "deadline for each response write, streamed chunks "
                "included (seconds; 0 disables)"})
    max_connections: int = field(default=256, metadata={
        "help": "concurrent connection cap; excess gets an immediate "
                "503 (0 = unbounded)"})
    drain: float = field(default=10.0, metadata={
        "help": "graceful-drain deadline on SIGTERM/SIGINT: seconds "
                "in-flight requests may finish (0 = cancel "
                "immediately)"})

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be >= 0")


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    peer: str
    keep_alive: bool = True
    #: Set for error short-circuits during parsing (e.g. 413).
    error_status: Optional[int] = None
    error_detail: str = ""


@dataclass(frozen=True)
class _Submission:
    """A validated ``POST /jobs`` body: everything a request needs from
    it, so a repeat of the same bytes is answered without parsing."""

    spec: JobSpec
    job: Job
    #: The body's own ``client`` field (``None``: the ``X-Client``
    #: header, else the peer address, names the client).
    client: Optional[str]
    wait: bool


def _parse_submission(body: bytes) -> _Submission:
    """Validate a ``POST /jobs`` body; :class:`SpecError` says why it
    is a 400."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"invalid JSON: {exc}") from None
    spec = JobSpec.from_mapping(payload)
    client = payload.get("client") or None
    if client is not None and not isinstance(client, str):
        raise SpecError("client must be a non-empty string")
    wait = payload.get("wait", True)
    if not isinstance(wait, bool):
        raise SpecError("wait must be a boolean")
    return _Submission(spec, spec.to_job(), client, wait)


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


#: Tasks count cancel requests (``cancelling``/``uncancel``) from 3.11.
_COUNTS_CANCELS = sys.version_info >= (3, 11)


async def _with_deadline(awaitable, timeout: float):
    """Await ``awaitable`` in the current task under a ``timeout``-second
    deadline (``0`` means none); expiry raises ``asyncio.TimeoutError``.

    No task is created, so a read whose data is already buffered never
    suspends: one ``loop.call_later`` timer cancels the current task on
    expiry and is cancelled itself once the await ends.  A cancel from
    anywhere else always propagates, even one that lands after
    ``awaitable`` finished (the stdlib's task-wrapping wait of 3.11
    returns the result then) or in the same loop iteration as the
    expiry (tasks count cancels from 3.11; as ``asyncio.timeout``
    does, the expiry undoes its own and re-raises ``CancelledError``
    if another is pending).
    """
    if timeout <= 0:
        return await awaitable
    task = asyncio.current_task()
    pending = task.cancelling() if _COUNTS_CANCELS else 0
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    handle = task.get_loop().call_later(timeout, expire)
    try:
        return await awaitable
    except asyncio.CancelledError:
        if not expired or (_COUNTS_CANCELS and task.uncancel() > pending):
            raise
        raise asyncio.TimeoutError from None
    finally:
        handle.cancel()


async def _read_headers(reader: asyncio.StreamReader
                        ) -> Optional[dict[str, str]]:
    """Read a header block through its blank line; ``None`` past
    :data:`MAX_HEADERS` lines (the rest of the block stays unread)."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, _sep, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return None


async def _read_request(reader: asyncio.StreamReader, peer: str,
                        config: ServeConfig) -> Optional[Request]:
    """Parse one request off the stream.

    ``None`` means there is nothing to answer: the peer closed, or the
    keep-alive idle timeout expired waiting for a request line (which
    also covers a slowloris that never finishes its first line — the
    connection is simply reaped).  Parse-time failures past that point
    come back as a :class:`Request` with ``error_status`` set, so the
    caller can answer with a typed response before closing.
    """
    try:
        line = await _with_deadline(reader.readline(),
                                    config.idle_timeout)
    except (asyncio.TimeoutError, ConnectionError,
            asyncio.LimitOverrunError, ValueError):
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        return Request("GET", "/", {}, {}, b"", peer,
                       keep_alive=False, error_status=400,
                       error_detail="malformed request line")
    path, _sep, query_text = target.partition("?")
    query = {}
    for pair in query_text.split("&"):
        if pair:
            key, _sep, value = pair.partition("=")
            query[key] = value

    def parse_error(status: int, detail: str,
                    headers: Optional[dict] = None) -> Request:
        return Request(method, path, query, headers or {}, b"", peer,
                       keep_alive=False, error_status=status,
                       error_detail=detail)

    # One deadline for the whole header block: a client trickling one
    # header byte per readline cannot reset it.
    try:
        headers = await _with_deadline(_read_headers(reader),
                                       config.header_timeout)
    except asyncio.TimeoutError:
        return parse_error(
            408, f"headers not completed within "
                 f"{config.header_timeout:g}s")
    except (ConnectionError, asyncio.LimitOverrunError, ValueError):
        return None
    if headers is None:
        # The rest of the header block is unread; the connection must
        # close or those bytes would be misparsed as the next
        # pipelined request.
        return parse_error(431, f"more than {MAX_HEADERS} header lines")
    keep_alive = headers.get("connection", "").lower() != "close"
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1
    if length < 0:
        return parse_error(400, f"bad Content-Length {length_text!r}",
                           headers)
    if length > MAX_BODY_BYTES:
        return parse_error(413, f"body exceeds {MAX_BODY_BYTES} bytes",
                           headers)
    if length:
        try:
            body = await _with_deadline(reader.readexactly(length),
                                        config.body_timeout)
        except asyncio.TimeoutError:
            return parse_error(
                408, f"body ({length} bytes declared) not received "
                     f"within {config.body_timeout:g}s", headers)
    else:
        body = b""
    return Request(method, path, query, headers, body, peer,
                   keep_alive=keep_alive)


def _write_response(writer: asyncio.StreamWriter, status: int,
                    body: bytes, keep_alive: bool,
                    content_type: str = "application/json",
                    extra_headers: tuple = ()) -> None:
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)


class ServeServer:
    """The asyncio TCP server wrapping one :class:`SimulationService`."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 8642,
                 config: Optional[ServeConfig] = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.config = config or ServeConfig()
        self.address: Optional[tuple] = None
        self.draining = False
        #: Listener-level counters, surfaced under ``/metrics``
        #: ``"server"``.
        self.stats = {"rejected_connections": 0, "request_timeouts": 0,
                      "write_timeouts": 0, "drained_requests": 0}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        #: Set by a graceful :meth:`close` while requests are in
        #: flight; resolved when the last of them is answered.
        self._drained: Optional[asyncio.Future] = None
        #: Validated bodies by their exact bytes, oldest first.
        self._bodies: dict[bytes, _Submission] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]

    async def close(self, drain: float = 0.0) -> None:
        """Stop accepting and tear the listener down.

        With ``drain > 0`` this is *graceful*: requests currently being
        processed get up to ``drain`` seconds to finish (new requests
        pipelined behind them are answered ``503`` + ``Connection:
        close``), idle keep-alive connections are reaped immediately,
        and the rest are cancelled as soon as no request is in flight
        or the deadline passes, whichever comes first.  ``drain=0``
        cancels everything at once (what tests use).
        """
        self.draining = True
        if self._server is not None:
            # Stops listening at once.  Not followed by wait_closed(),
            # which from 3.12.1 also waits for every connection to drop
            # (a peer that never reads can hold one open for good);
            # the connection tasks are reaped below instead.
            self._server.close()
            self._server = None
        if drain > 0 and self._busy:
            # Idle keep-alive connections sit in readline() waiting
            # for a request that would only be answered 503 now; reap
            # them immediately rather than holding the drain window.
            for task in self._connections - self._busy:
                task.cancel()
            self._drained = asyncio.get_running_loop().create_future()
            try:
                await _with_deadline(self._drained, drain)
            except asyncio.TimeoutError:
                pass
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    # -- connection loop ----------------------------------------------
    async def _drain_writer(self, writer: asyncio.StreamWriter) -> None:
        """``writer.drain()`` under the write deadline.

        A peer that stops reading fills the socket buffer and parks
        ``drain()`` forever; on expiry the transport is aborted and
        the connection loop unwound via :class:`ConnectionError`."""
        try:
            await _with_deadline(writer.drain(),
                                 self.config.write_timeout)
        except asyncio.TimeoutError:
            self.stats["write_timeouts"] += 1
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise ConnectionError("response write timed out") from None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "unknown"
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            cap = self.config.max_connections
            if cap and len(self._connections) > cap:
                self.stats["rejected_connections"] += 1
                _write_response(
                    writer, 503,
                    _json_bytes({"error": "overloaded",
                                 "detail": f"connection cap {cap} "
                                           f"reached"}),
                    keep_alive=False,
                    extra_headers=(("Retry-After", "1"),))
                await self._drain_writer(writer)
                return
            while True:
                try:
                    request = await _read_request(reader, peer,
                                                  self.config)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                self.service.metrics.http_requests += 1
                if self.draining:
                    self.stats["drained_requests"] += 1
                    _write_response(
                        writer, 503,
                        _json_bytes({"error": "draining",
                                     "detail": "server is shutting "
                                               "down"}),
                        keep_alive=False)
                    await self._drain_writer(writer)
                    break
                if request.error_status is not None:
                    status = request.error_status
                    if status == 408:
                        self.stats["request_timeouts"] += 1
                    _write_response(
                        writer, status,
                        _json_bytes({"error": _PARSE_ERRORS.get(
                                         status, "bad-request"),
                                     "detail": request.error_detail}),
                        keep_alive=False)
                    await self._drain_writer(writer)
                    break
                if task is not None:
                    self._busy.add(task)
                try:
                    streamed = await self._dispatch(request, writer)
                    if not streamed:
                        await self._drain_writer(writer)
                finally:
                    if task is not None:
                        self._busy.discard(task)
                    drained = self._drained
                    if drained is not None and not self._busy \
                            and not drained.done():
                        drained.set_result(None)
                if streamed or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # close() may reap a connection that is already closing
                # here; ending the task cancelled would make asyncio's
                # stream callback log an error on 3.11 and 3.12.
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True if the response was streamed
        (connection already finished)."""
        method, path = request.method, request.path
        if path == "/jobs" and method == "POST":
            await self._post_jobs(request, writer)
            return False
        if path.startswith("/jobs/") and method == "GET":
            return await self._get_job(request, writer)
        if path.startswith("/results/") and method == "GET":
            self._get_result(request, writer)
            return False
        if path == "/metrics" and method == "GET":
            payload = self.service.metrics_snapshot()
            payload["server"] = dict(
                self.stats, connections=len(self._connections),
                draining=self.draining,
                max_connections=self.config.max_connections)
            _write_response(writer, 200, _json_bytes(payload),
                            request.keep_alive)
            return False
        if path == "/healthz" and method == "GET":
            _write_response(writer, 200, _json_bytes({"ok": True}),
                            request.keep_alive)
            return False
        if path in ("/jobs", "/metrics", "/healthz") \
                or path.startswith(("/jobs/", "/results/")):
            _write_response(writer, 405,
                            _json_bytes({"error": "method-not-allowed"}),
                            request.keep_alive)
            return False
        _write_response(writer, 404, _json_bytes({"error": "not-found"}),
                        request.keep_alive)
        return False

    # -- handlers ------------------------------------------------------
    async def _post_jobs(self, request: Request,
                         writer: asyncio.StreamWriter) -> None:
        t0 = time.monotonic()
        body = request.body
        keep = len(body) <= MAX_KEPT_BODY
        submission = self._bodies.get(body) if keep else None
        if submission is None:
            try:
                submission = _parse_submission(body)
            except SpecError as exc:
                _write_response(writer, 400,
                                _json_bytes({"error": "bad-request",
                                             "detail": str(exc)}),
                                request.keep_alive)
                return
            if keep:
                self._bodies[body] = submission
                if len(self._bodies) > MAX_RECORDS:
                    self._bodies.pop(next(iter(self._bodies)))
        client = submission.client \
            or request.headers.get("x-client") or request.peer
        try:
            record = await self.service.submit(
                submission.job, client,
                degraded_fn=submission.spec.analytical_rows)
        except AdmissionError as exc:
            _write_response(writer, 429,
                            _json_bytes({"error": exc.reason,
                                         "detail": exc.detail}),
                            request.keep_alive)
            return
        except BreakerOpen as exc:
            retry_after = max(1, math.ceil(exc.retry_after))
            _write_response(
                writer, 503,
                _json_bytes({"error": "breaker-open",
                             "detail": exc.detail,
                             "retry_after_s": retry_after}),
                request.keep_alive,
                extra_headers=(("Retry-After", str(retry_after)),))
            return
        if not submission.wait:
            _write_response(
                writer, 202 if record.status != "done" else 200,
                _json_bytes(record.snapshot()), request.keep_alive,
                extra_headers=(("X-Cache", record.source),))
            return
        await self.service.wait(record)
        if record.status == "failed":
            self.service.metrics.observe(record.source,
                                         time.monotonic() - t0)
            _write_response(writer, 500,
                            _json_bytes(dict(record.flight.error,
                                             id=record.id,
                                             digest=record.digest)),
                            request.keep_alive,
                            extra_headers=(("X-Cache", record.source),))
            return
        self.service.metrics.observe(record.source, time.monotonic() - t0)
        _write_response(writer, 200, record.flight.body,
                        request.keep_alive,
                        extra_headers=(("X-Cache", record.source),
                                       ("X-Job-Id", record.id),
                                       ("X-Digest", record.digest)))

    async def _get_job(self, request: Request,
                       writer: asyncio.StreamWriter) -> bool:
        job_id = request.path[len("/jobs/"):]
        record = self.service.lookup(job_id)
        if record is None:
            _write_response(writer, 404,
                            _json_bytes({"error": "not-found",
                                         "detail": f"unknown job "
                                                   f"{job_id!r}"}),
                            request.keep_alive)
            return False
        if request.query.get("stream") not in (None, "", "0"):
            await self._stream_job(record, writer)
            return True
        _write_response(writer, 200, _json_bytes(record.snapshot()),
                        request.keep_alive)
        return False

    async def _stream_job(self, record,
                          writer: asyncio.StreamWriter) -> None:
        """Newline-delimited JSON status updates until terminal.

        A drain that starts mid-stream terminates it early with a
        final ``{"error": "draining"}`` line — the client sees a
        well-formed ndjson tail and EOF, never a hung socket."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        last = None
        while True:
            if self.draining:
                writer.write(_json_bytes({"error": "draining",
                                          "id": record.id,
                                          "status": record.status}))
                await self._drain_writer(writer)
                return
            status = record.status
            if status != last:
                writer.write(_json_bytes(record.snapshot()))
                await self._drain_writer(writer)
                last = status
            if status in ("done", "failed"):
                return
            try:
                await _with_deadline(record.flight.event.wait(), 0.1)
            except asyncio.TimeoutError:
                pass

    def _get_result(self, request: Request,
                    writer: asyncio.StreamWriter) -> None:
        digest = request.path[len("/results/"):]
        body = None
        if len(digest) == 64 and all(c in "0123456789abcdef"
                                     for c in digest):
            body = self.service.result_bytes(digest)
        if body is None:
            _write_response(writer, 404,
                            _json_bytes({"error": "not-found",
                                         "detail": "no cached result "
                                                   "for that digest"}),
                            request.keep_alive)
            return
        # Results are content-addressed, hence immutable: the digest is
        # the ETag and revalidation can always short-circuit to 304.
        etag = f'"{digest}"'
        cache_headers = (
            ("ETag", etag),
            ("Cache-Control", "public, max-age=31536000, immutable"),
        )
        # If-None-Match uses the weak comparison (RFC 9110 §13.1.2):
        # W/"<digest>" matches the strong tag "<digest>".
        inm = request.headers.get("if-none-match", "")
        candidates = ({v.strip().removeprefix("W/") for v in inm.split(",")}
                      if inm else set())
        if "*" in candidates or etag in candidates:
            _write_response(writer, 304, b"", request.keep_alive,
                            extra_headers=cache_headers)
            return
        _write_response(writer, 200, body, request.keep_alive,
                        extra_headers=cache_headers
                        + (("X-Cache", "hit"),))


async def run_server(service: SimulationService, host: str, port: int,
                     ready=None, config: Optional[ServeConfig] = None
                     ) -> None:
    """Start the service + server and run until stopped.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once listening — used by the CLI to print the address and by tests
    to learn an ephemeral port.  SIGTERM/SIGINT trigger a graceful
    drain of up to ``config.drain`` seconds (where the platform
    supports loop signal handlers; elsewhere cancellation still tears
    down cleanly through the ``finally``).
    """
    server = ServeServer(service, host, port, config=config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    await service.start()
    try:
        await server.start()
        if ready is not None:
            ready(server.address)
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                continue
            installed.append(sig)
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.close(drain=server.config.drain)
        await service.close()
