"""The serve-mix workload: a real ``repro serve`` process with one pool
worker, driven by this module's own HTTP/1.1 client.

The timed phase is a closed loop of *rounds*.  Each round draws ``K``
new small specs from the seed and runs two phases:

* **miss** — each spec is written on two keep-alive connections at
  the same moment, so one request is a miss and the other coalesces
  onto it;
* **hit** — ``H`` requests replaying the round's specs on one
  connection, each served from the result cache.

Every body is checked: the two miss-phase bodies of a spec and every
hit body must be byte-identical, and after the run each spec's body
must equal ``result_body`` of a serial ``run_jobs`` of the same job.
Latencies are the client's (``perf_counter_ns``); the server's CPU per
round is read from ``/proc`` (per-thread ``schedstat``) for the server
and its pool worker.  Client, server, worker and the benchmark's own
reference server (``shadow.py``) share one CPU, and each segment of a
round is scaled to the reference speed by a reference that does the
same kind of work, timed by the client while the server idles: the
miss phase (the worker simulates) by the pure-Python reference loop
run before and after it, as the in-process workloads are; each block
of :data:`BLOCK` hits by round trips to the reference server, which
answers the way a cache hit is answered with code the program cannot
change.  Set-up is scaled by the loop.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

from common import (ROOT, Metrics, child_env, loop_scale, median,
                    nearest_rank)
from shadow import PAYLOAD, write_entry

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
SHADOW = os.path.join(HERE, "shadow.py")
SCHEMES = ("ui-ua", "mi-ua-ec", "mi-ma-ec", "mi-ma-tm")
SPECS_PER_ROUND = 6      # K
HITS_PER_ROUND = 1200    # H
#: Hits timed between two reference-server samples.
BLOCK = 50
#: A reference-server sample: this many timed round trips (after one
#: untimed), and their median at the reference speed.
SAMPLE_REQUESTS = 20
REFERENCE_RTT_NS = 120_000
#: Length of a reference-loop sample (about 15 ms at the reference
#: speed).
LOOP_EVENTS = 10_000
SETUP_SPAWNS = 5
_now = time.perf_counter_ns


def make_spec(seed_value: int, k: int, tiny: bool) -> dict:
    return {"scheme": SCHEMES[k % len(SCHEMES)], "mesh": 4,
            "degrees": [2, 4] if tiny else [2, 4, 8],
            "per_degree": 1 if tiny else 2, "seed": seed_value}


class Conn:
    """One keep-alive HTTP/1.1 connection (blocking socket)."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        head = (f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.sock.sendall(head.encode() + body)

    def _more(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def recv(self) -> tuple[int, dict, bytes]:
        while b"\r\n\r\n" not in self.buf:
            self._more()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        size = int(headers.get("content-length", 0))
        while len(self.buf) < size:
            self._more()
        body, self.buf = self.buf[:size], self.buf[size:]
        return status, headers, body

    def request(self, method: str, path: str, body: bytes = b""):
        self.send(method, path, body)
        return self.recv()

    def close(self) -> None:
        self.sock.close()


class Server:
    """A ``repro serve`` process (one worker) in its own session."""

    def __init__(self, rundir, trace_dir: str = None) -> None:
        self.cache_root = rundir.fresh("serve-cache")
        cmd = [sys.executable, LAUNCHER]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--cache-dir", self.cache_root,
                "--drain", "5"]
        self.stderr = open(os.path.join(rundir.path, "serve.stderr"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self.stderr,
            env=child_env(REPRO_CACHE_DIR=self.cache_root,
                          PYTHONUNBUFFERED="1"),
            start_new_session=True)
        try:
            self.port = self._read_port(start + 120)
            self._await_health(start + 120)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve exited at start-up")
                line += chunk
                if line.endswith(b"\n") and b"serving on" not in line:
                    line = b""
        address = line.split(b"http://", 1)[1].split()[0].decode()
        return int(address.rsplit(":", 1)[1])

    def _await_health(self, deadline: float) -> None:
        while True:
            try:
                conn = Conn(self.port, timeout=5.0)
                try:
                    if conn.request("GET", "/healthz")[0] == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.002)

    def _pids(self) -> list[int]:
        pid = self.proc.pid
        path = f"/proc/{pid}/task/{pid}/children"
        try:
            with open(path) as fh:
                children = [int(p) for p in fh.read().split()]
        except OSError:
            children = []
        return [pid] + children

    def cpu_s(self) -> float:
        """CPU seconds of every thread of the server and of its live
        pool worker(s) (``schedstat`` run time, in nanoseconds)."""
        total = 0
        for pid in self._pids():
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                        total += int(fh.read().split()[0])
                except (OSError, ValueError, IndexError):
                    continue
        return total / 1e9

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        """Graceful SIGTERM, then kill the whole session; wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Reference:
    """The reference server (``shadow.py``) on the benchmark's CPU and
    a keep-alive connection to it."""

    def __init__(self, rundir) -> None:
        entry = os.path.join(rundir.path, "shadow-entry")
        write_entry(entry)
        listener = socket.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(4)
            fd = listener.fileno()
            # A fixed hash seed, so no run's reference differs from
            # another's by its dict layouts.
            self.proc = subprocess.Popen(
                [sys.executable, SHADOW, str(fd), entry], cwd=ROOT,
                env=dict(os.environ, PYTHONHASHSEED="0"), pass_fds=(fd,),
                start_new_session=True)
            port = listener.getsockname()[1]
        finally:
            listener.close()
        try:
            self.conn = Conn(port)
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Speed scale: the reference round trip over the median of
        :data:`SAMPLE_REQUESTS` measured ones (after one untimed)."""
        times = []
        for i in range(SAMPLE_REQUESTS + 1):
            start = _now()
            status, _, _ = self.conn.request("POST", "/", PAYLOAD)
            if status != 200:
                raise RuntimeError(f"reference server answered {status}")
            if i:
                times.append(_now() - start)
        return REFERENCE_RTT_NS / median(times)

    def close(self) -> None:
        if hasattr(self, "conn"):
            self.conn.close()
        self.proc.kill()
        self.proc.wait()


class Mix:
    """Client side of one serve-mix measurement on one server."""

    def __init__(self, server: Server, reference: Reference, seed: int,
                 tiny: bool) -> None:
        import numpy as np

        self.server = server
        self.reference = reference
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.conns = [Conn(server.port)
                      for _ in range(min(2, os.cpu_count() or 1))]
        self.hits = HITS_PER_ROUND // (10 if tiny else 1)
        self.used_seeds: set[int] = set()
        #: Recorded rounds: server CPU seconds, client latencies (ms)
        #: of the miss and hit phases, hit-phase wall seconds; each at
        #: the reference speed, and raw under ``raw``.
        self.rounds: list[dict] = []
        self.hit_windows: list[tuple[int, int]] = []
        self.bodies: dict[str, bytes] = {}
        self.first_specs: list[dict] = []
        self.sources: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _specs(self) -> list[dict]:
        specs = []
        while len(specs) < SPECS_PER_ROUND:
            value = int(self.rng.integers(0, 2**31))
            if value not in self.used_seeds:
                self.used_seeds.add(value)
                specs.append(make_spec(value, len(specs), self.tiny))
        return specs

    def _ok(self, status: int, headers: dict, what: str) -> bool:
        self.attempted += 1
        source = headers.get("x-cache", "?")
        self.sources[source] = self.sources.get(source, 0) + 1
        if status != 200:
            self.failed += 1
            self.problems.append(f"{what}: HTTP {status}")
            return False
        return True

    def _hit(self, conn: Conn, payload: bytes) -> tuple[int, int]:
        """Replay one spec, check the answer, return its start and end
        (``perf_counter_ns``)."""
        start = _now()
        conn.send("POST", "/jobs", payload)
        status, headers, body = conn.recv()
        end = _now()
        if self._ok(status, headers, "hit"):
            if headers.get("x-cache") != "hit":
                self.problems.append(f"replay not served as a hit: "
                                     f"{headers.get('x-cache')}")
            if body != self.bodies.get(payload.decode()):
                self.problems.append("hit body differs from its miss")
        return start, end

    def round(self, record: bool = True) -> None:
        """One round: the miss phase, then the hit phase in blocks of
        :data:`BLOCK` hits.  When recorded, each segment's times are
        scaled to the reference speed by the mean of the speed samples
        taken on either side of it: reference-loop samples around the
        miss phase (the pool worker simulates), reference-server
        samples around each block of hits."""
        specs = self._specs()
        payloads = [json.dumps(s, sort_keys=True).encode() for s in specs]
        rec = {"cpu": 0.0, "misses": [], "hits": [], "hit_wall": 0.0}
        raw = {"cpu": 0.0, "misses": [], "hits": [], "hit_wall": 0.0}

        def account(cpu: float, scale: float, lat: list, wall: float,
                    phase: str) -> None:
            rec["cpu"] += cpu * scale
            raw["cpu"] += cpu
            rec[phase] += [ms * scale for ms in lat]
            raw[phase] += lat
            if phase == "hits":
                rec["hit_wall"] += wall * scale
                raw["hit_wall"] += wall

        loop = loop_scale(LOOP_EVENTS) if record else 1.0
        cpu0 = self.server.cpu_s()
        lat = []
        for spec, payload in zip(specs, payloads):
            start = _now()
            for conn in self.conns:
                conn.send("POST", "/jobs", payload)
            bodies = []
            for conn in self.conns:
                status, headers, body = conn.recv()
                lat.append((_now() - start) / 1e6)
                if self._ok(status, headers, f"miss {spec}"):
                    bodies.append(body)
            if len(set(bodies)) > 1:
                self.problems.append(f"coalesced bodies differ: {spec}")
            if bodies:
                self.bodies[payload.decode()] = bodies[0]
        if record:
            cpu = self.server.cpu_s() - cpu0
            account(cpu, (loop + loop_scale(LOOP_EVENTS)) / 2, lat, 0.0,
                    "misses")
            speed = self.reference.sample()
        conn = self.conns[0]
        for first in range(0, self.hits, BLOCK):
            cpu0 = self.server.cpu_s()
            # One untimed hit first (its server CPU counts): the first
            # hit after a sample runs slower than the rest, with the
            # caches the sample used.
            self._hit(conn, payloads[first % len(payloads)])
            lat = []
            phase = time.perf_counter()
            for i in range(first, min(first + BLOCK, self.hits)):
                start, end = self._hit(conn, payloads[i % len(payloads)])
                lat.append((end - start) / 1e6)
                if record:
                    self.hit_windows.append((start, end))
            wall = time.perf_counter() - phase
            if record:
                cpu = self.server.cpu_s() - cpu0
                before, speed = speed, self.reference.sample()
                account(cpu, (before + speed) / 2, lat, wall, "hits")
        if not record:
            return
        rec["raw"] = raw
        self.rounds.append(rec)
        if len(self.rounds) <= 2:
            self.first_specs += specs

    def per_round(self, key: str) -> list:
        return [r[key] for r in self.rounds]

    def run(self, seconds: float, min_rounds: int = 2,
            warm: bool = True) -> None:
        if warm:
            self.round(record=False)          # forks the pool worker
        deadline = time.perf_counter() + seconds
        while (len(self.rounds) < min_rounds
               or time.perf_counter() < deadline):
            self.round()

    def metrics_snapshot(self) -> dict:
        status, _, body = self.conns[0].request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def sim_totals(self) -> tuple[int, int]:
        """Modelled cycles and flit-hops of the first two rounds' specs
        (fixed by the seed)."""
        cycles = hops = 0
        for spec in self.first_specs:
            key = json.dumps(spec, sort_keys=True)
            rows = json.loads(self.bodies[key])["result"]
            cycles += sum(round(r["latency"] * spec["per_degree"])
                          for r in rows)
            hops += sum(round(r["flit_hops"] * spec["per_degree"])
                        for r in rows)
        return cycles, hops

    def verify(self) -> list[str]:
        """Served bodies must be byte-identical to serial runs."""
        from repro.runner import run_jobs
        from repro.serve import JobSpec, result_body

        problems = list(self.problems)
        for payload, body in self.bodies.items():
            spec = JobSpec.from_mapping(json.loads(payload))
            serial = run_jobs([spec.to_job()], workers=1, cache=None)[0]
            if result_body(spec.digest, serial) != body:
                problems.append(f"served body differs from serial run_jobs:"
                                f" {payload}")
        return problems


def pin_to_one_cpu() -> None:
    """Run client, server and pool worker on one CPU (children inherit
    the affinity).  In a VM, waking a process on another, idle vCPU
    waits for the host to schedule that vCPU: unpinned, the hit p99 of
    whole runs jumped from about 1 ms to 2.3-3.7 ms on a busy host, in
    4-5 runs of 10; pinned, no run of 10 went past 1.2 ms.  The closed
    loop keeps one side waiting while the other works, so one CPU
    serves."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(rundir, seed: int, seconds: float, metrics: Metrics,
            tiny: bool = False) -> tuple[list[str], int, int]:
    pin_to_one_cpu()
    setups, raw_setups = [], []
    server = reference = None
    try:
        speed = loop_scale(LOOP_EVENTS)
        for _ in range(SETUP_SPAWNS):      # the last one serves the run
            if server is not None:
                server.stop()
                server = None
            server = Server(rundir)
            after = loop_scale(LOOP_EVENTS)
            raw_setups.append(server.setup_s)
            setups.append(server.setup_s * (speed + after) / 2)
            speed = after
        reference = Reference(rundir)
        mix = Mix(server, reference, seed, tiny)
        try:
            mix.run(seconds)
            rss = server.peak_rss_mib()
            server_hit = mix.metrics_snapshot()["latency"]["hit"]
        finally:
            mix.close()
    finally:
        if server is not None:
            server.stop()
        if reference is not None:
            reference.close()
    problems = mix.verify()
    cycles, hops = mix.sim_totals()
    rounds = len(mix.rounds)
    host = _host_times(mix.rounds)
    raw = _host_times([r["raw"] for r in mix.rounds])
    n_hits = rounds * mix.hits
    n_misses = sum(len(r["misses"]) for r in mix.rounds)
    metrics.put("cpu_s", host["cpu_s"], "s",
                f"server+worker CPU per round, median of {rounds} rounds "
                f"(raw {raw['cpu_s']:.4f} s)")
    metrics.put("setup_s", median(setups), "s",
                f"spawn to /healthz 200, median of {len(setups)} "
                f"(raw {median(raw_setups):.4f} s)")
    metrics.put("peak_rss_mib", rss, "MiB", "server process")
    metrics.put("sim_cycles", cycles, "cycles", "first two rounds' specs")
    metrics.put("flit_hops", hops, "flit-hops", "first two rounds' specs")
    metrics.put("req_per_s", host["req_per_s"], "req/s",
                f"hit phase, 1 connection, closed loop; median over "
                f"{rounds} rounds (raw {raw['req_per_s']:.1f})")
    metrics.put("p50_ms", host["p50_ms"], "ms",
                f"hits, n={n_hits} (raw {raw['p50_ms']:.4f}); server "
                f"/metrics histogram reads p50 {server_hit['p50_ms']} / "
                f"p99 {server_hit['p99_ms']} ms")
    metrics.put("p99_ms", host["p99_ms"], "ms",
                f"hits, nearest rank per round of {mix.hits} "
                f"({mix.hits // 100} beyond it); lower quartile over "
                f"{rounds} rounds (raw {raw['p99_ms']:.4f})")
    metrics.put("miss_p50_ms", host["miss_p50_ms"], "ms",
                f"miss phase, n={n_misses} (raw {raw['miss_p50_ms']:.3f}), "
                f"sources {mix.sources}")
    return problems, mix.attempted, mix.failed


def _host_times(rounds: list[dict]) -> dict:
    """The host-time metrics of recorded rounds: medians over rounds
    of the server CPU and the hit rate; medians of all hit and all miss
    latencies; the lower quartile over rounds of the per-round hit p99.

    The quartile, not the median: for seconds at a time the host
    slowed 5-25 % of hits to 1.5x the median or more while leaving the
    median hit as it was, and the p99 of such rounds reads the host.
    A change to the program's own tail moves every round."""
    return {
        "cpu_s": median([r["cpu"] for r in rounds]),
        "req_per_s": median([len(r["hits"]) / r["hit_wall"]
                             for r in rounds]),
        "p50_ms": median([h for r in rounds for h in r["hits"]]),
        "p99_ms": nearest_rank([nearest_rank(r["hits"], 0.99)
                                for r in rounds], 0.25),
        "miss_p50_ms": median([m for r in rounds for m in r["misses"]]),
    }


def _requests(spans: list[list]) -> list[dict]:
    """Server-side requests: spec parse start to body ready, grouped by
    the request id the ``from_mapping`` wrapper assigns."""
    by_rid: dict[int, dict] = {}
    for name, start, end, _parent, rid, tag in spans:
        req = by_rid.setdefault(rid, {})
        if name == "jobspec.JobSpec.from_mapping":
            req["start"] = start
        elif name == "service.SimulationService.submit" and tag:
            req["source"], req["digest"], req["submitted"] = (
                tag[0], tag[1], end)
        elif name == "service.SimulationService.wait":
            req["end"] = end
    return [r for r in by_rid.values()
            if {"start", "end", "source"} <= set(r)]


def _derived(ledger, mix: Mix, server_spans, worker_spans) -> None:
    """serve.http_gap_ms, serve.queue_wait_ms and serve.pool_ms."""
    requests = sorted(_requests(server_spans), key=lambda r: r["start"])
    hits = [r for r in requests if r["source"] == "hit"]
    windows = sorted(mix.hit_windows)
    gaps, i = [], 0
    for req in hits:
        while i < len(windows) and windows[i][1] < req["end"]:
            i += 1
        if i < len(windows) and windows[i][0] <= req["start"]:
            client = windows[i][1] - windows[i][0]
            gaps.append((client - (req["end"] - req["start"])) / 1e6)
    ledger.extend("serve.http_gap_ms", gaps)
    jobs = {s[4]: s for s in worker_spans
            if s[0] == "supervisor.execute_job"}
    for req in requests:
        job = jobs.get(req.get("digest")) if req["source"] == "miss" else None
        if job is None:
            continue
        ledger.extend("serve.queue_wait_ms",
                      [(job[1] - req["submitted"]) / 1e6])
        ledger.extend("serve.pool_ms",
                      [((req["end"] - req["start"])
                        - (job[2] - job[1])) / 1e6])


def measure_traced(rundir, seed: int, seconds: float, trace_dir: str,
                   metrics: Metrics, tiny: bool = False
                   ) -> tuple[list[str], int, int]:
    """Per-layer metrics: an untraced server sets the overhead
    baseline, then a traced one (launcher-installed spans) is measured
    the same way over the same seed."""
    from tracer import Ledger, read_spans

    pin_to_one_cpu()
    results = {}
    reference = Reference(rundir)
    try:
        for phase, share, tdir in (("untraced", 0.4, None),
                                   ("traced", 0.6, trace_dir)):
            server = Server(rundir, trace_dir=tdir)
            try:
                mix = Mix(server, reference, seed, tiny)
                try:
                    mix.round(record=False)
                    before = mix.metrics_snapshot()
                    lo = _now()
                    mix.run(seconds * share, warm=False)
                    hi = _now()
                    after = mix.metrics_snapshot()
                finally:
                    mix.close()
            finally:
                server.stop()
            results[phase] = (mix, before, after, lo, hi, server.proc.pid)
    finally:
        reference.close()

    mix, before, after, lo, hi, pid = results["traced"]
    spans, counters = read_spans(trace_dir)
    ledger = Ledger()
    ledger.units = len(mix.rounds)
    server_spans = spans.pop(pid, [])
    ledger.add_window(server_spans, (hi - lo) / 1e9, lo, hi)
    server_spans = [s for s in server_spans if lo <= s[1] <= hi]
    ledger.add_spans(server_spans)
    worker_spans = []
    for wpid, wspans in spans.items():
        inside = [s for s in wspans if lo <= s[1] <= hi]
        worker_spans += inside
        ledger.add_window(inside, None, lo, hi)
        ledger.add_spans(inside)
        for entry in counters.get(wpid, ()):
            if lo <= entry["at"] <= hi:
                ledger.add_counters(entry["counters"])
    _derived(ledger, mix, server_spans, worker_spans)

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    ledger.add("serve.requests", delta("http_requests"))
    for name in ("hits", "misses", "coalesced", "failed"):
        ledger.add(f"serve.{name}", delta(name))
    ledger.add("serve.rejected", sum(delta("rejected", k)
                                     for k in after["rejected"]))
    ledger.add("runner.cache_hits", delta("cache", "hits"))
    ledger.add("runner.cache_misses", delta("cache", "misses"))
    ledger.add("runner.cache_stores", delta("cache", "stores"))
    base = median(results["untraced"][0].per_round("cpu"))
    ledger.emit(metrics, (median(mix.per_round("cpu")) - base) / base)
    hit = after["latency"]["hit"]
    metrics.put("serve.metrics_p50_ms", float(hit["p50_ms"]), "ms",
                f"server /metrics hit histogram, n={hit['n']}")
    metrics.put("serve.metrics_p99_ms", float(hit["p99_ms"]), "ms",
                f"server /metrics hit histogram, n={hit['n']}")
    metrics.notes["trace.total_s"] = (
        f"server window + worker busy time per round, "
        f"{ledger.units} rounds")
    problems = []
    attempted = failed = 0
    for m, *_ in results.values():
        problems += m.verify()
        attempted += m.attempted
        failed += m.failed
    return problems, attempted, failed
