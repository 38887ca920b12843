"""Shared plumbing for the benchmark: paths, run directories, clocks,
quantiles, run metadata and the result line.

Every file the benchmark writes lives under ``.perfbench-run/`` at the
root of the checkout it runs from (cache roots, atlas output, traces,
saved results); nothing is read or written outside the checkout.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-run")

#: The seed whose outputs are pinned by digest (see ``digests.json``).
DEFAULT_SEED = 0


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program is missing)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail before measuring."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(**extra: str) -> dict:
    """Environment for a process the benchmark spawns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


class RunDir:
    """A private directory under ``.perfbench-run/`` for one run; every
    cache root the run uses is a fresh subdirectory of it."""

    def __init__(self, tag: str) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.path = os.path.join(WORK, f"{tag}-{os.getpid()}-"
                                       f"{time.time_ns()}")
        os.makedirs(self.path)
        self._n = 0

    def fresh(self, name: str = "cache") -> str:
        self._n += 1
        path = os.path.join(self.path, f"{name}-{self._n}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def cpu_s() -> float:
    """CPU seconds of this process since it started."""
    return time.process_time()


#: CPU seconds :func:`reference_loop` takes at the reference speed
#: (for its default :data:`REFERENCE_EVENTS` events).
REFERENCE_LOOP_S = 0.060
REFERENCE_EVENTS = 40_000


class _Event:
    __slots__ = ("node", "kind", "hops")

    def __init__(self, node: int, kind: int) -> None:
        self.node, self.kind, self.hops = node, kind, 0


def reference_loop(events: int = REFERENCE_EVENTS) -> float:
    """CPU seconds of a fixed pure-Python discrete-event loop (heap,
    dict, list and slotted-object traffic like the simulator's).

    A shared host's CPU speed drifts by a fifth or more over minutes,
    and CPU time drifts with it.  Timed next to every pass, this loop
    measures that speed, and every host time the benchmark reports is
    scaled to the reference speed (:data:`REFERENCE_LOOP_S`): on a
    busy two-core host this halved the run-to-run spread.  The
    benchmark owns the loop, so no change to the program can move it.
    """
    start = cpu_s()
    heap: list = []
    busy: dict[int, list] = {}
    log: list = []
    x = 1
    for i in range(256):
        heapq.heappush(heap, (i % 7, i, _Event(i % 64, i % 3)))
    for seq in range(256, 256 + events):
        t, _, ev = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = (ev.node + (x >> 8)) & 63
        queue = busy.get(node)
        if queue is None:
            queue = busy[node] = []
        queue.append(ev.kind)
        if len(queue) > 4:
            queue.clear()
        ev.hops += 1
        ev.node = node
        if not ev.hops & 7:
            log.append((t, node))
            if len(log) > 512:
                log.clear()
        heapq.heappush(heap, (t + 1 + (x & 3), seq, ev))
    return cpu_s() - start


def loop_scale(events: int = REFERENCE_EVENTS) -> float:
    """Speed scale from one run of the reference loop: the reference
    time over the measured one, so that a host time times the scale
    reads at the reference speed."""
    return (REFERENCE_LOOP_S * events / REFERENCE_EVENTS
            / reference_loop(events))


def peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def nearest_rank(values, q: float) -> float:
    """Exact nearest-rank percentile of raw samples (``q`` in (0, 1])."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no samples")
    return values[max(1, math.ceil(q * len(values))) - 1]


def digest(result) -> str:
    """Order-stable SHA-256 of a list of row dicts (the perf harness's
    ``_digest`` form, so pinned values compare with it)."""
    if isinstance(result, list):
        canonical = [sorted(r.items()) if isinstance(r, dict) else r
                     for r in result]
    else:
        canonical = result
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def pinned_digests() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_metadata(load_before, load_after) -> dict:
    """Host and code identity recorded with every result."""
    import numpy

    from repro.runner.cache import code_fingerprint

    nproc = os.cpu_count() or 1
    meta = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_digest": code_fingerprint()["source_digest"],
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }
    if nproc <= 2:
        meta["label"] = (f"shared container with {nproc} core(s): "
                         f"these numbers are not a published speed-up")
    return meta


class Metrics:
    """Named metrics with units, printed one per line and emitted as
    the ``metrics`` object of the result line."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}
        self.notes: dict[str, str] = {}

    def put(self, name: str, value, unit: str, note: str = "") -> None:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = {"value": value, "unit": unit}
        if note:
            self.notes[name] = note

    def print_lines(self) -> None:
        for name, entry in self.values.items():
            value = entry["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            note = self.notes.get(name, "")
            print(f"  {name:<28} {shown:>14} {entry['unit']:<10} {note}")


def emit(workload: str, seed: int, trace: bool, metrics: Metrics,
         correct: bool, attempted: int, failed: int, meta: dict,
         extra: dict) -> None:
    """Print the metric table, save the full record, and print the
    result line (always the last line of standard output)."""
    print(f"== {workload} seed={seed} trace={int(trace)} "
          f"correct={correct} attempted={attempted} failed={failed} "
          f"error_rate={failed / max(1, attempted):.6g}")
    metrics.print_lines()
    print("meta: " + json.dumps(meta, sort_keys=True))
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics.values,
              "notes": metrics.notes, "meta": meta, **extra}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace"
                                    f"{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics.values}),
          flush=True)
