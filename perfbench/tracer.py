"""Outside-in span tracing for the traced benchmark run.

:func:`install` wraps the public entry points of each layer (listed in
:data:`TARGETS`) in spans recorded from this file; nothing under
``src/`` changes, and an untraced run never imports this module's
wrappers.  A span is ``[name, start_ns, end_ns, parent, rid, tag]``:
``parent`` indexes the enclosing span of the same thread or asyncio
task, ``rid`` is the operation, request, transaction or job it
belongs to, and ``tag`` carries what the wrapper saw (a submission's
cache source and digest).  Spans stay in memory and are written out
between passes, after each pool job, or at process exit.

The clock is ``time.perf_counter_ns`` — ``CLOCK_MONOTONIC`` on Linux,
shared by every process on the host — so server, pool-worker and
client timestamps compare directly.

Self time is *exclusive*: at every instant the time belongs to the
open span that started last.  For nested calls on one thread that is
the usual "span minus its child spans"; for interleaved asyncio tasks
it never counts one instant twice.  The per-layer self times therefore
sum to the union of all spans, and ``other`` is the rest of the
traced window.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import heapq
import json
import os
import sys
import time

#: (module, attribute path, layer) of every wrapped function.  Forked
#: pool workers inherit the wrappers installed in their parent.
TARGETS = (
    ("repro.sim.engine", "Simulator.run_until_event", "sim"),
    ("repro.network.network", "MeshNetwork.step", "network"),
    ("repro.core.grouping", "build_plan", "core.plan"),
    ("repro.core.engine", "InvalidationEngine.run", "core.engine"),
    ("repro.coherence.processor", "run_program", "coherence"),
    ("repro.workloads.apsp", "generate_traces", "workloads"),
    ("repro.workloads.barnes_hut", "generate_traces", "workloads"),
    ("repro.workloads.lu", "generate_traces", "workloads"),
    ("repro.explore.vectorized", "compiled_plan", "explore.compile"),
    ("repro.explore.vectorized", "evaluate_batch", "explore.eval"),
    ("repro.explore.grid", "screen", "explore"),
    ("repro.explore.calibrate", "calibrate", "explore"),
    ("repro.explore.refine", "refine", "explore"),
    ("repro.explore.atlas", "build_atlas", "explore"),
    ("repro.runner.jobs", "run_jobs", "runner"),
    ("repro.runner.cache", "ResultCache.load", "runner"),
    ("repro.runner.cache", "ResultCache.store", "runner"),
    ("repro.runner.supervisor", "execute_job", "runner"),
    ("repro.serve.jobspec", "JobSpec.from_mapping", "serve"),
    ("repro.serve.service", "SimulationService.submit", "serve"),
    ("repro.serve.service", "SimulationService.wait", "serve"),
)

#: Per-layer self-time metric for each layer key.
SELF_METRIC = {
    "sim": "sim.self_s",
    "network": "network.self_s",
    "core.plan": "core.plan_s",
    "core.engine": "core.engine_s",
    "coherence": "coherence.self_s",
    "workloads": "workloads.trace_s",
    "explore.compile": "explore.compile_s",
    "explore.eval": "explore.eval_s",
    "explore": "explore.self_s",
    "runner": "runner.self_s",
    "serve": "serve.self_s",
}

_CUR = contextvars.ContextVar("perfbench_span", default=-1)
_RID = contextvars.ContextVar("perfbench_rid", default=0)
_now = time.perf_counter_ns


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


LAYER_OF = {span_name(m, p): layer for m, p, layer in TARGETS}


class Tracer:
    """The in-memory span store of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.engines: dict[int, object] = {}
        self.systems: dict[int, object] = {}
        self.compile_cache = None
        self.registry = None
        self._next_rid = 0
        self._main_pid = os.getpid()

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target and start collecting networks."""
        import importlib

        from repro.network import network as network_mod

        self.registry = network_mod.PROFILE_REGISTRY = []
        for module, path, _ in TARGETS:
            importlib.import_module(module)
        for module, path, _ in TARGETS:
            self._wrap(module, path)
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap(self, module_name: str, path: str) -> None:
        import asyncio

        module = sys.modules[module_name]
        name = span_name(module_name, path)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._sync(raw.__func__, name)))
            elif asyncio.iscoroutinefunction(raw):
                setattr(owner, attr, self._async(raw, name))
            else:
                setattr(owner, attr, self._sync(raw, name))
            return
        original = getattr(module, path)
        wrapped = self._sync(original, name)
        if hasattr(original, "cache_info"):      # functools.lru_cache
            wrapped.cache_info = original.cache_info
            wrapped.cache_clear = original.cache_clear
            self.compile_cache = original
        # Rebind every module-level alias (``from x import f``) too.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _sync(self, fn, name: str):
        spans = self.spans
        tracer = self
        capture = {"engine.InvalidationEngine.run": tracer.engines,
                   "processor.run_program": tracer.systems}.get(name)
        new_request = name == "jobspec.JobSpec.from_mapping"
        job_root = name == "supervisor.execute_job"

        is_txn = name == "engine.InvalidationEngine.run"

        def wrapper(*args, **kwargs):
            if new_request:
                tracer._next_rid += 1
                _RID.set(tracer._next_rid)
            rec = [name, _now(), 0, _CUR.get(), _RID.get(), None]
            token = _CUR.set(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if is_txn:
                    rec[4] = result.txn
                return result
            finally:
                rec[2] = _now()
                _CUR.reset(token)
                if capture is not None:
                    capture[id(args[0])] = args[0]
                if job_root:
                    tracer._job_done(rec, args[0])

        # Same module and qualified name as the original, which the
        # module attribute now points to: pickling by reference (pool
        # submissions of ``execute_job``) keeps working.
        return functools.wraps(fn)(wrapper)

    def _async(self, fn, name: str):
        spans = self.spans
        is_submit = name == "service.SimulationService.submit"

        async def wrapper(*args, **kwargs):
            rec = [name, _now(), 0, _CUR.get(), _RID.get(), None]
            token = _CUR.set(len(spans))
            spans.append(rec)
            try:
                result = await fn(*args, **kwargs)
                if is_submit:
                    rec[5] = [result.source, result.digest]
                return result
            finally:
                rec[2] = _now()
                _CUR.reset(token)

        return functools.wraps(fn)(wrapper)

    # -- forked pool workers --------------------------------------------
    def _after_fork(self) -> None:
        from repro.network import network as network_mod

        _CUR.set(-1)
        self.spans.clear()
        self.engines.clear()
        self.systems.clear()
        self.registry = network_mod.PROFILE_REGISTRY = []

    def _job_done(self, rec: list, job) -> None:
        """Tag a finished job with its digest; a pool worker (never
        the process that installed the tracer) writes its spans now,
        because pool shutdown kills workers without running exit
        hooks."""
        from repro.runner.cache import key_digest

        if job.key is not None:
            rec[4] = key_digest(job.key)
        if os.getpid() != self._main_pid and rec[3] == -1:
            self.flush(f"spans-{os.getpid()}.jsonl.gz",
                       counters=self.collect_counters())

    # -- counters and output ---------------------------------------------
    def collect_counters(self) -> dict:
        """Counters of the networks, simulators and protocol engines
        built since the last call (then forgotten)."""
        nets = list(self.registry or ())
        sims = {id(n.sim): n.sim for n in nets}
        engines = dict(self.engines)
        for system in self.systems.values():
            engines[id(system.engine)] = system.engine
        snaps = [e.metrics_snapshot() for e in engines.values()]
        counters = {
            "sim.events": sum(s.dispatched for s in sims.values()),
            "network.cycles": sum(n.cycles_stepped + n.cycles_skipped
                                  for n in nets),
            "network.cycles_skipped": sum(n.cycles_skipped for n in nets),
            "network.moves": sum(n.moves_applied for n in nets),
            "network.worms": sum(n.injected for n in nets),
            "core.txns": sum(s["transactions"] for s in snaps),
            "core.ma_admission_waits": sum(s["ma_admission_waits"]
                                           for s in snaps),
            "core.failed_txns": sum(s["failures"] for s in snaps),
        }
        if self.registry is not None:
            self.registry.clear()
        self.engines.clear()
        self.systems.clear()
        return counters

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list (call
        only when no span is open)."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def flush(self, filename: str, spans=None, counters=None) -> None:
        """Append spans (default: take them) to a gzip JSON-lines file."""
        if spans is None:
            spans = self.take()
        os.makedirs(self.out_dir, exist_ok=True)
        with gzip.open(os.path.join(self.out_dir, filename), "at",
                       encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "at": _now(),
                                 "counters": counters or {}}) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(out_dir: str) -> tuple[dict, dict]:
    """``{pid: spans}`` and ``{pid: [counter dicts]}`` of a trace dir."""
    spans: dict[int, list] = {}
    counters: dict[int, list] = {}
    if not os.path.isdir(out_dir):
        return spans, counters
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("spans-"):
            continue
        with gzip.open(os.path.join(out_dir, name), "rt",
                       encoding="utf-8") as fh:
            pid = None
            for line in fh:
                item = json.loads(line)
                if isinstance(item, dict):
                    pid = item["pid"]
                    counters.setdefault(pid, []).append(item)
                    spans.setdefault(pid, [])
                else:
                    spans[pid].append(item)
    return spans, counters


def self_times(spans: list[list], lo: int = None, hi: int = None
               ) -> dict[str, float]:
    """Exclusive self seconds per layer over one process's spans,
    clipped to ``[lo, hi]`` ns when given."""
    events = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()
    totals: dict[str, float] = {}
    open_heap: list[tuple[int, int]] = []
    closed: set[int] = set()
    prev = None
    for t, kind, i in events:
        while open_heap and -open_heap[0][1] in closed:
            heapq.heappop(open_heap)
        if open_heap and prev is not None and t > prev:
            top = -open_heap[0][1]
            layer = LAYER_OF[spans[top][0]]
            totals[layer] = totals.get(layer, 0.0) + (t - prev) / 1e9
        prev = t
        if kind:
            heapq.heappush(open_heap, (-spans[i][1], -i))
        else:
            closed.add(i)
    return totals


def durations_ms(spans: list[list], name: str) -> list[float]:
    return [(s[2] - s[1]) / 1e6 for s in spans if s[0] == name]


#: Every per-layer metric: (name, unit).  ``_s`` metrics are totals per
#: pass (per round on serve-mix); ``_ms`` metrics are medians per
#: operation; counts are per pass (per round).  A layer a workload does
#: not use reads 0.
LAYER_METRICS = (
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("network.cycles", "cycles"), ("network.cycles_skipped", "cycles"),
    ("network.moves", "count"), ("network.worms", "count"),
    ("network.self_s", "s"),
    ("core.plans", "count"), ("core.plan_s", "s"),
    ("core.txns", "count"), ("core.engine_s", "s"),
    ("core.ma_admission_waits", "count"), ("core.failed_txns", "count"),
    ("coherence.refs", "count"), ("coherence.miss_ratio", "ratio"),
    ("coherence.invalidations", "count"), ("coherence.self_s", "s"),
    ("workloads.trace_s", "s"),
    ("explore.configs", "count"), ("explore.cells", "count"),
    ("explore.compile_s", "s"), ("explore.eval_s", "s"),
    ("explore.compile_hit_ratio", "ratio"), ("explore.sim_cells", "count"),
    ("explore.sim_share", "ratio"), ("explore.self_s", "s"),
    ("runner.jobs", "count"), ("runner.cache_hits", "count"),
    ("runner.cache_misses", "count"), ("runner.cache_stores", "count"),
    ("runner.hit_ratio", "ratio"), ("runner.retries", "count"),
    ("runner.load_ms", "ms"), ("runner.store_ms", "ms"),
    ("runner.self_s", "s"),
    ("serve.requests", "count"), ("serve.hits", "count"),
    ("serve.misses", "count"), ("serve.coalesced", "count"),
    ("serve.rejected", "count"), ("serve.failed", "count"),
    ("serve.spec_ms", "ms"), ("serve.submit_ms", "ms"),
    ("serve.http_gap_ms", "ms"), ("serve.queue_wait_ms", "ms"),
    ("serve.pool_ms", "ms"), ("serve.metrics_p50_ms", "ms"),
    ("serve.metrics_p99_ms", "ms"), ("serve.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.total_s", "s"),
    ("other.self_s", "s"),
)

#: Ratio metrics: (name, numerator sum, denominator sums).
_RATIOS = (
    ("coherence.miss_ratio", "_coherence.misses", ("coherence.refs",)),
    ("explore.compile_hit_ratio", "_compile.hits",
     ("_compile.hits", "_compile.misses")),
    ("explore.sim_share", "_explore.sim_cpu", ("_explore.pass_cpu",)),
    ("runner.hit_ratio", "runner.cache_hits",
     ("runner.cache_hits", "runner.cache_misses")),
)


class Ledger:
    """Per-layer sums and samples over the traced passes (rounds)."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.units = 0

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def extend(self, name: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)

    def add_window(self, spans: list[list], total_s, lo: int = None,
                   hi: int = None) -> None:
        """One process's traced window: exclusive self time per layer,
        with ``total_s - sum(self)`` booked to ``other``.  ``total_s``
        None means the process was busy only inside its spans (a pool
        worker between jobs is idle)."""
        totals = self_times(spans, lo, hi)
        busy = sum(totals.values())
        for layer, seconds in totals.items():
            self.add(SELF_METRIC[layer], seconds)
        total_s = busy if total_s is None else total_s
        self.add("trace.total_s", total_s)
        self.add("other.self_s", total_s - busy)

    def add_spans(self, spans: list[list]) -> None:
        """Span-derived counts and per-operation durations."""
        self.add("core.plans", sum(1 for s in spans
                                   if s[0] == "grouping.build_plan"))
        jobs = [s for s in spans if s[0] == "supervisor.execute_job"]
        self.add("runner.jobs", len({s[4] for s in jobs}))
        self.add("runner.retries", len(jobs) - len({s[4] for s in jobs}))
        self.extend("runner.load_ms",
                    durations_ms(spans, "cache.ResultCache.load"))
        self.extend("runner.store_ms",
                    durations_ms(spans, "cache.ResultCache.store"))
        self.extend("serve.spec_ms",
                    durations_ms(spans, "jobspec.JobSpec.from_mapping"))
        self.extend("serve.submit_ms",
                    durations_ms(spans, "service.SimulationService.submit"))

    def add_counters(self, counters: dict) -> None:
        for name, value in counters.items():
            self.add(name, value)

    def emit(self, metrics, overhead: float) -> None:
        """Put every per-layer metric (0 where a layer was idle)."""
        from common import median

        units = max(1, self.units)
        ratios = {name: (num, dens) for name, num, dens in _RATIOS}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead":
                value = overhead
            elif name in ratios:
                num, dens = ratios[name]
                den = sum(self.sums.get(d, 0.0) for d in dens)
                value = self.sums.get(num, 0.0) / den if den else 0.0
            elif unit == "ms":
                samples = self.samples.get(name)
                value = median(samples) if samples else 0.0
            else:
                value = self.sums.get(name, 0.0) / units
            note = ""
            if unit == "ms" and self.samples.get(name):
                note = f"median, n={len(self.samples[name])}"
            metrics.put(name, float(value), unit, note)
