"""Processor trace replay and barrier synchronization.

A processor replays a reference trace — the execution-driven-lite model:
each reference pays the cache-access time; misses block the processor
until the coherence transaction completes (sequential consistency).

Trace entries:

* ``("R", block)`` / ``("W", block)`` — a shared-memory reference;
* ``("think", cycles)`` — local computation, in *processor* cycles;
* ``("barrier", id)`` — global barrier (all processors of the program);
  under release consistency a barrier acts as a release fence and
  drains the node's outstanding writes first;
* ``("fence",)`` — explicit release fence (release consistency only).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.coherence.system import DSMSystem
from repro.sim import Event, Simulator, Timeout


class Barrier:
    """Reusable sense-reversing barrier over ``parties`` processors."""

    def __init__(self, sim: Simulator, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self._count = 0
        self._generation = 0
        self._event = sim.event("barrier.g0")
        #: Completed barrier episodes.
        self.episodes = 0

    def arrive(self) -> Event:
        """Register arrival; wait on the returned event."""
        self._count += 1
        event = self._event
        if self._count == self.parties:
            self._count = 0
            self._generation += 1
            self.episodes += 1
            self._event = self.sim.event(f"barrier.g{self._generation}")
            # Release waiters on a fresh dispatch, not inside the last
            # arrival's own step.
            event.schedule(0)
        return event


class Processor:
    """Replays one node's reference trace on a DSM system."""

    def __init__(self, system: DSMSystem, node: int,
                 trace: Sequence[tuple],
                 barrier: Optional[Barrier] = None,
                 name: Optional[str] = None) -> None:
        self.system = system
        self.node = node
        self.trace = trace
        self.barrier = barrier
        self.name = name or f"cpu{node}"
        self.finished_at: Optional[int] = None
        self.references = 0
        self.process = system.sim.spawn(self._run(), name=self.name)

    @property
    def done(self) -> Event:
        """Fires when the trace is fully replayed."""
        return self.process.done

    def _run(self):
        system = self.system
        proc_cycle = system.params.proc_cycle
        for ref in self.trace:
            kind = ref[0]
            if kind in ("R", "W"):
                self.references += 1
                yield from system.access(self.node, kind, ref[1])
            elif kind == "think":
                yield Timeout(int(ref[1]) * proc_cycle)
            elif kind == "barrier":
                if self.barrier is None:
                    raise RuntimeError(
                        f"{self.name}: barrier in trace but no barrier "
                        f"manager configured")
                if system.consistency == "rc":
                    yield from system.drain_writes(self.node)
                yield self.barrier.arrive()
            elif kind == "fence":
                yield from system.drain_writes(self.node)
            else:
                raise ValueError(f"unknown trace entry {ref!r}")
        if system.consistency == "rc":
            yield from system.drain_writes(self.node)
        self.finished_at = system.sim.now


def run_program(system: DSMSystem, traces: dict[int, Sequence[tuple]],
                limit: Optional[int] = None) -> dict:
    """Replay per-node traces to completion; returns execution stats.

    ``traces`` maps node id -> trace.  All traced nodes share one barrier
    group.  Returns a dict with the parallel execution time (cycles), per
    -node finish times, and reference/miss totals.
    """
    from repro.sim.engine import AllOf

    sim = system.sim
    barrier = Barrier(sim, len(traces))
    cpus = [Processor(system, node, trace, barrier)
            for node, trace in sorted(traces.items())]
    done = AllOf(sim, [c.done for c in cpus], name="program.done")
    sim.run_until_event(done, limit=limit)
    system.assert_quiescent()
    return {
        "execution_cycles": max(c.finished_at for c in cpus),
        "finish_times": {c.node: c.finished_at for c in cpus},
        "references": sum(c.references for c in cpus),
        "hits": system.total_hits(),
        "misses": system.total_misses(),
        "upgrades": system.total_upgrades(),
        "invalidations": system.invalidation_count,
        "barrier_episodes": barrier.episodes,
        "flit_hops": system.net.total_flit_hops,
        "messages": system.net.injected,
    }
