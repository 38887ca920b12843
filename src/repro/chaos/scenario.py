"""Seeded chaos scenarios: randomized workloads under fault storms.

A :class:`ChaosScenario` is a complete, JSON-serializable description of
one adversarial run: a randomized multiprocessor workload (per-node
reference traces derived from the scenario seed) on a DSM system with a
seeded :class:`~repro.faults.plan.FaultPlan` composed of bursty link and
router kills plus probabilistic worm drops — exactly the machinery (PR 1
and 2's retransmission, downgrades, rerouting) that historically breaks
coherence protocols silently.  :func:`run_scenario` executes it under
the runtime invariant auditor and classifies the outcome, by exception
type, into a stable *failure signature* the shrinker and repro bundles
key on.

Deliberate protocol *mutations* (:data:`MUTATIONS`) exist to prove the
pipeline end to end: a mutated run must be caught by the auditor, shrunk
to a minimal scenario, and replay to the same signature.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.audit import InvariantViolation
from repro.coherence.processor import run_program
from repro.coherence.system import DSMSystem
from repro.config import paper_parameters
from repro.faults import FaultPlan, TransactionFailed
from repro.network.topology import Mesh2D
from repro.sim import Simulator

#: Schemes the generator draws from (one per style: pure unicast,
#: multidestination-invalidate, and multidestination both ways).
CHAOS_SCHEMES = ("ui-ua", "mi-ua-ec", "mi-ma-ec")


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded, fully-reproducible chaos run."""

    seed: int
    mesh_width: int = 4
    mesh_height: int = 4
    scheme: str = "ui-ua"
    #: Shared blocks the workload touches.
    blocks: int = 24
    #: References replayed by each node's processor.
    refs_per_node: int = 12
    #: Probability a reference is a write.
    write_frac: float = 0.3
    #: None = unbounded caches; an int adds LRU capacity pressure.
    cache_capacity: Optional[int] = None
    #: None = fully-mapped directory; an int = limited-pointer Dir_i B.
    directory_pointers: Optional[int] = None
    # Fault storm (all inert when zero — a fault-free scenario).
    link_faults: int = 0
    router_faults: int = 0
    drop_prob: float = 0.0
    fault_start: int = 0
    fault_end: Optional[int] = None
    fault_aware: bool = False
    #: Cycle budget; exceeding it classifies the run as a hang.
    limit: int = 5_000_000
    #: Name of a deliberate protocol mutation from :data:`MUTATIONS`.
    mutation: Optional[str] = None

    @property
    def has_faults(self) -> bool:
        """True when the fault storm can actually lose something."""
        return (self.link_faults > 0 or self.router_faults > 0
                or self.drop_prob > 0.0)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosScenario":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario field(s): {sorted(unknown)}")
        return cls(**data)

    def evolve(self, **changes: Any) -> "ChaosScenario":
        return dataclasses.replace(self, **changes)


def generate_scenario(seed: int, smoke: bool = False,
                      mutation: Optional[str] = None) -> ChaosScenario:
    """Draw a scenario as a pure function of ``seed``.

    ``smoke`` keeps every draw small (4x4 mesh, short traces) for the CI
    soak job; the full generator also mixes in 6x6 meshes, capacity
    pressure, and limited-pointer directories.
    """
    rng = np.random.default_rng([0xC4A05, seed])
    if smoke:
        width = height = 4
        refs = int(rng.integers(6, 13))
        blocks = int(rng.integers(12, 25))
    else:
        width, height = [(4, 4), (4, 4), (6, 6), (8, 4)][
            int(rng.integers(0, 4))]
        refs = int(rng.integers(8, 25))
        blocks = int(rng.integers(12, 49))
    scheme = CHAOS_SCHEMES[int(rng.integers(0, len(CHAOS_SCHEMES)))]
    write_frac = float(rng.uniform(0.2, 0.5))
    cache_capacity = None
    directory_pointers = None
    if not smoke:
        if rng.random() < 0.25:
            cache_capacity = int(rng.integers(4, 9))
        if rng.random() < 0.25:
            directory_pointers = int(rng.integers(2, 5))
    # ~40% of scenarios are fault-free (pure protocol soak); the rest
    # compose a storm of permanent kills in a window plus random drops.
    if rng.random() < 0.4:
        link_faults = router_faults = 0
        drop_prob = 0.0
        fault_end = None
        fault_aware = False
    else:
        link_faults = int(rng.integers(0, 3))
        router_faults = int(rng.integers(0, 2))
        drop_prob = float(rng.choice([0.0, 0.005, 0.01, 0.02]))
        # Bursty window: kills heal partway through the run, so most
        # scenarios exercise recovery-and-complete, not just fail-fast.
        fault_end = int(rng.integers(5_000, 40_000))
        fault_aware = bool(rng.random() < 0.5)
    return ChaosScenario(
        seed=seed, mesh_width=width, mesh_height=height, scheme=scheme,
        blocks=blocks, refs_per_node=refs, write_frac=write_frac,
        cache_capacity=cache_capacity,
        directory_pointers=directory_pointers,
        link_faults=link_faults, router_faults=router_faults,
        drop_prob=drop_prob, fault_end=fault_end,
        fault_aware=fault_aware, mutation=mutation)


def build_traces(scenario: ChaosScenario) -> dict[int, list[tuple]]:
    """Per-node reference traces, a pure function of the scenario."""
    rng = np.random.default_rng([0x7ACE5, scenario.seed])
    nodes = scenario.mesh_width * scenario.mesh_height
    traces: dict[int, list[tuple]] = {}
    for node in range(nodes):
        trace: list[tuple] = []
        for _ in range(scenario.refs_per_node):
            op = "W" if rng.random() < scenario.write_frac else "R"
            trace.append((op, int(rng.integers(0, scenario.blocks))))
        traces[node] = trace
    return traces


def build_fault_plan(scenario: ChaosScenario) -> Optional[FaultPlan]:
    """The scenario's fault storm (None when fault-free)."""
    if not scenario.has_faults:
        return None
    mesh = Mesh2D(scenario.mesh_width, scenario.mesh_height)
    return FaultPlan.random(
        mesh, seed=scenario.seed * 1_000_003 + 17,
        link_faults=scenario.link_faults,
        router_faults=scenario.router_faults,
        drop_prob=scenario.drop_prob,
        start=scenario.fault_start, end=scenario.fault_end)


def build_system(scenario: ChaosScenario, audit: str = "full") -> DSMSystem:
    """Construct the scenario's DSM system (auditor installed, mutation
    applied) without running it."""
    params = paper_parameters(
        scenario.mesh_width, scenario.mesh_height,
        fault_aware_routing=scenario.fault_aware,
        txn_timeout=2048)
    system = DSMSystem(
        Simulator(), params, scheme=scenario.scheme,
        cache_capacity=scenario.cache_capacity,
        directory_pointers=scenario.directory_pointers,
        fault_plan=build_fault_plan(scenario), audit=audit)
    if scenario.mutation is not None:
        MUTATIONS[scenario.mutation](system)
    return system


@dataclass
class ChaosResult:
    """Classified outcome of one scenario run."""

    scenario: ChaosScenario
    #: ``"ok"`` or the stable failure signature (see module docstring).
    signature: Optional[str]
    message: str = ""
    cycle: Optional[int] = None
    #: Protocol-event trail at failure time (violations only).
    trail: tuple[str, ...] = ()
    #: :meth:`DSMSystem.metrics_snapshot` of the run (successful runs).
    metrics: Optional[dict] = None
    #: TransactionFailed count tolerated as an expected fault outcome.
    expected_failures: int = 0

    @property
    def ok(self) -> bool:
        return self.signature is None


def run_scenario(scenario: ChaosScenario,
                 audit: str = "full") -> ChaosResult:
    """Execute one scenario deterministically and classify the outcome
    by the type of what it raised; no message text is read.

    Failure signatures deliberately exclude cycle numbers and node ids,
    so a shrunk scenario (same bug, different timing) still matches:

    * ``InvariantViolation:<invariant>`` — a protocol invariant broke
      (caught by the auditor, the engine's ack accounting, or the
      quiescence check);
    * ``TransactionFailed`` — a transaction failed terminally on a
      *fault-free* plan (under faults an exhausted retry budget is the
      expected, typed outcome and counts as success);
    * any other exception's class name: ``Deadlock`` (the network's
      hold-and-wait detector fired, or the calendar drained first),
      ``Hang`` (the cycle budget ran out), ``RoutingError``,
      ``IAckProtocolError``, ``AssertionError``, ``SimulationError``
      (simulation-kernel misuse), ...
    """
    system = build_system(scenario, audit=audit)
    try:
        run_program(system, build_traces(scenario), limit=scenario.limit)
    except InvariantViolation as exc:
        return ChaosResult(scenario, exc.signature, message=str(exc),
                           cycle=exc.cycle, trail=exc.trail)
    except TransactionFailed as exc:
        if scenario.has_faults:
            # The typed failure is the contract under faults: the storm
            # overwhelmed the retry budget.  Not a protocol bug.
            return ChaosResult(scenario, None,
                               message=f"expected: {exc}",
                               expected_failures=1,
                               metrics=system.metrics_snapshot())
        return ChaosResult(scenario, "TransactionFailed", message=str(exc),
                           cycle=system.sim.now)
    except Exception as exc:
        return ChaosResult(scenario, type(exc).__name__, message=str(exc),
                           cycle=system.sim.now)
    return ChaosResult(scenario, None,
                       metrics=system.metrics_snapshot())


# ----------------------------------------------------------------------
# Deliberate protocol mutations (to prove the catch/shrink/replay loop)
# ----------------------------------------------------------------------
def _mutate_stale_sharer(system: DSMSystem) -> None:
    """Skip exactly one cache invalidation: a sharer keeps a stale
    shared copy across an exclusive grant.  Caught by the SWMR scan."""
    original = system.engine.invalidate_hook
    fired = []

    def buggy(node: int, txn: int) -> None:
        if not fired:
            fired.append(node)
            return  # the invalidation silently vanishes
        original(node, txn)

    system.engine.invalidate_hook = buggy


def _mutate_lost_invalidation(system: DSMSystem) -> None:
    """One sharer acknowledges without ever being invalidated (its
    invalidation is dropped after delivery, but the ack path still
    runs).  Caught by transaction conservation at completion."""
    engine = system.engine
    original = engine._mark_invalidated
    fired = []

    def buggy(st, node: int) -> None:
        if not fired:
            fired.append(node)
            ev = st.inval_done[node]
            if not (engine.net.faults is not None and ev.triggered):
                ev.succeed()  # pretend the line died; it did not
            return
        original(st, node)

    engine._mark_invalidated = buggy


#: Registry of deliberate protocol mutations by name.
MUTATIONS: dict[str, Callable[[DSMSystem], None]] = {
    "stale-sharer": _mutate_stale_sharer,
    "lost-invalidation": _mutate_lost_invalidation,
}
