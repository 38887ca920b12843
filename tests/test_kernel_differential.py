"""Differential fuzzing of the cycle engine against the oracle.

Hypothesis draws a whole scenario — mesh shape (including 1xN and 2x2
degenerate meshes), base routing, coherence scheme, sharing degree,
audit level, seed, random fault plans, the router parameters the cycle
engine reads (routing delay, VC buffer depth, virtual networks,
consumption channels, i-ack buffers, deferred delivery, fault-aware
routing, which routes faulted runs around their dead links), and how the
simulation is driven (``run_until_event`` or ``run(until=...)``
slices) — runs it on :class:`~repro.network.network.MeshNetwork` and
on the frozen reference kernel in ``tests/reference_kernel.py``, and
requires *bit-identical* results:

* the full ``TransactionRecord`` stream (or the identical failure, for
  faulted runs),
* ``phase_counters()`` minus the documented kernel-private allowlist
  (``KERNEL_PRIVATE_COUNTERS``),
* total flit hops and the simulator's dispatched-callback count,
* the SHA-256 digest of all of the above,

plus the quiescence invariant: ``cycles_stepped + cycles_skipped``
must equal the oracle's ``cycles_stepped``.

The ``repro`` Hypothesis profile (tests/conftest.py) is derandomized,
so the 200 CI examples are reproducible; set ``HYPOTHESIS_PROFILE=
explore`` locally for random exploration.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import repro.network.worm as worm_mod
from repro.audit import Auditor
from repro.config import paper_parameters
from repro.core import InvalidationEngine, build_plan
from repro.faults import FaultPlan, TransactionFailed
from repro.network import MeshNetwork
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.workloads.patterns import make_pattern
from tests.reference_kernel import (KERNEL_PRIVATE_COUNTERS,
                                    LegacyMeshNetwork)

#: One scheme per family: unicast, multicast BRCP (deterministic and
#: adaptive base), tree multicast, gather-free UI-MA, and SCI chains.
SCHEMES = ("ui-ua", "mi-ma-ec", "mi-ma-ec-u", "mi-ua-tm", "ui-ma-ec",
           "sci-chain")

#: Cycle limit of every transaction, as in the engine's sweeps.
LIMIT = 5_000_000


@st.composite
def scenarios(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=1, max_value=4))
    nodes = width * height
    assume(nodes >= 2)
    routing = draw(st.sampled_from(["adaptive", "ecube", "westfirst"]))
    scheme = draw(st.sampled_from(SCHEMES))
    degree = draw(st.integers(min_value=1,
                              max_value=min(5, nodes - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    txns = draw(st.integers(min_value=1, max_value=2))
    audit = draw(st.sampled_from(["off", "cheap"]))
    fault_seed = None
    if nodes >= 9:  # room for faults without partitioning the mesh
        fault_seed = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=99)))
    # None: one run_until_event per transaction; N: run(until=now+N)
    # slices until it completes.
    until = draw(st.one_of(st.none(),
                           st.integers(min_value=1, max_value=400)))
    router = {
        "router_delay": draw(st.sampled_from([0, 1, 2, 4])),
        "vc_buffer_depth": draw(st.sampled_from([1, 2, 4])),
        "num_vnets": draw(st.sampled_from([2, 3])),
        "consumption_channels": draw(st.sampled_from([1, 2, 4])),
        "iack_buffers": draw(st.sampled_from([2, 4])),
        "deferred_delivery": draw(st.booleans()),
        "fault_aware_routing": draw(st.booleans()),
    }
    return {"width": width, "height": height, "routing": routing,
            "scheme": scheme, "degree": degree, "seed": seed,
            "txns": txns, "audit": audit, "fault_seed": fault_seed,
            "until": until, "router": router}


def drive(sim, done, until):
    """Run to ``done`` in ``run(until=...)`` slices of ``until`` cycles;
    the clock must land on every slice bound."""
    while not done.triggered:
        if sim.peek() is None:
            raise SimulationError(f"calendar drained at cycle {sim.now}")
        if sim.now >= LIMIT:
            raise SimulationError(f"not done by cycle {sim.now}")
        bound = sim.now + until
        assert sim.run(until=bound) == bound == sim.now
    return done.value


def run_scenario(net_cls, sc):
    """One kernel's complete observable behaviour for a scenario."""
    # Worm uids are a module-global counter; reset it so failure
    # messages (which embed ``worm #N``) compare equal across kernels.
    worm_mod._uid_counter = itertools.count(1)
    params = paper_parameters(sc["width"], sc["height"], **sc["router"])
    sim = Simulator()
    net = net_cls(sim, params, sc["routing"])
    engine = InvalidationEngine(sim, net, params)
    if sc["audit"] != "off":
        Auditor.install_engine(engine, sc["audit"])
    if sc["fault_seed"] is not None:
        net.install_faults(FaultPlan.random(
            net.mesh, seed=sc["fault_seed"], link_faults=2,
            router_faults=1))
    rng = np.random.default_rng(sc["seed"])
    records = []
    for _ in range(sc["txns"]):
        pat = make_pattern("uniform", net.mesh, sc["degree"], rng)
        plan = build_plan(sc["scheme"], net.mesh, pat.home, pat.sharers)
        try:
            if sc["until"] is None:
                record = engine.run(plan, limit=LIMIT)
            else:
                record = drive(sim, engine.execute(plan).done, sc["until"])
                if isinstance(record, TransactionFailed):
                    raise record
            records.append(dataclasses.astuple(record))
        except TransactionFailed as exc:
            records.append(("failed", str(exc), sim.now))
        except SimulationError as exc:
            # Deadlock (or event-limit) aborts must be reproduced at
            # the identical cycle with the identical diagnosis.
            records.append(("sim-error", str(exc), sim.now))
            break
    raw = net.phase_counters()
    shared = {k: v for k, v in raw.items()
              if k not in KERNEL_PRIVATE_COUNTERS}
    observable = (records, shared, net.total_flit_hops, sim.dispatched,
                  net.worms_dropped, net.delivered, net.injected)
    digest = hashlib.sha256(repr(observable).encode()).hexdigest()
    return observable, digest, raw


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_kernels_bit_identical(sc):
    mesh = run_scenario(MeshNetwork, sc)
    ref = run_scenario(LegacyMeshNetwork, sc)
    assert mesh[0] == ref[0], "observable divergence from the oracle"
    assert mesh[1] == ref[1], "digest divergence"
    # Quiescence: skipped windows account exactly for the cycles the
    # oracle steps through.
    assert ref[2]["cycles_skipped"] == 0
    assert (mesh[2]["cycles_stepped"] + mesh[2]["cycles_skipped"]
            == ref[2]["cycles_stepped"])


@given(scenarios())
@settings(max_examples=25, deadline=None)
def test_soa_run_to_run_deterministic(sc):
    """The structure-of-arrays engine must also be deterministic against
    itself (the skip machinery cannot depend on wall-clock or iteration
    order)."""
    assert run_scenario(MeshNetwork, sc) == run_scenario(MeshNetwork, sc)
