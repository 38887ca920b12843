"""Chaos/soak engine with shrinking repro bundles (``docs/AUDIT.md``).

Seeded scenarios compose fault storms with randomized workloads, run
under :mod:`repro.audit`'s ``full`` invariant checking; failures are
greedily shrunk and frozen into JSON bundles that replay exactly.
"""

from repro.chaos.bundle import (BUNDLE_FORMAT, load_bundle, make_bundle,
                                replay_bundle, write_bundle)
from repro.chaos.runner import run_chaos
from repro.chaos.scenario import (CHAOS_SCHEMES, ChaosResult, ChaosScenario,
                                  MUTATIONS, build_fault_plan, build_system,
                                  build_traces, generate_scenario,
                                  run_scenario)
from repro.chaos.shrink import shrink

__all__ = [
    "BUNDLE_FORMAT",
    "CHAOS_SCHEMES",
    "ChaosResult",
    "ChaosScenario",
    "MUTATIONS",
    "build_fault_plan",
    "build_system",
    "build_traces",
    "generate_scenario",
    "load_bundle",
    "make_bundle",
    "replay_bundle",
    "run_chaos",
    "run_scenario",
    "shrink",
    "write_bundle",
]
