#!/usr/bin/env python
"""Chaos soak, repro bundles, and deterministic replay end to end.

Three acts (docs/AUDIT.md):

1. **Soak** — run a handful of seeded chaos scenarios (randomized
   workloads under fault storms) with the runtime invariant auditor at
   ``full``; the unmutated protocol survives all of them.
2. **Catch** — run a scenario with the ``stale-sharer`` protocol
   mutation (one cache invalidation silently skipped); the auditor
   catches it, and the engine greedily shrinks the scenario to a
   minimal one and writes a JSON repro bundle.
3. **Replay** — load the bundle back, re-run it deterministically, and
   show the protocol-event trail that explains the violation.

Run:  python examples/chaos_replay.py
"""

import tempfile
from pathlib import Path

from repro.chaos import (generate_scenario, load_bundle, make_bundle,
                         replay_bundle, run_scenario, shrink, write_bundle)

# ----------------------------------------------------------------------
# Act 1: soak the real protocol — zero violations expected
# ----------------------------------------------------------------------
print("== Act 1: soak 5 seeded scenarios under full auditing ==")
for seed in range(5):
    scenario = generate_scenario(seed, smoke=True)
    result = run_scenario(scenario, audit="full")
    storm = (f"{scenario.link_faults}L/{scenario.router_faults}R/"
             f"{scenario.drop_prob:g}p")
    note = " (transaction failed under the storm — the expected, typed " \
           "outcome)" if result.expected_failures else ""
    assert result.ok, f"seed {seed}: {result.signature}"
    print(f"  seed {seed}: {scenario.scheme:9s} storm {storm:12s} ok{note}")


# ----------------------------------------------------------------------
# Act 2: a deliberately broken protocol — catch, shrink, bundle
# ----------------------------------------------------------------------
print("\n== Act 2: a mutated protocol is caught, shrunk, bundled ==")
scenario = generate_scenario(1, smoke=True, mutation="stale-sharer")
result = run_scenario(scenario, audit="full")
assert not result.ok
print(f"  caught:  {result.signature} at cycle {result.cycle}")
print(f"  from:    mesh {scenario.mesh_width}x{scenario.mesh_height}, "
      f"{scenario.refs_per_node} refs/node, {scenario.blocks} blocks")

shrunk, runs = shrink(result, max_runs=24)
small = shrunk.scenario
print(f"  shrunk:  mesh {small.mesh_width}x{small.mesh_height}, "
      f"{small.refs_per_node} refs/node, {small.blocks} blocks "
      f"({runs} shrink runs)")

# The bundle goes through a real JSON file, removed again on exit.
with tempfile.TemporaryDirectory() as tmp:
    bundle_path = Path(tmp) / "bundle.json"
    write_bundle(str(bundle_path), make_bundle(shrunk, audit="full",
                                               original=scenario,
                                               shrink_runs=runs))
    print(f"  bundle:  {bundle_path.stat().st_size} bytes of JSON")
    bundle = load_bundle(str(bundle_path))

# ----------------------------------------------------------------------
# Act 3: replay the bundle deterministically
# ----------------------------------------------------------------------
print("\n== Act 3: replay the bundle ==")
replayed, matched = replay_bundle(bundle)
assert matched, "bundles must replay to the same signature"
print(f"  expected {bundle['signature']!r}, observed "
      f"{replayed.signature!r} — signature reproduced")
print("  protocol-event trail (most recent last):")
for line in replayed.trail[-8:]:
    print(f"    {line}")
print("\nA bundle is plain JSON: `repro chaos` writes one per failure "
      "under --out-dir, and `repro replay <bundle.json>` reproduces it "
      "from the command line.")
