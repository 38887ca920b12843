"""Repro bundles: JSON artifacts that replay a caught failure.

A bundle freezes everything a failing chaos run needs to reproduce
deterministically: the (shrunk) scenario — which itself pins the
workload seed and the :class:`~repro.faults.plan.FaultPlan` draw — the
audit level, and the expected failure signature, plus the violation
message and protocol-event trail for humans.  ``repro replay b.json``
re-runs the scenario and verifies the signature matches.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.chaos.scenario import ChaosResult, ChaosScenario, run_scenario

#: Bundle format marker (bump on incompatible layout changes).
BUNDLE_FORMAT = "repro-chaos-bundle/1"


def make_bundle(result: ChaosResult, audit: str = "full",
                original: Optional[ChaosScenario] = None,
                shrink_runs: int = 0) -> dict:
    """Bundle dict for a failing result (``original`` is the pre-shrink
    scenario, recorded for provenance)."""
    if result.ok:
        raise ValueError("cannot bundle a passing scenario")
    bundle = {
        "format": BUNDLE_FORMAT,
        "audit": audit,
        "scenario": result.scenario.to_dict(),
        "signature": result.signature,
        "message": result.message,
        "cycle": result.cycle,
        "trail": list(result.trail),
    }
    if original is not None and original != result.scenario:
        bundle["original_scenario"] = original.to_dict()
        bundle["shrink_runs"] = shrink_runs
    return bundle


def write_bundle(path: str, bundle: dict) -> None:
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(path: str) -> dict:
    with open(path) as fh:
        bundle = json.load(fh)
    if bundle.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"{path}: not a {BUNDLE_FORMAT} file "
                         f"(format={bundle.get('format')!r})")
    return bundle


def replay_bundle(bundle: dict) -> tuple[ChaosResult, bool]:
    """Re-run a bundle's scenario; returns ``(result, matched)`` where
    ``matched`` is True when the failure signature reproduced exactly."""
    scenario = ChaosScenario.from_dict(bundle["scenario"])
    result = run_scenario(scenario, audit=bundle.get("audit", "full"))
    return result, result.signature == bundle["signature"]
