"""The chaos soak loop: N seeds, shrink on failure, emit bundles.

Backs ``repro chaos`` and the CI ``chaos-soak`` job: every seed draws a
scenario (randomized workload x fault storm), runs it under ``full``
auditing, and on any unexpected outcome — invariant violation, fault-
free ``TransactionFailed``, deadlock, hang, any other exception —
greedily shrinks the scenario and writes a JSON repro bundle that
``repro replay`` re-runs deterministically.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Optional

from repro.chaos.bundle import make_bundle, write_bundle
from repro.chaos.scenario import (MUTATIONS, ChaosResult, ChaosScenario,
                                  generate_scenario, run_scenario)
from repro.chaos.shrink import shrink
from repro.config import ConfigError
from repro.runner import Job, resolve_execution, run_jobs


def _slug(signature: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in signature).strip("-")


def _scenario_job(scenario: ChaosScenario, audit: str) -> dict:
    """Worker/cache entry: run one scenario, return its classified
    outcome as plain data (the scenario itself is reattached by the
    parent, keeping cache entries small)."""
    result = run_scenario(scenario, audit=audit)
    state = dataclasses.asdict(result)
    del state["scenario"]
    state["trail"] = list(state["trail"])
    return state


def _soak_results(scenarios: list[ChaosScenario], audit: str,
                  workers: int, cache) -> list[ChaosResult]:
    """Classify every scenario, fanned out and cache-replayed through
    :mod:`repro.runner`."""
    job_list = [
        Job(fn=_scenario_job, args=(scenario, audit),
            key={"fn": "chaos/scenario", "scenario": scenario.to_dict(),
                 "audit": audit},
            label=f"chaos:seed{scenario.seed}")
        for scenario in scenarios]
    states = run_jobs(job_list, workers=workers, cache=cache)
    return [ChaosResult(scenario=scenario, **dict(state, trail=tuple(
        state["trail"]))) for scenario, state in zip(scenarios, states)]


def run_chaos(seeds: int, *, smoke: bool = False, audit: str = "full",
              out_dir: str = "chaos-bundles", base_seed: int = 0,
              mutation: Optional[str] = None,
              max_shrink_runs: int = 48,
              log: Callable[[str], None] = lambda msg: None,
              jobs: int = 1, use_cache: bool = False,
              cache=None) -> dict:
    """Soak ``seeds`` scenarios; returns a summary dict.

    Summary keys: ``seeds``, ``passed``, ``failed``, ``expected_txn_
    failures`` (typed fault outcomes, not bugs), ``violations`` (audited
    transactions never tripped an invariant), and ``bundles`` (paths of
    repro bundles written for failing seeds, one per failure).

    ``jobs`` fans the scenario runs across worker processes (``0`` =
    one per core); shrinking and bundle writing stay in the parent, in
    seed order, so output is deterministic for any worker count.  The
    result cache is *opt-in* here (``use_cache=True``): a soak's job is
    to re-test the current code, and although the cache fingerprint
    does invalidate on any source change, a fresh run is the
    conservative default for a bug-hunting loop; with it, a re-run of
    an interrupted soak replays the seeds already soaked.
    ``seeds < 1``, ``base_seed < 0``, ``max_shrink_runs < 0`` or an
    unknown ``mutation`` raises :class:`~repro.config.ConfigError`.
    """
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    if base_seed < 0:
        raise ConfigError(f"base_seed must be >= 0, got {base_seed}")
    if max_shrink_runs < 0:
        raise ConfigError(f"max_shrink_runs must be >= 0, got "
                          f"{max_shrink_runs}")
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutation!r}; choose from "
                          f"{sorted(MUTATIONS)}")
    workers, cache = resolve_execution(jobs, use_cache, cache)
    scenarios = [generate_scenario(base_seed + i, smoke=smoke,
                                   mutation=mutation)
                 for i in range(seeds)]
    results = _soak_results(scenarios, audit, workers, cache)

    passed = failed = expected = 0
    bundles: list[str] = []
    signatures: list[str] = []
    for scenario, result in zip(scenarios, results):
        if result.ok:
            passed += 1
            expected += result.expected_failures
            log(f"seed {scenario.seed}: ok"
                + (" (expected TransactionFailed)" if
                   result.expected_failures else ""))
            continue
        failed += 1
        signatures.append(result.signature)
        log(f"seed {scenario.seed}: {result.signature} — shrinking")
        shrunk, runs = shrink(result, audit=audit,
                              max_runs=max_shrink_runs, log=log)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir,
            f"bundle-seed{scenario.seed}-{_slug(result.signature)}.json")
        write_bundle(path, make_bundle(shrunk, audit=audit,
                                       original=scenario,
                                       shrink_runs=runs))
        bundles.append(path)
        log(f"seed {scenario.seed}: wrote {path} ({runs} shrink runs)")
    return {
        "seeds": seeds,
        "passed": passed,
        "failed": failed,
        "expected_txn_failures": expected,
        "signatures": signatures,
        "bundles": bundles,
    }
