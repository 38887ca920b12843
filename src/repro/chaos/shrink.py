"""Greedy scenario shrinking.

Given a failing :class:`~repro.chaos.scenario.ChaosScenario` and its
failure signature, :func:`shrink` repeatedly tries smaller variants —
fewer references, fewer blocks, fewer faults, a shorter fault window, a
smaller mesh, no capacity/pointer pressure — keeping any variant that
still reproduces the *same* signature, until no reduction works (or the
run budget is spent).  The result is the minimal scenario the repro
bundle ships.
"""

from __future__ import annotations

from typing import Callable

from repro.chaos.scenario import ChaosResult, ChaosScenario, run_scenario


def _reductions(s: ChaosScenario) -> list[ChaosScenario]:
    """Candidate smaller scenarios, most aggressive first."""
    out: list[ChaosScenario] = []
    if s.refs_per_node > 2:
        out.append(s.evolve(refs_per_node=max(2, s.refs_per_node // 2)))
        out.append(s.evolve(refs_per_node=s.refs_per_node - 1))
    if s.blocks > 2:
        out.append(s.evolve(blocks=max(2, s.blocks // 2)))
    if s.drop_prob > 0.0:
        out.append(s.evolve(drop_prob=0.0))
    if s.router_faults > 0:
        out.append(s.evolve(router_faults=s.router_faults - 1))
    if s.link_faults > 0:
        out.append(s.evolve(link_faults=s.link_faults - 1))
    if s.fault_end is not None and s.fault_end > 2_000:
        out.append(s.evolve(fault_end=s.fault_end // 2))
    if s.cache_capacity is not None:
        out.append(s.evolve(cache_capacity=None))
    if s.directory_pointers is not None:
        out.append(s.evolve(directory_pointers=None))
    if s.mesh_width > 2 and s.mesh_height > 2:
        out.append(s.evolve(mesh_width=max(2, s.mesh_width // 2),
                            mesh_height=max(2, s.mesh_height // 2)))
    return out


def shrink(result: ChaosResult, audit: str = "full",
           max_runs: int = 48,
           log: Callable[[str], None] = lambda msg: None
           ) -> tuple[ChaosResult, int]:
    """Greedily minimize ``result.scenario`` while preserving its
    failure signature.

    Returns ``(smallest failing result, runs spent)``.  Greedy descent:
    each accepted reduction restarts the candidate scan, so the final
    scenario is a local minimum — no single listed reduction applied to
    it still reproduces the signature.
    """
    if result.ok:
        raise ValueError("cannot shrink a passing scenario")
    signature = result.signature
    best = result
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _reductions(best.scenario):
            if runs >= max_runs:
                break
            runs += 1
            attempt = run_scenario(candidate, audit=audit)
            if attempt.signature == signature:
                log(f"shrink: kept {signature} at "
                    f"refs={candidate.refs_per_node} "
                    f"blocks={candidate.blocks} "
                    f"mesh={candidate.mesh_width}x{candidate.mesh_height} "
                    f"faults={candidate.link_faults}L/"
                    f"{candidate.router_faults}R/"
                    f"{candidate.drop_prob:g}p")
                best = attempt
                improved = True
                break
    return best, runs
