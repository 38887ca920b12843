"""Active-sampling refinement of the calibration bands.

After the first stratified calibration pass, the bands may be too wide
to name a winner in some regions — the top-2 schemes' calibrated
latency intervals overlap.  Refinement simulates *only the cells that
matter*: the contenders of ambiguous regions plus the Pareto frontier
(latency vs traffic) of each region group, round by round, until the
bands stop moving (``tol``) or the simulation budget (a fraction of the
screened grid) is spent.  Everything still flows through the shared
``run_jobs`` pool and result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config import ConfigError
from repro.explore.calibrate import (Calibration, apply_samples,
                                     simulate_cells)
from repro.explore.grid import ScreenResult


def region_keys(result: ScreenResult) -> np.ndarray:
    """Region id per cell: cells differing only in scheme share one
    region (the unit of "which scheme wins here")."""
    n_ac = max(len(result.acombos), 1)
    return ((result.mesh_w * 1000 + result.mesh_h) * 1000
            + result.degree) * n_ac + result.acombo


def ambiguous_cells(result: ScreenResult,
                    calib: Calibration) -> list[int]:
    """Cells of regions whose top-2 schemes' calibrated intervals
    overlap — exactly the comparisons the atlas cannot yet call."""
    out: list[int] = []
    regions = region_keys(result)
    for key in np.unique(regions):
        idx = np.flatnonzero(regions == key)
        if len(idx) < 2:
            continue
        order = idx[np.argsort(result.latency[idx], kind="stable")]
        win, run = order[0], order[1]
        w_hi = calib.band(
            result.grid.schemes[result.scheme[win]]).interval(
                float(result.latency[win]))[1]
        r_lo = calib.band(
            result.grid.schemes[result.scheme[run]]).interval(
                float(result.latency[run]))[0]
        if w_hi >= r_lo:
            out.extend(int(i) for i in (win, run))
    return out


def pareto_cells(result: ScreenResult) -> list[int]:
    """Per region, the (latency, traffic) Pareto frontier across
    schemes — the designs someone would actually pick, hence the ones
    worth trusting most."""
    out: list[int] = []
    regions = region_keys(result)
    for key in np.unique(regions):
        idx = np.flatnonzero(regions == key)
        lat, tfc = result.latency[idx], result.traffic[idx]
        for k, i in enumerate(idx):
            dominated = np.any(
                (lat <= lat[k]) & (tfc <= tfc[k])
                & ((lat < lat[k]) | (tfc < tfc[k])))
            if not dominated:
                out.append(int(i))
    return out


@dataclass
class RefineReport:
    """What refinement did: per-round band widths and the sim budget
    actually consumed."""

    rounds: int = 0
    simulated_cells: int = 0
    budget_cells: int = 0
    sim_fraction: float = 0.0
    converged: bool = False
    band_width_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {"rounds": self.rounds,
                "simulated_cells": self.simulated_cells,
                "budget_cells": self.budget_cells,
                "sim_fraction": self.sim_fraction,
                "converged": self.converged,
                "band_width_history": self.band_width_history}


def check_refine(budget_fraction: float, tol: float,
                 max_rounds: int) -> None:
    """Raise :class:`ConfigError` for a ``budget_fraction`` outside
    [0, 1] or a negative ``tol`` or ``max_rounds``."""
    if not 0 <= budget_fraction <= 1:
        raise ConfigError(f"budget_fraction must be in [0, 1], got "
                          f"{budget_fraction}")
    if tol < 0 or max_rounds < 0:
        raise ConfigError(f"tol and max_rounds must be >= 0, got {tol} "
                          f"and {max_rounds}")


def refine(result: ScreenResult, calib: Calibration,
           budget_fraction: float = 0.05, tol: float = 0.02,
           max_rounds: int = 4, jobs: int = 1, use_cache: bool = True,
           cache=None) -> RefineReport:
    """Active-sampling loop: simulate ambiguous + Pareto cells until
    the bands converge or the budget is gone.

    ``budget_fraction`` bounds *total* simulated cells (including the
    initial calibration pass recorded in ``calib``) against the full
    screened grid, honoring the "simulate ≤ a few percent of what you
    screen" contract.  Bad settings raise :class:`ConfigError`
    (:func:`check_refine`).
    """
    check_refine(budget_fraction, tol, max_rounds)
    seen = {s["cell"] for s in calib.samples}
    budget = max(0, int(budget_fraction * result.n_configs) - len(seen))
    report = RefineReport(budget_cells=budget)
    report.band_width_history.append(calib.max_width)
    frontier = set(pareto_cells(result))

    for _ in range(max_rounds):
        if budget <= 0:
            break
        want = [i for i in ambiguous_cells(result, calib)
                if i not in seen]
        want += [i for i in frontier if i not in seen and i not in want]
        if not want:
            report.converged = True
            break
        batch = want[:budget]
        prev_width = calib.max_width
        sims = simulate_cells(result, batch, jobs=jobs,
                              use_cache=use_cache, cache=cache)
        apply_samples(result, calib, sims)
        seen.update(batch)
        budget -= len(batch)
        report.rounds += 1
        report.simulated_cells += len(batch)
        report.band_width_history.append(calib.max_width)
        moved = (prev_width == np.inf
                 or abs(prev_width - calib.max_width) > tol)
        if not moved:
            report.converged = True
            break

    report.sim_fraction = len(seen) / max(1, result.n_configs)
    calib.meta["refined_cells"] = report.simulated_cells
    calib.meta["sim_fraction"] = report.sim_fraction
    return report


__all__ = ["RefineReport", "ambiguous_cells", "check_refine",
           "pareto_cells", "refine", "region_keys"]
