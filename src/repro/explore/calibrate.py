"""Calibration of the analytical surrogate against the simulator.

The screening engine trusts the closed-form model only inside
empirical *error bands*: per scheme, the observed range of
``simulated / analytical`` latency ratios over a seeded, stratified
sample of screened cells.  Samples run through the real simulator via
:func:`repro.runner.run_jobs` — same worker pool, same
content-addressed result cache, and byte-identical job keys to
:func:`repro.analysis.experiments.run_invalidation_sweep` single-degree
calls, so calibration simulations are shared with every other consumer
of the cache (and vice versa).

Message and flit-hop counts are exact in the model (the simulator must
agree to the flit); only latency needs a band.  Any disagreement on
counts raises, as it indicates a bug rather than contention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.analysis.experiments import scheme_job
from repro.config import ConfigError
from repro.runner import resolve_execution, run_jobs

from repro.explore.grid import ScreenResult


@dataclass
class SchemeBand:
    """Multiplicative latency error band of one scheme:
    ``sim_latency ∈ [lo * analytical, hi * analytical]`` over the
    calibration sample."""

    scheme: str
    lo: float = math.inf
    hi: float = -math.inf
    center: float = 1.0
    n: int = 0
    _sum: float = 0.0

    def add(self, ratio: float) -> None:
        self.n += 1
        self._sum += ratio
        self.lo = min(self.lo, ratio)
        self.hi = max(self.hi, ratio)
        self.center = self._sum / self.n

    @property
    def width(self) -> float:
        return (self.hi - self.lo) if self.n else math.inf

    def interval(self, analytical: float) -> tuple[float, float]:
        """Calibrated latency interval for an analytical estimate; an
        uncalibrated scheme gets an unbounded interval (never trusted
        until sampled)."""
        if not self.n:
            return (0.0, math.inf)
        return (analytical * self.lo, analytical * self.hi)

    def to_dict(self) -> dict[str, Any]:
        return {"scheme": self.scheme, "lo": self.lo, "hi": self.hi,
                "center": self.center, "n": self.n}


@dataclass
class Calibration:
    """Per-scheme bands plus the sample ledger (which cells were
    simulated, and how far the model was off on each)."""

    bands: dict[str, SchemeBand] = field(default_factory=dict)
    samples: list[dict[str, Any]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def band(self, scheme: str) -> SchemeBand:
        if scheme not in self.bands:
            self.bands[scheme] = SchemeBand(scheme=scheme)
        return self.bands[scheme]

    @property
    def max_width(self) -> float:
        finite = [b.width for b in self.bands.values() if b.n]
        return max(finite) if finite else math.inf

    def to_dict(self) -> dict[str, Any]:
        return {"bands": {s: b.to_dict() for s, b in self.bands.items()},
                "samples": self.samples, "meta": self.meta}


def stratified_sample(result: ScreenResult, per_scheme: int,
                      seed: int) -> list[int]:
    """Pick calibration cells: per scheme, an even spread over the
    (mesh area, degree) range with seeded jitter — small and large
    meshes, light and heavy sharing all represented."""
    rng = np.random.default_rng(seed)
    picks: list[int] = []
    for si in range(len(result.grid.schemes)):
        idx = np.flatnonzero(result.scheme == si)
        if not len(idx):
            continue
        order = idx[np.lexsort((result.degree[idx],
                                result.mesh_w[idx] * result.mesh_h[idx]))]
        k = min(per_scheme, len(order))
        strata = np.array_split(order, k)
        picks.extend(int(s[rng.integers(len(s))])
                     for s in strata if len(s))
    return sorted(set(picks))


def simulate_cells(result: ScreenResult, cells: Sequence[int],
                   jobs: int = 1, use_cache: bool = True,
                   cache=None) -> list[dict[str, Any]]:
    """Run the simulator for screened cells (one pooled ``run_jobs``
    batch of :func:`~repro.analysis.experiments.scheme_job` jobs, so
    results land in — and replay from — the cache entries of
    single-degree ``run_invalidation_sweep`` calls)."""
    grid = result.grid
    bcombos = grid.combos(grid.broadcast_axes)
    bfirst = bcombos[0] if bcombos else {}
    job_list = []
    for i in cells:
        w, h = int(result.mesh_w[i]), int(result.mesh_h[i])
        scheme = grid.schemes[result.scheme[i]]
        d = int(result.degree[i])
        combo = {**result.acombos[result.acombo[i]], **bfirst}
        params = grid.params_for(w, h, **combo)
        job_list.append(scheme_job(
            scheme, (d,), grid.per_degree, params, grid.kind, grid.seed,
            label=f"calib:{scheme}:{w}x{h}:d{d}"))
    if not job_list:
        return []
    workers, cache = resolve_execution(jobs, use_cache, cache)
    results = run_jobs(job_list, workers=workers, cache=cache)
    out = []
    for i, rows in zip(cells, results):
        row = rows[0]
        out.append({"cell": int(i), "sim_latency": row["latency"],
                    "sim_messages": row["messages"],
                    "sim_flit_hops": row["flit_hops"]})
    return out


def apply_samples(result: ScreenResult, calib: Calibration,
                  sims: Sequence[dict[str, Any]]) -> None:
    """Fold simulated cells into the calibration bands.  Counts must
    match the model exactly; latency feeds the per-scheme ratio band."""
    for sim in sims:
        i = sim["cell"]
        scheme = result.grid.schemes[result.scheme[i]]
        analytic = float(result.latency[i])
        if sim["sim_messages"] != float(result.messages[i]):
            raise AssertionError(
                f"message-count disagreement on cell {i} ({scheme}): "
                f"sim {sim['sim_messages']} vs model "
                f"{result.messages[i]}")
        if sim["sim_flit_hops"] != float(result.traffic[i]):
            raise AssertionError(
                f"flit-hop disagreement on cell {i} ({scheme}): "
                f"sim {sim['sim_flit_hops']} vs model "
                f"{result.traffic[i]}")
        if analytic <= 0:
            continue
        ratio = sim["sim_latency"] / analytic
        calib.band(scheme).add(ratio)
        calib.samples.append({
            "cell": int(i), "scheme": scheme,
            "mesh": [int(result.mesh_w[i]), int(result.mesh_h[i])],
            "degree": int(result.degree[i]),
            "analytical": analytic,
            "simulated": sim["sim_latency"],
            "ratio": ratio,
        })


def calibrate(result: ScreenResult, per_scheme: int = 4, seed: int = 0,
              jobs: int = 1, use_cache: bool = True,
              cache=None) -> Calibration:
    """Fit per-scheme error bands from a stratified simulated sample."""
    if per_scheme < 1:
        raise ConfigError(f"per_scheme must be >= 1, got {per_scheme}")
    calib = Calibration(meta={
        "per_scheme": per_scheme, "seed": seed,
        "grid_configs": result.n_configs,
    })
    cells = stratified_sample(result, per_scheme, seed)
    sims = simulate_cells(result, cells, jobs=jobs,
                          use_cache=use_cache, cache=cache)
    apply_samples(result, calib, sims)
    calib.meta["simulated_cells"] = len(calib.samples)
    return calib


__all__ = ["Calibration", "SchemeBand", "apply_samples", "calibrate",
           "simulate_cells", "stratified_sample"]
