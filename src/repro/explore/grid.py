"""Design-space screening grids for the vectorized analytical model.

A :class:`ScreenGrid` names the axes of a parameter sweep — mesh
shapes, sharing degrees, grouping schemes, plus any
:class:`~repro.config.SystemParameters` fields — and :func:`screen`
evaluates the whole cross product through
:mod:`repro.explore.vectorized`, millions of cells per minute.

Two exactness guarantees (tested in ``tests/test_explore.py``):

* Cells use the same seeded pattern streams as
  :func:`repro.analysis.experiments.run_analytical_sweep` with a
  single-degree ``degrees=(d,)`` call, and the same Welford mean
  aggregation, so a screen row equals the scalar sweep row *exactly* —
  and a calibration pass can later simulate any individual cell with
  :func:`~repro.analysis.experiments.run_invalidation_sweep` while
  sharing the content-addressed result cache with every other consumer.

* Axes that the contention-free analytical model provably ignores
  (consumption channels, buffer depths, …; see
  :data:`~repro.explore.vectorized.ANALYTICAL_FIELDS`) are evaluated
  once and *broadcast* across their values — the result arrays still
  cover every grid cell, only the arithmetic is deduplicated.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.experiments import check_sweep
from repro.config import ConfigError, SystemParameters, paper_parameters
from repro.explore.vectorized import (ANALYTICAL_FIELDS, ParamVector,
                                      PlanBatch, compiled_plan,
                                      evaluate_batch, welford_means)
from repro.network.topology import Mesh2D
from repro.workloads.patterns import draw_patterns, max_degree

#: SystemParameters fields a grid may sweep or fix (all but the mesh
#: shape, which is the ``meshes`` axis).
_AXIS_FIELDS = frozenset(f.name for f in fields(SystemParameters)) - {
    "mesh_width", "mesh_height"}

#: Default grouping schemes for screening: the paper's contenders.
DEFAULT_SCHEMES = ("ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec",
                   "mi-ma-ec", "mi-ma-tm", "sci-chain")


@dataclass(frozen=True)
class ScreenGrid:
    """Axes of a screening sweep (a pure value: hashable, totally
    determined by its fields, safe to put in cache keys)."""

    meshes: tuple[tuple[int, int], ...] = ((4, 4), (8, 8))
    degrees: tuple[int, ...] = (1, 2, 4, 8)
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    kind: str = "uniform"
    per_degree: int = 3
    seed: int = 0
    #: extra SystemParameters axes: name -> tuple of values.
    axes: tuple[tuple[str, tuple], ...] = ()

    @classmethod
    def make(cls, *, axes: Optional[Mapping[str, Sequence]] = None,
             **kw) -> "ScreenGrid":
        """Build a grid from an axis mapping (the dataclass itself
        stores sorted item tuples so grids stay hashable)."""
        return cls(axes=tuple(sorted((k, tuple(v))
                                     for k, v in (axes or {}).items())),
                   **kw)

    def __post_init__(self) -> None:
        check_sweep(self.schemes, kind=self.kind, per_degree=self.per_degree,
                    seed=self.seed)
        for name, _ in self.axes:
            if name not in _AXIS_FIELDS:
                raise ConfigError(f"unknown axis {name!r}; choose from "
                                  f"{sorted(_AXIS_FIELDS)}")
        for name, values in self.axes:
            if not values:
                raise ConfigError(f"axis {name!r} has no values")
        for w, h in self.meshes:
            if not self.valid_degrees(w, h):
                raise ConfigError(
                    f"no requested degree fits the {w}x{h} mesh: {self.kind} "
                    f"sharers there have max_degree "
                    f"{max_degree(self.kind, Mesh2D(w, h))}")

    # -- axis partitioning ---------------------------------------------
    @property
    def analytical_axes(self) -> list[tuple[str, tuple]]:
        """Axes the analytical model reads (need re-evaluation)."""
        return [(k, v) for k, v in self.axes if k in ANALYTICAL_FIELDS]

    @property
    def broadcast_axes(self) -> list[tuple[str, tuple]]:
        """Axes the model ignores (results broadcast across values)."""
        return [(k, v) for k, v in self.axes if k not in ANALYTICAL_FIELDS]

    @property
    def broadcast_multiplier(self) -> int:
        mult = 1
        for _, values in self.broadcast_axes:
            mult *= len(values)
        return mult

    def valid_degrees(self, width: int, height: int) -> list[int]:
        """Degrees a ``kind`` pattern can draw on a mesh
        (:func:`~repro.workloads.patterns.max_degree`)."""
        limit = max_degree(self.kind, Mesh2D(width, height))
        return [d for d in self.degrees if 1 <= d <= limit]

    def combos(self, axes: Sequence[tuple[str, tuple]]
               ) -> list[dict[str, Any]]:
        names = [k for k, _ in axes]
        return [dict(zip(names, values))
                for values in itertools.product(*(v for _, v in axes))]

    @property
    def n_configs(self) -> int:
        """Total grid cells, counting broadcast axes at full width."""
        cells = 0
        acount = len(self.combos(self.analytical_axes))
        for w, h in self.meshes:
            cells += (len(self.valid_degrees(w, h)) * len(self.schemes)
                      * acount)
        return cells * self.broadcast_multiplier

    def params_for(self, width: int, height: int,
                   **overrides: Any) -> SystemParameters:
        return paper_parameters(width, height, **overrides)


@dataclass
class ScreenResult:
    """Columnar screening results: one entry per *analytical* cell
    (mesh x degree x scheme x analytical-axis combo); broadcast axes
    replicate entries in :meth:`rows` without extra storage."""

    grid: ScreenGrid
    #: analytical-axis combos, indexed by ``acombo`` below.
    acombos: list[dict[str, Any]]
    mesh_w: np.ndarray
    mesh_h: np.ndarray
    scheme: np.ndarray       #: index into grid.schemes
    degree: np.ndarray
    acombo: np.ndarray       #: index into acombos
    latency: np.ndarray      #: Welford mean over per_degree patterns
    messages: np.ndarray
    traffic: np.ndarray
    stats: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.latency)

    @property
    def n_configs(self) -> int:
        return len(self) * self.grid.broadcast_multiplier

    def rows(self) -> Iterator[dict[str, Any]]:
        """Expand to one dict per grid cell (broadcast axes included)."""
        bcombos = self.grid.combos(self.grid.broadcast_axes)
        for i in range(len(self)):
            core = {
                "mesh": (int(self.mesh_w[i]), int(self.mesh_h[i])),
                "scheme": self.grid.schemes[self.scheme[i]],
                "degree": int(self.degree[i]),
                "latency": float(self.latency[i]),
                "messages": float(self.messages[i]),
                "flit_hops": float(self.traffic[i]),
                **self.acombos[self.acombo[i]],
            }
            for bc in bcombos:
                yield {**core, **bc}


def screen(grid: ScreenGrid) -> ScreenResult:
    """Evaluate every analytical cell of ``grid``; see module doc for
    the exactness and broadcast guarantees."""
    t_start = time.perf_counter()
    acombos = grid.combos(grid.analytical_axes)
    cols: dict[str, list] = {k: [] for k in
                             ("w", "h", "s", "d", "a")}
    lat_parts: list[np.ndarray] = []
    msg_parts: list[np.ndarray] = []
    tfc_parts: list[np.ndarray] = []
    compile_s = eval_s = 0.0

    for w, h in grid.meshes:
        degrees = grid.valid_degrees(w, h)
        # One single-degree draw per degree, so screen cells coincide
        # with single-degree scalar sweep calls (and their simulator
        # cache keys).
        mesh = Mesh2D(w, h)
        patterns = {d: draw_patterns(mesh, (d,), grid.per_degree,
                                     grid.kind, grid.seed)[d]
                    for d in degrees}

        t0 = time.perf_counter()
        compiled = [
            compiled_plan(scheme, w, h, pat.home, tuple(pat.sharers))
            for scheme in grid.schemes
            for d in degrees
            for pat in patterns[d]]
        batch = PlanBatch(compiled)
        compile_s += time.perf_counter() - t0

        n_cells = len(grid.schemes) * len(degrees)
        msg_cells = welford_means(
            batch.messages.reshape(n_cells, grid.per_degree))
        t0 = time.perf_counter()
        for ai, combo in enumerate(acombos):
            pv = ParamVector.of(grid.params_for(w, h, **combo))
            lat, tfc = evaluate_batch(batch, pv)
            lat_parts.append(welford_means(
                lat.reshape(n_cells, grid.per_degree)))
            tfc_parts.append(welford_means(
                tfc.reshape(n_cells, grid.per_degree)))
            msg_parts.append(msg_cells)
            for si in range(len(grid.schemes)):
                for d in degrees:
                    cols["w"].append(w)
                    cols["h"].append(h)
                    cols["s"].append(si)
                    cols["d"].append(d)
                    cols["a"].append(ai)
        eval_s += time.perf_counter() - t0

    result = ScreenResult(
        grid=grid,
        acombos=acombos,
        mesh_w=np.array(cols["w"], dtype=np.int64),
        mesh_h=np.array(cols["h"], dtype=np.int64),
        scheme=np.array(cols["s"], dtype=np.int64),
        degree=np.array(cols["d"], dtype=np.int64),
        acombo=np.array(cols["a"], dtype=np.int64),
        latency=(np.concatenate(lat_parts) if lat_parts
                 else np.zeros(0)),
        messages=(np.concatenate(msg_parts) if msg_parts
                  else np.zeros(0)),
        traffic=(np.concatenate(tfc_parts) if tfc_parts
                 else np.zeros(0)),
    )
    elapsed = time.perf_counter() - t_start
    result.stats = {
        "elapsed_s": elapsed,
        "compile_s": compile_s,
        "eval_s": eval_s,
        "n_configs": result.n_configs,
        "configs_per_s": result.n_configs / elapsed if elapsed else 0.0,
    }
    return result


__all__ = ["DEFAULT_SCHEMES", "ScreenGrid", "ScreenResult", "screen"]
