"""Synthetic invalidation patterns for the microbenchmark sweeps.

An :class:`InvalidationPattern` is one (home, sharer-set) instance — the
input to a single invalidation transaction.  Generators produce streams
of patterns with a controlled degree of sharing ``d`` and spatial
structure:

* ``uniform`` — sharers drawn uniformly from the mesh (the default
  assumption of the paper's Sec. 2.3.3 estimate);
* ``row-clustered`` / ``column-clustered`` — sharers concentrated in few
  rows/columns (stencil- and LU-like applications share this way; column
  clustering favours the column-grouped schemes, row clustering stresses
  them);
* ``hot-spot home`` — many transactions with the same home node, for
  occupancy experiments.

All randomness flows through a seeded :class:`numpy.random.Generator`,
so every experiment is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.network.topology import Mesh2D


@dataclass(frozen=True)
class InvalidationPattern:
    """One transaction's worth of sharing state."""

    home: int
    sharers: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Number of sharers to invalidate."""
        return len(self.sharers)


def _pick_home(mesh: Mesh2D, rng: np.random.Generator,
               home: Optional[int]) -> int:
    return int(rng.integers(mesh.num_nodes)) if home is None else home


def pattern_uniform(mesh: Mesh2D, degree: int,
                    rng: np.random.Generator,
                    home: Optional[int] = None) -> InvalidationPattern:
    """Sharers uniform over the mesh (excluding the home)."""
    if degree > mesh.num_nodes - 1:
        raise ValueError(f"degree {degree} exceeds {mesh.num_nodes - 1}")
    h = _pick_home(mesh, rng, home)
    candidates = np.setdiff1d(np.arange(mesh.num_nodes), [h])
    sharers = rng.choice(candidates, size=degree, replace=False)
    return InvalidationPattern(h, tuple(int(s) for s in sorted(sharers)))


def pattern_column_clustered(mesh: Mesh2D, degree: int,
                             rng: np.random.Generator,
                             columns: int = 2,
                             home: Optional[int] = None) -> InvalidationPattern:
    """Sharers packed into ``columns`` randomly chosen mesh columns."""
    h = _pick_home(mesh, rng, home)
    columns = min(columns, mesh.width)
    cols = rng.choice(mesh.width, size=columns, replace=False)
    candidates = [mesh.node_at(int(c), y)
                  for c in cols for y in range(mesh.height)]
    candidates = [n for n in candidates if n != h]
    if degree > len(candidates):
        raise ValueError(f"degree {degree} exceeds the {len(candidates)} "
                         f"nodes in {columns} columns")
    sharers = rng.choice(candidates, size=degree, replace=False)
    return InvalidationPattern(h, tuple(int(s) for s in sorted(sharers)))


def pattern_row_clustered(mesh: Mesh2D, degree: int,
                          rng: np.random.Generator,
                          rows: int = 2,
                          home: Optional[int] = None) -> InvalidationPattern:
    """Sharers packed into ``rows`` randomly chosen mesh rows."""
    h = _pick_home(mesh, rng, home)
    rows = min(rows, mesh.height)
    picked = rng.choice(mesh.height, size=rows, replace=False)
    candidates = [mesh.node_at(x, int(r))
                  for r in picked for x in range(mesh.width)]
    candidates = [n for n in candidates if n != h]
    if degree > len(candidates):
        raise ValueError(f"degree {degree} exceeds the {len(candidates)} "
                         f"nodes in {rows} rows")
    sharers = rng.choice(candidates, size=degree, replace=False)
    return InvalidationPattern(h, tuple(int(s) for s in sorted(sharers)))


_GENERATORS = {
    "uniform": pattern_uniform,
    "column": pattern_column_clustered,
    "row": pattern_row_clustered,
}

#: The pattern kinds :func:`make_pattern` accepts.
PATTERN_KINDS = tuple(_GENERATORS)


def max_degree(kind: str, mesh: Mesh2D) -> int:
    """The largest degree a ``kind`` pattern can draw on ``mesh``.  A
    clustered pattern reaches it only when the home falls outside its
    two columns (rows); a larger degree can never be drawn."""
    if kind == "column":
        return min(2, mesh.width) * mesh.height
    if kind == "row":
        return min(2, mesh.height) * mesh.width
    return mesh.num_nodes - 1


def make_pattern(kind: str, mesh: Mesh2D, degree: int,
                 rng: np.random.Generator,
                 home: Optional[int] = None) -> InvalidationPattern:
    """Dispatch by pattern kind: ``uniform`` / ``column`` / ``row``."""
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown pattern kind {kind!r}; "
                         f"choose from {sorted(_GENERATORS)}") from None
    return gen(mesh, degree, rng, home=home)


def sweep_degrees(mesh: Mesh2D, degrees: Sequence[int], per_degree: int,
                  seed: int = 0, kind: str = "uniform",
                  home: Optional[int] = None) -> Iterator[tuple[int, InvalidationPattern]]:
    """Yield ``(degree, pattern)`` pairs: ``per_degree`` random patterns
    for each requested degree of sharing, reproducibly seeded."""
    rng = np.random.default_rng(seed)
    for degree in degrees:
        for _ in range(per_degree):
            yield degree, make_pattern(kind, mesh, degree, rng, home=home)
