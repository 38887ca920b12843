"""Synthetic invalidation patterns for the microbenchmark sweeps.

An :class:`InvalidationPattern` is one (home, sharer-set) instance — the
input to a single invalidation transaction.  Generators produce streams
of patterns with a controlled degree of sharing ``d`` and spatial
structure:

* ``uniform`` — sharers drawn uniformly from the mesh (the default
  assumption of the paper's Sec. 2.3.3 estimate);
* ``row-clustered`` / ``column-clustered`` — sharers concentrated in
  :data:`CLUSTER_LINES` rows/columns (stencil- and LU-like applications
  share this way; column clustering favours the column-grouped schemes,
  row clustering stresses them);
* ``hot-spot home`` — many transactions with the same home node, for
  occupancy experiments.

All randomness flows through a seeded :class:`numpy.random.Generator`,
so every experiment is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.network.topology import Mesh2D

#: Mesh lines (columns or rows) a clustered pattern packs its sharers
#: into.
CLUSTER_LINES = 2


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


def _clustered(mesh: Mesh2D, degree: int, rng: np.random.Generator,
               home: Optional[int], axis: int) -> InvalidationPattern:
    """Sharers packed into :data:`CLUSTER_LINES` random columns
    (``axis`` 0) or rows (``axis`` 1).

    When the picked lines cannot hold ``degree`` sharers besides the
    home (the home lies in one of them), the draw is repeated so that it
    does not: a drawn home is redrawn among the nodes outside the lines;
    a given home keeps its place and the lines are redrawn among those
    that do not hold it.  Only that case draws from ``rng`` again.
    """
    span, length = ((mesh.width, mesh.height) if axis == 0
                    else (mesh.height, mesh.width))

    def members(lines) -> list[int]:
        return [mesh.node_at(int(line), i) if axis == 0
                else mesh.node_at(i, int(line))
                for line in lines for i in range(length)]

    h = _pick_home(mesh, rng, home)
    count = min(CLUSTER_LINES, span)
    lines = rng.choice(span, size=count, replace=False)
    candidates = [n for n in members(lines) if n != h]
    if len(candidates) < degree <= count * length and count < span:
        if home is None:
            inside = set(members(lines))
            h = int(rng.choice([n for n in mesh.nodes() if n not in inside]))
        else:
            lines = rng.choice([line for line in range(span)
                                if line != mesh.coords(h)[axis]],
                               size=count, replace=False)
        candidates = [n for n in members(lines) if n != h]
    if degree > len(candidates):
        raise ValueError(f"degree {degree} exceeds the {len(candidates)} "
                         f"nodes in {count} {('columns', 'rows')[axis]}")
    sharers = rng.choice(candidates, size=degree, replace=False)
    return InvalidationPattern(h, tuple(int(s) for s in sorted(sharers)))


def pattern_column_clustered(mesh: Mesh2D, degree: int,
                             rng: np.random.Generator,
                             home: Optional[int] = None) -> InvalidationPattern:
    """Sharers packed into :data:`CLUSTER_LINES` random mesh columns."""
    return _clustered(mesh, degree, rng, home, axis=0)


def pattern_row_clustered(mesh: Mesh2D, degree: int,
                          rng: np.random.Generator,
                          home: Optional[int] = None) -> InvalidationPattern:
    """Sharers packed into :data:`CLUSTER_LINES` random mesh rows."""
    return _clustered(mesh, degree, rng, home, axis=1)


_GENERATORS = {
    "uniform": pattern_uniform,
    "column": pattern_column_clustered,
    "row": pattern_row_clustered,
}

#: The pattern kinds :func:`make_pattern` accepts.
PATTERN_KINDS = tuple(_GENERATORS)


def max_degree(kind: str, mesh: Mesh2D) -> int:
    """The largest degree a ``kind`` pattern can draw on ``mesh``: every
    node but the home, and for a clustered pattern at most every node of
    its :data:`CLUSTER_LINES` columns (rows)."""
    if kind == "column":
        limit = min(CLUSTER_LINES, mesh.width) * mesh.height
    elif kind == "row":
        limit = min(CLUSTER_LINES, mesh.height) * mesh.width
    else:
        limit = mesh.num_nodes
    return min(limit, mesh.num_nodes - 1)


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


def draw_patterns(mesh: Mesh2D, degrees: Sequence[int], per_degree: int,
                  kind: str = "uniform", seed: int = 0,
                  home: Optional[int] = None
                  ) -> dict[int, list[InvalidationPattern]]:
    """The shared pattern stream of every invalidation sweep:
    ``per_degree`` ``kind`` patterns per degree of sharing, drawn degree
    by degree from one generator seeded with ``seed``.  It is a pure
    function of its arguments, so every scheme's job, in any process,
    sees the same sharer sets and the comparison is paired."""
    rng = np.random.default_rng(seed)
    return {d: [make_pattern(kind, mesh, d, rng, home=home)
                for _ in range(per_degree)]
            for d in degrees}
