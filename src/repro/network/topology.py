"""2-D mesh topology: node ids, coordinates, ports, and distances.

Nodes are numbered row-major: node ``y * width + x`` sits at coordinate
``(x, y)`` with ``x`` growing eastward and ``y`` growing northward.  Each
router has four mesh ports (N, S, E, W) plus the local port to its node.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterator, Optional

from repro.config import ConfigError


class Port(IntEnum):
    """Router port indices.  LOCAL is the processor-side port."""

    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3
    LOCAL = 4


#: The four mesh directions (excludes LOCAL).
MESH_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)

#: Port on the neighbouring router that a given output port feeds.
OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}

#: Coordinate delta of one hop through each mesh port.
PORT_DELTA = {
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
}


class Mesh2D:
    """Geometry helper for a ``width x height`` mesh.  Bad dimensions
    and off-mesh coordinates raise :class:`~repro.config.ConfigError`
    (they come from the user: ``repro worms --mesh 2 --home 4,3``)."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ConfigError("mesh dimensions must be >= 1")
        self.width = width
        self.height = height
        self.num_nodes = width * height

    # ------------------------------------------------------------------
    # Id <-> coordinate mapping
    # ------------------------------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        """``(x, y)`` of ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside mesh of {self.num_nodes}")
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Node id at ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigError(f"({x}, {y}) outside {self.width}x"
                              f"{self.height} mesh")
        return y * self.width + x

    def contains(self, x: int, y: int) -> bool:
        """True iff ``(x, y)`` is inside the mesh."""
        return 0 <= x < self.width and 0 <= y < self.height

    def nodes(self) -> Iterator[int]:
        """All node ids in row-major order."""
        return iter(range(self.num_nodes))

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbor(self, node: int, port: Port) -> Optional[int]:
        """Node one hop through ``port``, or None at the mesh edge."""
        x, y = self.coords(node)
        dx, dy = PORT_DELTA[port]
        nx, ny = x + dx, y + dy
        return self.node_at(nx, ny) if self.contains(nx, ny) else None

    def productive(self, src: int, dst: int
                   ) -> tuple[tuple[Optional[Port], int],
                              tuple[Optional[Port], int]]:
        """The X and the Y leg of a minimal route from ``src`` to
        ``dst``, each ``(port, hops)``: the port that shortens the
        distance along that axis, or ``(None, 0)`` once the axis is
        resolved.  ``Port.NORTH`` is 0, so test a port ``is not None``.
        Every routing scheme and BRCP path builds on this one rule."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        # Locals: an enum member lookup on the class costs more than the
        # comparisons (candidate sets are built on every routing-memo miss).
        north, south, east, west = MESH_PORTS
        return ((east if dx > sx else west if dx < sx else None,
                 abs(dx - sx)),
                (north if dy > sy else south if dy < sy else None,
                 abs(dy - sy)))

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def manhattan(self, a: int, b: int) -> int:
        """Hop count of a minimal route between ``a`` and ``b``."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def average_distance(self) -> float:
        """Mean Manhattan distance between distinct node pairs.

        Closed form for a ``w x h`` mesh: ``(w^2-1)/(3w) + (h^2-1)/(3h)``
        scaled to distinct ordered pairs; computed exactly here.
        """
        if self.num_nodes == 1:
            return 0.0
        w, h = self.width, self.height
        # Sum over ordered pairs of |ax-bx| along one axis of length n is
        # n_other^2 * sum_{i,j} |i-j| = n_other^2 * (n^3 - n) / 3.
        sx = h * h * (w ** 3 - w) / 3.0
        sy = w * w * (h ** 3 - h) / 3.0
        pairs = self.num_nodes * (self.num_nodes - 1)
        return (sx + sy) / pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mesh2D {self.width}x{self.height}>"
