"""BRCP validity: is a destination order realizable under a base routing?

A multidestination worm visits destinations ``d1, d2, ...`` in order; the
router at each hop routes toward the worm's *current* next destination
using the base routing.  The worm's whole walk is therefore a
concatenation of minimal legs, and it is *conformant* iff some choice of
per-leg hop interleaving makes every turn legal for the base routing.

Minimal legs in a 2-D mesh only need two canonical hop orders (X-then-Y
and Y-then-X: any legal interleaving is legal in one of the canonical
orders too, because the turn rules of e-cube and the turn model only
constrain direction *pairs*).  One memoized search over the port the
worm entered by at each leg boundary answers both the validity check
and the concrete walk.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.network.routing import Routing
from repro.network.topology import OPPOSITE, PORT_DELTA, Mesh2D, Port


def _leg_orders(mesh: Mesh2D, a: int,
                b: int) -> list[list[tuple[Port, int]]]:
    """Canonical hop orders of a minimal leg from ``a`` to ``b``:
    each order is a list of ``(direction, count)`` segments."""
    segments = [seg for seg in mesh.productive(a, b) if seg[0] is not None]
    if len(segments) == 2:
        return [segments, segments[::-1]]
    return [segments]


def _segments_ok(routing: Routing, incoming: Optional[Port],
                 segments: Sequence[tuple[Port, int]]) -> Optional[Port]:
    """Check one leg's segment list for a worm that entered its first
    router through ``incoming`` (None at the source).  Returns the port
    it enters the leg's last router by, or None when the routing
    forbids one of its turns."""
    for direction, _count in segments:
        if not routing.turn_allowed(incoming, direction):
            return None
        incoming = OPPOSITE[direction]
    return incoming


def _leg_plan(routing: Routing, src: int,
              dests: Sequence[int]) -> Optional[tuple]:
    """The hop order (segment list) of every leg of one conformant
    realization of the path, or None when there is none.

    Depth-first over the legs, trying each leg's canonical orders in
    turn, memoized on (leg index, entering port); the first realization
    found is the one :func:`conformant_walk` expands.
    """
    mesh = routing.mesh
    nodes = [src] + list(dests)

    @lru_cache(maxsize=None)
    def solve(leg: int, incoming: Optional[Port]) -> Optional[tuple]:
        if leg == len(nodes) - 1:
            return ()
        a, b = nodes[leg], nodes[leg + 1]
        if a == b:
            return None  # a repeated node is not a leg
        for order in _leg_orders(mesh, a, b):
            out = _segments_ok(routing, incoming, order)
            if out is None:
                continue
            rest = solve(leg + 1, out)
            if rest is not None:
                return (tuple(order),) + rest
        return None

    return solve(0, None)


def is_conformant_path(routing: Routing, src: int,
                       dests: Sequence[int]) -> bool:
    """True iff a worm from ``src`` visiting ``dests`` in order can follow
    the base routing at every hop (BRCP validity)."""
    return _leg_plan(routing, src, dests) is not None


def conformant_walk(routing: Routing, src: int,
                    dests: Sequence[int]) -> Optional[list[int]]:
    """A concrete hop-by-hop node walk realizing the path, or None.

    Used by tests, the fault map and the worm plots.
    """
    plan = _leg_plan(routing, src, dests)
    if plan is None:
        return None
    mesh = routing.mesh
    nodes = [src] + list(dests)
    walk = [src]
    for leg, segments in enumerate(plan):
        x, y = mesh.coords(nodes[leg])
        for seg_dir, count in segments:
            dx, dy = PORT_DELTA[seg_dir]
            for _ in range(count):
                x, y = x + dx, y + dy
                walk.append(mesh.node_at(x, y))
        assert walk[-1] == nodes[leg + 1]
    return walk


def leg_hops(mesh: Mesh2D, src: int, dests: Sequence[int]) -> list[int]:
    """Cumulative hop counts from ``src`` to each destination along the
    multidestination path (legs are minimal)."""
    out = []
    total = 0
    prev = src
    for d in dests:
        total += mesh.manhattan(prev, d)
        out.append(total)
        prev = d
    return out


def path_length(mesh: Mesh2D, src: int, dests: Sequence[int]) -> int:
    """Total hop count of the multidestination path (legs are minimal)."""
    hops = leg_hops(mesh, src, dests)
    return hops[-1] if hops else 0
