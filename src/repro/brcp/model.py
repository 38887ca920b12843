"""BRCP validity: is a destination order realizable under a base routing?

A multidestination worm visits destinations ``d1, d2, ...`` in order; the
router at each hop routes toward the worm's *current* next destination
using the base routing.  The worm's whole walk is therefore a
concatenation of minimal legs, and it is *conformant* iff some choice of
per-leg hop interleaving makes every turn legal for the base routing.

Minimal legs in a 2-D mesh only need two canonical hop orders (X-then-Y
and Y-then-X: any legal interleaving is legal in one of the canonical
orders too, because the turn rules of e-cube and the turn model only
constrain direction *pairs*).  We check all combinations by dynamic
programming over the direction the worm is travelling at each leg
boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.network.routing import Routing
from repro.network.topology import OPPOSITE, Mesh2D, Port


def _leg_orders(mesh, a: int, b: int) -> list[list[tuple[Port, int]]]:
    """Canonical hop orders of a minimal leg from ``a`` to ``b``:
    each order is a list of ``(direction, count)`` segments."""
    ax, ay = mesh.coords(a)
    bx, by = mesh.coords(b)
    if bx > ax:
        xseg = (Port.EAST, bx - ax)
    elif bx < ax:
        xseg = (Port.WEST, ax - bx)
    else:
        xseg = None
    if by > ay:
        yseg = (Port.NORTH, by - ay)
    elif by < ay:
        yseg = (Port.SOUTH, ay - by)
    else:
        yseg = None
    if xseg and yseg:
        return [[xseg, yseg], [yseg, xseg]]
    if xseg:
        return [[xseg]]
    if yseg:
        return [[yseg]]
    return [[]]


def _segments_ok(routing: Routing, entering: Optional[Port],
                 segments: Sequence[tuple[Port, int]]) -> Optional[Port]:
    """Check one leg's segment list starting while travelling ``entering``
    (None at the source).  Returns the direction travelled at the end, or
    None... (failure is signalled by raising StopIteration-like sentinel).
    """
    direction = entering
    for seg_dir, _count in segments:
        incoming = OPPOSITE[direction] if direction is not None else None
        if not routing.turn_allowed(incoming, seg_dir):
            return None
        direction = seg_dir
    return direction if direction is not None else entering


def is_conformant_path(routing: Routing, src: int,
                       dests: Sequence[int]) -> bool:
    """True iff a worm from ``src`` visiting ``dests`` in order can follow
    the base routing at every hop (BRCP validity)."""
    mesh = routing.mesh
    nodes = [src] + list(dests)
    # DP over the travelling direction at each leg boundary.
    states: set[Optional[Port]] = {None}
    for a, b in zip(nodes, nodes[1:]):
        if a == b:
            return False  # repeated node is not a leg
        next_states: set[Optional[Port]] = set()
        for entering in states:
            for order in _leg_orders(mesh, a, b):
                if not order:
                    continue
                out = _segments_ok(routing, entering, order)
                if out is not None:
                    next_states.add(out)
        if not next_states:
            return False
        states = next_states
    return True


def conformant_walk(routing: Routing, src: int,
                    dests: Sequence[int]) -> Optional[list[int]]:
    """A concrete hop-by-hop node walk realizing the path, or None.

    Greedy reconstruction over the same DP; used by tests and by the
    analytical model to count path lengths.
    """
    mesh = routing.mesh
    nodes = [src] + list(dests)

    def expand(a: int, segments) -> list[int]:
        walk = []
        x, y = mesh.coords(a)
        for seg_dir, count in segments:
            for _ in range(count):
                if seg_dir is Port.EAST:
                    x += 1
                elif seg_dir is Port.WEST:
                    x -= 1
                elif seg_dir is Port.NORTH:
                    y += 1
                else:
                    y -= 1
                walk.append(mesh.node_at(x, y))
        return walk

    # Depth-first search with memo on (leg index, entering direction).
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def solve(leg: int, entering: Optional[Port]) -> Optional[tuple]:
        if leg == len(nodes) - 1:
            return ()
        a, b = nodes[leg], nodes[leg + 1]
        if a == b:
            return None
        for order in _leg_orders(mesh, a, b):
            if not order:
                continue
            out = _segments_ok(routing, entering, order)
            if out is None:
                continue
            rest = solve(leg + 1, out)
            if rest is not None:
                return (tuple(order),) + rest
        return None

    plan = solve(0, None)
    if plan is None:
        return None
    walk = [src]
    for leg, segments in enumerate(plan):
        walk.extend(expand(nodes[leg], segments))
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
