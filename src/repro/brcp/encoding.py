"""Multidestination header encodings.

The paper (following [37, 38]) organizes directory presence bits
column-wise so that slices of the pointer array can be dropped directly
into i-reserve worm headers as *bit-string* destination masks: one bit per
row of the covered column, plus the column coordinate.  With byte-wide
flits a k-row column mask occupies ``ceil(k / 8)`` flits, plus one flit of
path metadata — fixed-size headers that are not stripped en route.

The alternative *list* encoding [27, 40] carries one header flit per
destination and strips the leading flit at each intermediate destination.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.network.topology import Mesh2D
from repro.network.worm import WormKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemParameters


def bitstring_header(mesh: Mesh2D, nodes: Sequence[int]) -> tuple[int, int]:
    """Encode a set of same-column destinations as ``(column, row_mask)``.

    ``row_mask`` has bit ``y`` set for each destination ``(column, y)``.
    Raises if the nodes span several columns (bit-string worms are
    column-oriented, mirroring the presence-bit organization).
    """
    if not nodes:
        raise ValueError("empty destination set")
    columns = {mesh.coords(n)[0] for n in nodes}
    if len(columns) != 1:
        raise ValueError(f"bit-string header spans columns {sorted(columns)}")
    column = columns.pop()
    mask = 0
    for n in nodes:
        mask |= 1 << mesh.coords(n)[1]
    return column, mask


def decode_bitstring(mesh: Mesh2D, column: int, row_mask: int) -> list[int]:
    """Inverse of :func:`bitstring_header`, rows in ascending order."""
    nodes = []
    y = 0
    mask = row_mask
    while mask:
        if mask & 1:
            nodes.append(mesh.node_at(column, y))
        mask >>= 1
        y += 1
    return nodes


def header_flit_count(encoding: str, mesh_height: int, ndests: int,
                      flit_bits: int = 8) -> int:
    """Extra header flits of a multidestination worm beyond the unicast
    routing flit.

    * ``bitstring``: fixed — the row mask (``ceil(height / flit_bits)``
      flits) regardless of how many destinations are covered;
    * ``list``: one flit per destination beyond the first (stripped at
      each intermediate destination).
    """
    if ndests < 1:
        raise ValueError("need at least one destination")
    if encoding == "bitstring":
        return max(1, math.ceil(mesh_height / flit_bits))
    if encoding == "list":
        return max(0, ndests - 1)
    raise ValueError(f"unknown encoding {encoding!r}")


def worm_flits(params: "SystemParameters", kind: WormKind,
               ndests: int) -> int:
    """Flits of an invalidation-transaction worm — the one sizing rule
    of the engine and the analytical model.

    A unicast is ``control_message_flits``.  Any other kind carries the
    routing header, :func:`header_flit_count` extra header flits when it
    has more than one destination, and its payload:
    ``gather_payload_flits`` for an i-gather, ``control_flits``
    otherwise.
    """
    if kind is WormKind.UNICAST:
        return params.control_message_flits
    payload = (params.gather_payload_flits if kind is WormKind.IGATHER
               else params.control_flits)
    extra = header_flit_count(params.multidest_encoding, params.mesh_height,
                              ndests) if ndests > 1 else 0
    return params.header_flits + extra + payload
