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
from typing import TYPE_CHECKING

from repro.network.worm import WormKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemParameters

#: Bits per flit: a bit-string header's row mask fills
#: ``ceil(height / FLIT_BITS)`` flits.
FLIT_BITS = 8


def header_flit_count(encoding: str, mesh_height: int, ndests: int) -> int:
    """Extra header flits of a multidestination worm beyond the unicast
    routing flit.

    * ``bitstring``: fixed — the row mask (``ceil(height / FLIT_BITS)``
      flits) regardless of how many destinations are covered;
    * ``list``: one flit per destination beyond the first (stripped at
      each intermediate destination).
    """
    if ndests < 1:
        raise ValueError("need at least one destination")
    if encoding == "bitstring":
        return max(1, math.ceil(mesh_height / FLIT_BITS))
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
