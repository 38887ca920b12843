"""Base-Routing-Conformed-Path (BRCP) model [39].

A multidestination worm may cover a set of destinations with a single
message only if the concatenation of its legs is a path the underlying
base routing could itself take — i.e. every turn the worm makes is a turn
the base routing permits.  This package provides:

* :func:`~repro.brcp.model.is_conformant_path` — validity check of a
  destination order under a given base routing (exact, by a
  memoized search over per-leg hop orders);
* :mod:`repro.brcp.paths` — constructors for the conformant path shapes
  the paper's grouping schemes use: e-cube row/column paths and
  west-first staircases;
* :mod:`repro.brcp.encoding` — multidestination header encodings
  (bit-string presence-bit headers vs. destination lists).
"""

from repro.brcp.encoding import header_flit_count
from repro.brcp.model import conformant_walk, is_conformant_path
from repro.brcp.paths import (column_path_sides, staircase_paths)

__all__ = [
    "column_path_sides",
    "conformant_walk",
    "header_flit_count",
    "is_conformant_path",
    "staircase_paths",
]
