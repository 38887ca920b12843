"""Workloads: synthetic invalidation patterns and application trace
generators (paper Sec. 6 / Table 6).

* :mod:`repro.workloads.patterns` — parameterized synthetic sharing
  patterns (uniform, row-/column-clustered, hot-spot) for the
  degree-of-sharing sweeps;
* :mod:`repro.workloads.barnes_hut` — 2-D Barnes-Hut N-body with a real
  quadtree and multipole acceptance criterion (SPLASH-2's Barnes
  analogue);
* :mod:`repro.workloads.lu` — blocked dense LU factorization (SPLASH-2
  LU);
* :mod:`repro.workloads.apsp` — Floyd-Warshall all-pairs shortest paths
  with row-broadcast sharing (the paper's third application).

:func:`paper_app_configs` holds the sizes the paper runs them at.

Each application provides a *numeric* reference implementation (tested
against scipy/networkx) and a shared-memory trace generator whose block
access pattern mirrors the algorithm's true data dependencies; traces are
replayed execution-driven on :class:`~repro.coherence.DSMSystem`.
"""

from repro.workloads.patterns import (InvalidationPattern, draw_patterns,
                                      pattern_column_clustered,
                                      pattern_row_clustered,
                                      pattern_uniform)
from repro.workloads.traces import BlockAllocator, trace_stats


def paper_app_configs() -> dict:
    """The paper's application sizes, keyed by app name: Barnes-Hut at
    128 bodies x 4 time steps, LU on a 128x128 matrix with 8x8 blocks,
    APSP on 64 vertices, each on 16 processors.  Fresh configs on every
    call (they are mutable dataclasses)."""
    from repro.workloads import apsp, barnes_hut, lu

    return {
        "barnes-hut": barnes_hut.BHConfig(bodies=128, steps=4,
                                          processors=16),
        "lu": lu.LUConfig(n=128, block=8, processors=16),
        "apsp": apsp.APSPConfig(vertices=64, processors=16),
    }


__all__ = [
    "BlockAllocator",
    "InvalidationPattern",
    "draw_patterns",
    "pattern_column_clustered",
    "pattern_row_clustered",
    "paper_app_configs",
    "pattern_uniform",
    "trace_stats",
]
