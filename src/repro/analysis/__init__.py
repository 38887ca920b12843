"""Analytical models, experiment harness, and table formatting.

* :mod:`repro.analysis.analytical` — contention-free closed-form
  estimates of the four performance measures straight from an
  :class:`~repro.core.plan.InvalidationPlan` (the paper's Sec. 2.3.3
  estimation methodology, extended to every scheme).  Cross-validated
  against the cycle simulator on an idle network (experiment E10).
* :mod:`repro.analysis.experiments` — sweep runners used by the
  benchmarks: invalidation-latency and fault sweeps, application runs,
  miss-latency micro-transactions.
* :mod:`repro.analysis.tables` — fixed-width and markdown table output
  matching the paper's reporting style.
"""

from repro.analysis.analytical import (estimate_latency,
                                       plan_home_occupancy,
                                       plan_message_count, plan_traffic)
from repro.analysis.experiments import (miss_latency_micro,
                                        read_miss_breakdown,
                                        run_application_experiment,
                                        run_invalidation_sweep)
from repro.analysis.tables import format_table, rows_to_markdown

__all__ = [
    "estimate_latency",
    "format_table",
    "miss_latency_micro",
    "plan_home_occupancy",
    "plan_message_count",
    "plan_traffic",
    "read_miss_breakdown",
    "rows_to_markdown",
    "run_application_experiment",
    "run_invalidation_sweep",
]
