"""Figure E14 — fault-aware rerouting vs downgrade-only vs no recovery.

Beyond the paper: with a permanent dead link in the mesh, compare three
recovery postures for the multidestination invalidation schemes:

* **ft** — fault-aware routing (``fault_aware_routing=True``): worms
  detour around the dead link and blocked multidestination chains are
  re-planned whole (reroute before downgrade);
* **downgrade** — the baseline recovery protocol: retries plus MI→UI
  unicast fallback, but deterministic base routing (worms whose only
  minimal path crosses the dead link fail typed);
* **none** — no recovery at all (``txn_max_retries=0``).

Expected shape: ft completes *everything* a single dead link allows
(completion rate 1.0) with zero downgrades, and does it by detouring
worms (``detours > 0``) and re-planning chains (``reroutes > 0``); the
downgrade-only posture loses the transactions whose unicast paths are
also blocked, and the no-recovery posture does no better.  On the
fault-free point all three postures are bit-identical (with no fault
installed every network routes with the base scheme).
"""

from conftest import run_once

from repro.analysis.experiments import format_fault_table, run_fault_sweep
from repro.config import paper_parameters

SCHEMES = ["mi-ua-ec", "mi-ma-ec"]
PROBS = [0.0, 0.001]
FAULT_PROB = PROBS[-1]
#: Places the dead link where ft must detour and re-plan at both
#: scales.  Under some seeds (3 among them) every rescued transaction
#: completes through minimal escapes alone, so the figure would show
#: neither a detour nor a reroute.
SEED = 2


def test_fault_reroute_dead_link(benchmark, scale):
    params = paper_parameters(8)
    per = 10 if scale == "ci" else 40

    def sweep(recovery):
        p = params.evolve(txn_max_retries=0) if recovery == "none" \
            else params.evolve(fault_aware_routing=recovery == "ft")
        rows = run_fault_sweep(
            SCHEMES, PROBS, degree=12, per_point=per, params=p,
            link_faults=1, seed=SEED)
        for row in rows:
            row["recovery"] = recovery
        return rows

    rows = run_once(benchmark, lambda: [r for mode in ("ft", "downgrade",
                                                       "none")
                                        for r in sweep(mode)])
    print()
    print(format_fault_table(
        rows, columns=["recovery", "scheme", "drop_prob", "completed",
                       "failed", "completion_rate", "downgrades",
                       "reroutes", "detours", "latency", "latency_x"],
        title="Fig E14: one permanent dead link (8x8 mesh, 12 sharers) "
              "-- ft vs downgrade-only vs no recovery"))

    by = {(r["recovery"], r["scheme"], r["drop_prob"]): r for r in rows}
    rescued = 0
    for scheme in SCHEMES:
        ft = by[("ft", scheme, FAULT_PROB)]
        dg = by[("downgrade", scheme, FAULT_PROB)]
        none = by[("none", scheme, FAULT_PROB)]
        # A single dead link never disconnects the mesh: ft completes
        # every transaction, without a single unicast downgrade.
        assert ft["completion_rate"] == 1.0
        assert ft["downgrades"] == 0.0
        # ... by detouring worms and re-planning blocked chains.
        assert ft["detours"] > 0
        assert ft["reroutes"] > 0
        # Recovery postures are ordered: ft >= downgrade >= none.
        assert ft["completion_rate"] >= dg["completion_rate"]
        assert dg["completion_rate"] >= none["completion_rate"]
        rescued += ft["completed"] - dg["completed"]
        # Fault-free points agree across postures with retries intact:
        # no fault plan, no fault-aware wrapper.
        assert by[("ft", scheme, 0.0)]["latency"] == \
            by[("downgrade", scheme, 0.0)]["latency"]
        benchmark.extra_info[f"{scheme}-ft-rate"] = ft["completion_rate"]
        benchmark.extra_info[f"{scheme}-downgrade-rate"] = \
            dg["completion_rate"]
    # The fault-aware posture rescues transactions whose every base-
    # routing path (multidestination *and* unicast fallback) crosses
    # the dead link — downgrade-only provably cannot complete those.
    assert rescued > 0
