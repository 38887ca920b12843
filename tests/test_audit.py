"""Runtime invariant auditor: levels, trail, hooks, and catches.

The auditor is an observation-only layer (``docs/AUDIT.md``): at any
level it must never alter simulation results, and at ``cheap``/``full``
it must catch seeded protocol mutations with stable, typed violations.
"""

import pytest

from repro.audit import (AUDIT_ENV_VAR, AUDIT_LEVELS, Auditor, EventTrail,
                         InvariantViolation, resolve_level)
from repro.chaos import (ChaosScenario, build_system, build_traces,
                         run_scenario)
from repro.coherence import DSMSystem
from repro.coherence.messages import CohType, coh_payload
from repro.coherence.processor import run_program
from repro.config import ConfigError, paper_parameters
from repro.sim import Simulator


def small_system(audit="full", **kwargs):
    return DSMSystem(Simulator(), paper_parameters(2), scheme="ui-ua",
                     audit=audit, **kwargs)


def small_traces():
    # Every node reads and writes a handful of overlapping blocks: plenty
    # of recalls, invalidations, and upgrades on a 2x2 mesh.
    return {
        0: [("R", 0), ("W", 1), ("R", 2), ("W", 0)],
        1: [("W", 0), ("R", 1), ("W", 2), ("R", 0)],
        2: [("R", 1), ("W", 2), ("R", 0), ("W", 1)],
        3: [("W", 1), ("R", 2), ("W", 0), ("R", 2)],
    }


# ----------------------------------------------------------------------
# Levels
# ----------------------------------------------------------------------
def test_levels_are_ordered():
    assert AUDIT_LEVELS == ("off", "cheap", "full")


def test_resolve_level_stricter_wins():
    assert resolve_level("off", env="off") == "off"
    assert resolve_level("cheap", env="off") == "cheap"
    assert resolve_level("off", env="cheap") == "cheap"
    assert resolve_level("full", env="cheap") == "full"
    assert resolve_level("cheap", env="full") == "full"


def test_resolve_level_rejects_unknown():
    with pytest.raises(ValueError):
        resolve_level("paranoid")
    with pytest.raises(ValueError):
        resolve_level("off", env="paranoid")
    # A DSM system's level goes through the same check.
    with pytest.raises(ConfigError, match="'loud'"):
        small_system(audit="loud")


def test_env_var_raises_level(monkeypatch):
    monkeypatch.setenv(AUDIT_ENV_VAR, "cheap")
    system = small_system(audit="off")
    assert system.audit is not None
    assert system.audit.level == "cheap"


def test_audit_off_installs_nothing(monkeypatch):
    monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
    system = small_system(audit="off")
    assert system.audit is None
    assert all(c.audit is None for c in system.caches)


def test_auditor_rejects_level_off(monkeypatch):
    monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
    with pytest.raises(ValueError):
        Auditor("off", sim=Simulator(), net=None)


# ----------------------------------------------------------------------
# Violations and the event trail
# ----------------------------------------------------------------------
def test_violation_carries_context_and_signature():
    v = InvariantViolation("swmr", "two writers", cycle=7, node=3,
                           block=12, trail=("@1 x", "@2 y"))
    assert v.signature == "InvariantViolation:swmr"
    assert isinstance(v, AssertionError)
    text = str(v)
    assert "[swmr] two writers" in text
    assert "cycle=7" in text and "block=12" in text
    assert "@2 y" in text


def test_trail_ring_buffer_and_filtering():
    trail = EventTrail(limit=4)
    for i in range(10):
        trail.record(i, "k", node=i % 2, block=i % 3)
    events = trail.events()
    assert len(events) == 4                       # ring, not unbounded
    assert trail.recorded == 10                   # but everything counted
    assert [e.cycle for e in events] == [6, 7, 8, 9]
    only_block0 = trail.tail(10, block=0)
    assert all("block=0" in line for line in only_block0)


# ----------------------------------------------------------------------
# Clean protocol: no violations at any level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("audit", ["cheap", "full"])
def test_clean_run_has_no_violations(audit):
    system = small_system(audit=audit)
    run_program(system, small_traces())
    assert system.audit.violations == []
    assert system.audit.txns_checked > 0
    assert system.audit.final_checks == 1


@pytest.mark.parametrize("scheme", ["ui-ua", "mi-ua-ec", "mi-ma-ec"])
def test_clean_run_all_schemes_full_audit(scheme):
    system = DSMSystem(Simulator(), paper_parameters(4), scheme=scheme,
                       audit="full")
    run_program(system, small_traces())
    assert system.audit.violations == []


def test_capacity_and_limited_pointers_clean_under_full_audit():
    system = small_system(audit="full", cache_capacity=2,
                          directory_pointers=2)
    run_program(system, small_traces())
    assert system.audit.violations == []


def test_audit_is_observation_only():
    """Every audit level yields bit-identical results — stats AND the
    simulator's dispatched-callback count (the auditor never schedules)."""
    outcomes = {}
    for audit in ("off", "cheap", "full"):
        system = small_system(audit=audit)
        stats = run_program(system, small_traces())
        outcomes[audit] = (stats, system.sim.now, system.sim.dispatched)
    assert outcomes["off"] == outcomes["cheap"] == outcomes["full"]


# ----------------------------------------------------------------------
# Seeded mutations are caught
# ----------------------------------------------------------------------
def test_stale_sharer_mutation_caught():
    scenario = ChaosScenario(seed=0, mesh_width=2, mesh_height=2,
                             scheme="mi-ma-ec", blocks=2, refs_per_node=4,
                             write_frac=0.6, mutation="stale-sharer")
    result = run_scenario(scenario)
    # Whichever per-event check meets the stale copy first fires; both
    # name the same bug.
    assert result.signature in ("InvariantViolation:swmr",
                                "InvariantViolation:dir-agreement")
    assert result.trail, "violation should carry a protocol-event trail"


def test_lost_invalidation_mutation_caught_as_conservation():
    scenario = ChaosScenario(seed=1, mesh_width=4, mesh_height=4,
                             scheme="ui-ua", blocks=4, refs_per_node=6,
                             write_frac=0.6, mutation="lost-invalidation")
    result = run_scenario(scenario)
    assert result.signature == "InvariantViolation:txn-conservation"


def test_violation_trail_keeps_only_its_own_worm_events():
    """Worm events share the trail with the protocol events, and a
    violation's tail keeps the worms of its own transaction or block."""
    scenario = ChaosScenario(seed=1, mesh_width=4, mesh_height=4,
                             scheme="mi-ma-ec", blocks=4, refs_per_node=6,
                             write_frac=0.6, mutation="lost-invalidation")
    system = build_system(scenario)
    with pytest.raises(InvariantViolation) as exc_info:
        run_program(system, build_traces(scenario), limit=scenario.limit)
    exc = exc_info.value
    own = {f"{label}={value}" for label, value in
           (("txn", exc.txn), ("block", exc.block)) if value is not None}
    worm_lines = [line.split() for line in exc.trail
                  if line.split()[1].startswith("worm.")]
    assert worm_lines
    assert all(own & set(tokens) for tokens in worm_lines)
    # The whole trail also holds other transactions' and blocks' worms.
    assert any(e.worm is not None and e.txn != exc.txn
               for e in system.audit.trail.events())


# ----------------------------------------------------------------------
# Quiescence is checked once, typed, at every level
# ----------------------------------------------------------------------
def _stray_queued_request(system):
    system.dirs[0].entry(0).queue.append(coh_payload(CohType.RD_REQ, 0, 1))


def _leaked_iack_entry(system):
    assert system.net.interfaces[3].iack.try_reserve(("stray", 0))


@pytest.mark.parametrize("audit", ["off", "full"])
@pytest.mark.parametrize("leak, invariant", [
    (_stray_queued_request, "waiting-discipline"),
    (_leaked_iack_entry, "worm-conservation"),
], ids=["queued-request", "iack-entry"])
def test_quiescence_check_is_typed_at_every_level(monkeypatch, audit, leak,
                                                  invariant):
    monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
    system = small_system(audit=audit)
    leak(system)
    with pytest.raises(InvariantViolation) as exc_info:
        run_program(system, {1: [("R", 1)], 2: [("W", 1), ("R", 2)]})
    exc = exc_info.value
    assert exc.signature == f"InvariantViolation:{invariant}"
    assert exc.cycle == system.sim.now
    if audit == "off":
        assert system.audit is None and exc.trail == ()
    else:
        # Raised through the auditor: recorded, with the trail attached.
        assert system.audit.violations == [exc]
        assert exc.trail == tuple(system.audit.trail.tail(40,
                                                          block=exc.block))


# ----------------------------------------------------------------------
# Regression: the eviction/rewrite race chaos found (seed 23)
# ----------------------------------------------------------------------
def test_owner_evict_then_rewrite_race():
    """A capacity eviction's voluntary writeback can race the owner's
    next access to the same block: the request reaches the home while
    the directory still says EXCLUSIVE at the requester.  The home must
    absorb the in-flight writeback and re-grant (found by ``repro
    chaos``, shrunk from seed 23)."""
    scenario = ChaosScenario(
        seed=23, mesh_width=2, mesh_height=2, scheme="ui-ua",
        blocks=44, refs_per_node=10, write_frac=0.4868,
        cache_capacity=4)
    result = run_scenario(scenario)
    assert result.ok, f"{result.signature}: {result.message}"
    assert result.metrics["dropped_writebacks"] >= 0


def test_owner_evict_then_rewrite_race_all_schemes():
    for scheme in ("ui-ua", "mi-ua-ec", "mi-ma-ec"):
        system = small_system(audit="full", cache_capacity=1)
        # Capacity 1: every second reference evicts, so writebacks race
        # follow-up accesses constantly.
        traces = {0: [("W", 0), ("W", 1), ("W", 0), ("R", 1), ("R", 0)],
                  1: [("W", 0), ("R", 0), ("W", 1), ("W", 0)],
                  2: [], 3: []}
        run_program(system, traces)
        assert system.audit.violations == []
