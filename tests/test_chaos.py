"""Chaos engine: scenario generation, shrinking, and repro bundles.

The headline property (hypothesis): on the unmutated protocol, *any*
fault-free seeded scenario runs to completion under ``full`` auditing
with zero invariant violations.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import (MUTATIONS, ChaosScenario, load_bundle,
                         make_bundle, replay_bundle, run_chaos, run_scenario,
                         shrink, write_bundle, generate_scenario)
from repro.core import InvalidationEngine


def mutated_scenario():
    """A small scenario whose seeded mutation the auditor must catch."""
    return ChaosScenario(seed=0, mesh_width=4, mesh_height=4,
                         scheme="mi-ma-ec", blocks=6, refs_per_node=6,
                         write_frac=0.6, mutation="stale-sharer")


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
def test_generation_is_a_pure_function_of_the_seed():
    assert generate_scenario(7) == generate_scenario(7)
    assert generate_scenario(7, smoke=True) == generate_scenario(7, smoke=True)
    drawn = {generate_scenario(s) for s in range(10)}
    assert len(drawn) == 10


def test_smoke_scenarios_stay_small():
    for seed in range(20):
        s = generate_scenario(seed, smoke=True)
        assert s.mesh_width * s.mesh_height == 16
        assert s.refs_per_node <= 12
        assert s.cache_capacity is None and s.directory_pointers is None


def test_scenario_dict_round_trip():
    s = generate_scenario(3)
    assert ChaosScenario.from_dict(s.to_dict()) == s
    with pytest.raises(ValueError, match="unknown scenario field"):
        ChaosScenario.from_dict({"seed": 0, "warp_factor": 9})


def test_scenario_json_round_trip():
    s = generate_scenario(5, mutation="stale-sharer")
    assert ChaosScenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s


# ----------------------------------------------------------------------
# Running and classification
# ----------------------------------------------------------------------
def test_fault_free_scenario_runs_clean():
    s = generate_scenario(1, smoke=True).evolve(
        link_faults=0, router_faults=0, drop_prob=0.0)
    result = run_scenario(s)
    assert result.ok
    assert result.metrics is not None
    assert result.metrics["transactions"] >= 0


def test_runs_are_deterministic():
    s = generate_scenario(2, smoke=True)
    a, b = run_scenario(s), run_scenario(s)
    assert a.signature == b.signature
    assert a.metrics == b.metrics
    assert a.cycle == b.cycle


def test_mutated_scenario_fails_with_stable_signature():
    a, b = run_scenario(mutated_scenario()), run_scenario(mutated_scenario())
    assert not a.ok
    assert a.signature.startswith("InvariantViolation:")
    assert a.signature == b.signature


# ----------------------------------------------------------------------
# Classification by exception type
# ----------------------------------------------------------------------
def _fill_iack_buffers(system):
    """Foreign reservations fill every i-ack buffer file, so the first
    MA invalidation worm waits forever; the network's detector fires."""
    for iface in system.net.interfaces:
        for k in range(iface.iack.capacity):
            assert iface.iack.try_reserve(("foreign", k))
    system.net.deadlock_threshold = 2_000


def _lose_every_delivery(system):
    system.net.on_deliver = lambda node, worm, final: None


def _yield_an_int(system):
    # The process name puts "cycle limit" in the message: the label
    # must come from the exception type alone.
    system.sim.spawn((x for x in [5]), name="cycle limit")


@pytest.mark.parametrize("mutation, limit, signature", [
    (_fill_iack_buffers, 5_000_000, "Deadlock"),
    (_lose_every_delivery, 5_000_000, "Deadlock"),
    (None, 50, "Hang"),
    (_yield_an_int, 5_000_000, "SimulationError"),
], ids=["network-deadlock", "calendar-drained", "cycle-limit",
        "kernel-misuse"])
def test_failures_are_classified_by_type(monkeypatch, mutation, limit,
                                         signature):
    scenario = ChaosScenario(seed=1, mesh_width=4, mesh_height=4,
                             scheme="mi-ma-ec", blocks=4, refs_per_node=6,
                             write_frac=0.6, limit=limit)
    if mutation is not None:
        monkeypatch.setitem(MUTATIONS, "test", mutation)
        scenario = scenario.evolve(mutation="test")
    assert run_scenario(scenario).signature == signature


def test_double_counted_acks_become_bundles_that_replay(monkeypatch,
                                                        tmp_path):
    """A bug the engine's own ack accounting detects is a typed
    violation: the soak finishes and bundles every failing seed."""
    credit = InvalidationEngine._credit
    monkeypatch.setattr(
        InvalidationEngine, "_credit",
        lambda self, st, count, sharer=None: credit(self, st, 2 * count,
                                                    sharer))
    summary = run_chaos(6, smoke=True, out_dir=str(tmp_path),
                        max_shrink_runs=4)
    assert summary["failed"] == len(summary["bundles"]) == 6
    assert set(summary["signatures"]) == {
        "InvariantViolation:txn-conservation"}
    for path in summary["bundles"]:
        _result, matched = replay_bundle(load_bundle(path))
        assert matched


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def test_shrink_preserves_signature_and_reduces():
    result = run_scenario(mutated_scenario())
    shrunk, runs = shrink(result, max_runs=32)
    assert runs > 0
    assert shrunk.signature == result.signature
    before, after = result.scenario, shrunk.scenario
    size = lambda s: (s.refs_per_node * s.mesh_width * s.mesh_height
                      + s.blocks)
    assert size(after) <= size(before)
    # The shrunk scenario still reproduces from scratch.
    assert run_scenario(after).signature == result.signature


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
def test_bundle_round_trip(tmp_path):
    result = run_scenario(mutated_scenario())
    bundle = make_bundle(result, audit="full")
    path = tmp_path / "bundle.json"
    write_bundle(str(path), bundle)
    replayed, matched = replay_bundle(load_bundle(str(path)))
    assert matched
    assert replayed.signature == result.signature


def test_bundle_rejects_passing_result_and_bad_format(tmp_path):
    ok = run_scenario(generate_scenario(1, smoke=True))
    assert ok.ok
    with pytest.raises(ValueError):
        make_bundle(ok)
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a repro-chaos-bundle"):
        load_bundle(str(bad))


# ----------------------------------------------------------------------
# The soak loop
# ----------------------------------------------------------------------
def test_run_chaos_smoke_passes(tmp_path):
    summary = run_chaos(3, smoke=True, out_dir=str(tmp_path))
    assert summary["passed"] == 3 and summary["failed"] == 0
    assert summary["bundles"] == []


def test_run_chaos_mutation_bundles_and_replays(tmp_path):
    summary = run_chaos(1, smoke=True, mutation="stale-sharer",
                        out_dir=str(tmp_path), max_shrink_runs=16)
    assert summary["failed"] == 1
    [path] = summary["bundles"]
    bundle = load_bundle(path)
    assert bundle["scenario"]["mutation"] == "stale-sharer"
    assert bundle["signature"].startswith("InvariantViolation:")
    _result, matched = replay_bundle(bundle)
    assert matched


# ----------------------------------------------------------------------
# Fault storms: stale recovery work, and the settled state at the end
# ----------------------------------------------------------------------
def test_retried_invalidation_after_finish_is_stale():
    """A retried invalidation that reaches its sharer after the
    transaction confirmed every sharer is stale work: skipped and
    counted, never applied (full generator seed 52, shrunk; it crashed
    the coherence layer with a bare ``KeyError`` on the finished
    transaction's block)."""
    scenario = ChaosScenario(
        seed=52, mesh_width=6, mesh_height=6, scheme="ui-ua", blocks=2,
        refs_per_node=2, write_frac=0.2344340065803111,
        directory_pointers=2, drop_prob=0.01, fault_end=1725)
    result = run_scenario(scenario)
    assert result.ok, f"{result.signature}: {result.message}"
    assert result.metrics["stale_deliveries"] >= 1


@pytest.mark.parametrize("seed", [1, 6, 24, 27, 31, 37])
def test_chain_stop_waits_out_a_busy_output_channel(seed):
    """A chain worm whose local invalidation is done but whose next
    output channel is busy retries next cycle: these fault-free full
    generator seeds deadlocked under sci-chain when the stop's done
    flag was dropped before the channel was won."""
    scenario = generate_scenario(seed).evolve(scheme="sci-chain")
    assert not scenario.has_faults
    result = run_scenario(scenario, audit="full")
    assert result.ok, f"{result.signature}: {result.message}"


def test_storm_ending_in_typed_failure_still_audits_settled_entries():
    """A storm that ends in its expected ``TransactionFailed`` counts as
    a pass only once every settled directory entry passes the entry
    predicate: at ``cheap`` the stale sharer is caught there."""
    scenario = generate_scenario(0, smoke=True, mutation="stale-sharer")
    assert scenario.has_faults
    clean = run_scenario(scenario.evolve(mutation=None), audit="cheap")
    assert clean.ok and clean.expected_failures == 1
    result = run_scenario(scenario, audit="cheap")
    assert result.signature == "InvariantViolation:swmr"


# ----------------------------------------------------------------------
# Property: the unmutated protocol survives any fault-free scenario
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fault_free_chaos_never_violates_invariants(seed):
    scenario = generate_scenario(seed, smoke=True).evolve(
        link_faults=0, router_faults=0, drop_prob=0.0, fault_end=None,
        fault_aware=False)
    result = run_scenario(scenario, audit="full")
    assert result.ok, f"{result.signature}: {result.message}"
    assert result.expected_failures == 0, \
        "a fault-free run must not fail transactions"
