"""Plan construction: coverage, BRCP validity, bookkeeping invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SCHEMES, build_plan
from repro.core.plan import (ACT_DEPOSIT, ACT_GATHER_TERMINAL, ACT_LAUNCH,
                             ACT_PIECE, FINAL_HOME, FINAL_JUNCTION,
                             FINAL_TERMINAL, JUNCTION_DEPOSIT,
                             JUNCTION_LAUNCH, JUNCTION_UNICAST,
                             GatherSpec, InvalGroup, InvalidationPlan,
                             JunctionPlan)
from repro.brcp.model import is_conformant_path
from repro.network.routing import make_routing
from repro.network.topology import Mesh2D
from repro.network.worm import WormKind


MESH = Mesh2D(8, 8)


def sharer_pattern(home, coords):
    return [MESH.node_at(x, y) for x, y in coords]


# ----------------------------------------------------------------------
# Generic properties over all schemes
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=16),
       st.sampled_from(sorted(SCHEMES)))
def test_plans_cover_sharers_with_conformant_paths(home, sharer_set, scheme):
    sharer_set.discard(home)
    if not sharer_set:
        return
    sharers = sorted(sharer_set)
    plan = build_plan(scheme, MESH, home, sharers)
    routing = make_routing(SCHEMES[scheme][1], MESH)
    # Every sharer appears exactly once as a delivery destination.
    delivered = [d for g in plan.groups for d in g.dests
                 if d not in g.reserve_only]
    assert sorted(delivered) == sharers
    # Every worm path (including junction stops) conforms to the routing.
    for g in plan.groups:
        assert is_conformant_path(routing, home, list(g.dests)), \
            (scheme, home, g.dests)
    # Gather paths conform too.
    for action in plan.sharer_actions.values():
        if action[0] == ACT_LAUNCH:
            spec = action[1]
            assert is_conformant_path(routing, spec.launcher,
                                      list(spec.dests))
    for jp in plan.junctions:
        if jp.row_gather is not None:
            assert is_conformant_path(routing, jp.row_gather.launcher,
                                      list(jp.row_gather.dests))


@settings(max_examples=60)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=16),
       st.sampled_from(sorted(SCHEMES)))
def test_plan_ack_flow_conserves_count(home, sharer_set, scheme):
    """Static ack-conservation: tracing the plan's ack flow delivers every
    sharer's ack to the home exactly once."""
    sharer_set.discard(home)
    if not sharer_set:
        return
    sharers = sorted(sharer_set)
    plan = build_plan(scheme, MESH, home, sharers)

    home_acks = 0
    junction_in = {jp.node: 0 for jp in plan.junctions}

    def gather_total(spec):
        # launcher's initial acks + one pickup per intermediate stop
        pickups = len(spec.dests) - 1
        initial = spec.initial_acks if spec.initial_acks is not None else 0
        return initial + pickups

    deposits = sum(1 for a in plan.sharer_actions.values()
                   if a[0] == ACT_DEPOSIT)
    picked = 0
    for node, action in plan.sharer_actions.items():
        kind = action[0]
        if kind == "ack":
            home_acks += 1
        elif kind == "chain_final":
            home_acks += action[1]
        elif kind == ACT_PIECE:
            junction_in[action[1]] += 1
        elif kind == ACT_LAUNCH:
            spec = action[1]
            carried = spec.initial_acks + (len(spec.dests) - 1)
            picked += len(spec.dests) - 1
            if spec.final_action == FINAL_HOME:
                home_acks += carried
            elif spec.final_action == FINAL_JUNCTION:
                junction_in[spec.junction] += carried
            elif spec.final_action == FINAL_TERMINAL:
                home_acks += carried + 1  # terminal adds its own
    assert picked == deposits, "every deposit picked up exactly once"

    for jp in plan.junctions:
        # A junction's collected total flows home (deposit -> row gather
        # pickup; launch -> row gather head; unicast -> direct).
        if jp.action in (JUNCTION_DEPOSIT, JUNCTION_LAUNCH,
                         JUNCTION_UNICAST):
            home_acks_contribution = junction_in[jp.node]
            home_acks += home_acks_contribution
    assert home_acks == len(sharers)


@settings(max_examples=40)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=16))
def test_junction_pieces_match_column_structure(home, sharer_set):
    sharer_set.discard(home)
    if not sharer_set:
        return
    plan = build_plan("mi-ma-ec", MESH, home, sorted(sharer_set))
    hx, hy = MESH.coords(home)
    for jp in plan.junctions:
        jx, jy = MESH.coords(jp.node)
        assert jy == hy and jx != hx
        assert jp.expected_pieces >= 1


# ----------------------------------------------------------------------
# Scheme-specific structure
# ----------------------------------------------------------------------
def test_ui_ua_one_unicast_per_sharer():
    home = MESH.node_at(3, 3)
    sharers = sharer_pattern(home, [(0, 0), (5, 5), (7, 1)])
    plan = build_plan("ui-ua", MESH, home, sharers)
    assert len(plan.groups) == 3
    assert all(g.kind is WormKind.UNICAST for g in plan.groups)


def test_mi_ua_ec_groups_by_column_sides():
    home = MESH.node_at(3, 3)
    # Column 5: sharers above and below home's row -> two worms;
    # column 1: one side -> one worm.
    sharers = sharer_pattern(home, [(5, 1), (5, 6), (5, 7), (1, 4)])
    plan = build_plan("mi-ua-ec", MESH, home, sharers)
    assert len(plan.groups) == 3
    assert all(g.kind is WormKind.MULTICAST for g in plan.groups)


def test_mi_ua_tm_uses_fewer_worms_across_columns():
    home = MESH.node_at(4, 4)
    sharers = sharer_pattern(home, [(1, 5), (2, 6), (6, 7)])
    ec = build_plan("mi-ua-ec", MESH, home, sharers)
    tm = build_plan("mi-ua-tm", MESH, home, sharers)
    assert len(tm.groups) < len(ec.groups)
    assert len(tm.groups) == 1


def test_mi_ma_ec_hierarchical_structure():
    home = MESH.node_at(2, 3)
    sharers = sharer_pattern(home, [(5, 1), (5, 6), (7, 4), (0, 2), (2, 6)])
    plan = build_plan("mi-ma-ec", MESH, home, sharers)
    roles = {MESH.coords(jp.node)[0]: jp.action for jp in plan.junctions}
    # East side: columns 5 and 7 -> 7 launches the row gather, 5 deposits.
    assert roles[7] == JUNCTION_LAUNCH
    assert roles[5] == JUNCTION_DEPOSIT
    # West side: only column 0 -> it launches.
    assert roles[0] == JUNCTION_LAUNCH
    # Home's own column (2) has no junction plan.
    assert 2 not in roles
    launchers = [jp for jp in plan.junctions if jp.action == JUNCTION_LAUNCH]
    for jp in launchers:
        assert jp.row_gather.dests[-1] == home
        assert jp.row_gather.pickup_level == 1
        assert jp.row_gather.initial_acks is None


def test_mi_ma_ec_u_junctions_unicast():
    home = MESH.node_at(2, 3)
    sharers = sharer_pattern(home, [(5, 1), (7, 4), (0, 2)])
    plan = build_plan("mi-ma-ec-u", MESH, home, sharers)
    assert all(jp.action == JUNCTION_UNICAST for jp in plan.junctions)
    assert all(jp.row_gather is None for jp in plan.junctions)
    # No level-1 reservations are planned anywhere.
    for g in plan.groups:
        assert not g.reserve_only and not g.extra_reserve


def test_mi_ma_ec_level1_reservation_for_deposit_junctions_only():
    home = MESH.node_at(2, 3)
    sharers = sharer_pattern(home, [(5, 1), (7, 4)])  # east: 5 deposit, 7 launch
    plan = build_plan("mi-ma-ec", MESH, home, sharers)
    junction5 = MESH.node_at(5, 3)
    junction7 = MESH.node_at(7, 3)
    reserved = set()
    for g in plan.groups:
        reserved |= set(g.reserve_only) | set(g.extra_reserve)
    assert junction5 in reserved
    assert junction7 not in reserved


def test_mi_ma_ec_at_row_sharer_is_piece():
    home = MESH.node_at(2, 3)
    sharers = sharer_pattern(home, [(5, 3), (5, 6)])
    plan = build_plan("mi-ma-ec", MESH, home, sharers)
    at_row = MESH.node_at(5, 3)
    assert plan.sharer_actions[at_row][0] == ACT_PIECE
    jp = next(j for j in plan.junctions if j.node == at_row)
    assert jp.expected_pieces == 2  # the piece + one side gather


def test_mi_ma_ec_home_column_gathers_deliver_home():
    home = MESH.node_at(2, 3)
    sharers = sharer_pattern(home, [(2, 0), (2, 6), (2, 7)])
    plan = build_plan("mi-ma-ec", MESH, home, sharers)
    assert plan.junctions == ()
    specs = [a[1] for a in plan.sharer_actions.values()
             if a[0] == ACT_LAUNCH]
    assert len(specs) == 2  # one gather per side
    assert all(s.final_action == FINAL_HOME for s in specs)
    assert all(s.dests[-1] == home for s in specs)


def test_ui_ma_ec_invalidations_are_single_destination():
    home = MESH.node_at(2, 3)
    sharers = sharer_pattern(home, [(5, 1), (5, 6), (0, 2)])
    plan = build_plan("ui-ma-ec", MESH, home, sharers)
    for g in plan.groups:
        assert g.kind is WormKind.IRESERVE
        deliveries = [d for d in g.dests if d not in g.reserve_only]
        assert len(deliveries) == 1


def test_mi_ma_tm_terminal_fallback():
    # Home west of sharers' staircase end: gather can finish at home.
    home = MESH.node_at(0, 0)
    sharers = sharer_pattern(home, [(3, 3), (5, 5)])
    plan = build_plan("mi-ma-tm", MESH, home, sharers)
    specs = [a[1] for a in plan.sharer_actions.values()
             if a[0] == ACT_LAUNCH]
    assert len(specs) == 1
    # From (3,3) via (5,5), home at (0,0) needs west hops after east:
    # not conformant, so the gather ends at the terminal sharer.
    assert specs[0].final_action == FINAL_TERMINAL
    terminal = MESH.node_at(5, 5)
    assert plan.sharer_actions[terminal][0] == ACT_GATHER_TERMINAL


def test_mi_ma_tm_home_final_when_conformant():
    # Sharers west of home: the staircase ends west; home east => valid.
    home = MESH.node_at(7, 4)
    sharers = sharer_pattern(home, [(1, 4), (1, 6), (3, 6)])
    plan = build_plan("mi-ma-tm", MESH, home, sharers)
    specs = [a[1] for a in plan.sharer_actions.values()
             if a[0] == ACT_LAUNCH]
    assert len(specs) == 1
    assert specs[0].final_action == FINAL_HOME


def test_sci_chain_structure():
    home = MESH.node_at(3, 3)
    sharers = sharer_pattern(home, [(5, 1), (5, 5), (5, 6)])
    plan = build_plan("sci-chain", MESH, home, sharers)
    assert all(g.kind is WormKind.CHAIN for g in plan.groups)
    finals = [a for a in plan.sharer_actions.values()
              if a[0] == "chain_final"]
    assert sum(a[1] for a in finals) == 3


# ----------------------------------------------------------------------
# Plan validation errors
# ----------------------------------------------------------------------
def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        build_plan("magic", MESH, 0, [1])


def test_plan_rejects_home_in_sharers():
    with pytest.raises(ValueError):
        InvalidationPlan("x", 3, (3,),
                         (InvalGroup(WormKind.UNICAST, (3,)),),
                         {3: (ACT_DEPOSIT,)})


def test_plan_rejects_coverage_mismatch():
    with pytest.raises(ValueError, match="covers"):
        InvalidationPlan("x", 0, (1, 2),
                         (InvalGroup(WormKind.UNICAST, (1,)),),
                         {1: (ACT_DEPOSIT,), 2: (ACT_DEPOSIT,)})


def test_gather_spec_validation():
    with pytest.raises(ValueError):
        GatherSpec(1, (), 0, 1, FINAL_HOME)
    with pytest.raises(ValueError):
        GatherSpec(1, (1, 2), 0, 1, FINAL_HOME)
    with pytest.raises(ValueError):
        GatherSpec(1, (2,), 0, 1, FINAL_JUNCTION)  # junction missing


def test_junction_plan_validation():
    with pytest.raises(ValueError):
        JunctionPlan(0, 0, JUNCTION_DEPOSIT)
    with pytest.raises(ValueError):
        JunctionPlan(0, 1, JUNCTION_LAUNCH)  # row gather missing
