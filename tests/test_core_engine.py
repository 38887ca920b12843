"""Execution of invalidation transactions: every scheme completes, the
four measures behave as the paper predicts, and no i-ack buffer entries
leak."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemParameters
from repro.core import InvalidationEngine, SCHEMES, build_plan
from repro.network import MeshNetwork
from repro.sim import Simulator


def make_engine(scheme_routing="ecube", **overrides):
    params = SystemParameters(**overrides)
    sim = Simulator()
    net = MeshNetwork(sim, params, scheme_routing)
    return sim, net, InvalidationEngine(sim, net, params), params


def run_scheme(scheme, home_xy, sharer_xys, limit=500_000, **overrides):
    routing = SCHEMES[scheme][1]
    sim, net, engine, params = make_engine(routing, **overrides)
    home = net.mesh.node_at(*home_xy)
    sharers = [net.mesh.node_at(x, y) for x, y in sharer_xys]
    plan = build_plan(scheme, net.mesh, home, sharers)
    record = engine.run(plan, limit=limit)
    return record, net, engine


PATTERN = [(5, 1), (5, 6), (7, 4), (0, 2), (2, 6), (3, 3), (3, 5)]
HOME = (2, 3)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_scheme_completes(scheme):
    record, net, engine = run_scheme(scheme, HOME, PATTERN)
    assert record.sharers == len(PATTERN)
    assert record.latency > 0
    assert record.flit_hops > 0
    assert record.total_messages >= 1


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_no_iack_entries_leak(scheme):
    _, net, _ = run_scheme(scheme, HOME, PATTERN)
    for node, iface in enumerate(net.interfaces):
        assert not iface.iack._entries, f"leaked entries at node {node}"
        assert iface.free_cc == iface.total_cc


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_single_sharer_transaction(scheme):
    record, _, _ = run_scheme(scheme, (0, 0), [(4, 4)])
    assert record.sharers == 1
    assert record.latency > 0


def test_empty_sharer_set_completes_immediately():
    sim, net, engine, _ = make_engine()
    plan = build_plan("ui-ua", net.mesh, 0, [])
    record = engine.run(plan)
    assert record.latency == 0
    assert record.total_messages == 0


def test_ui_ua_message_count_is_2d():
    record, _, _ = run_scheme("ui-ua", HOME, PATTERN)
    d = len(PATTERN)
    assert record.total_messages == 2 * d
    assert record.home_sent == d
    assert record.home_recv == d
    assert record.home_occupancy == 2 * d


def test_mi_ua_reduces_home_sends_not_receives():
    ui, _, _ = run_scheme("ui-ua", HOME, PATTERN)
    mi, _, _ = run_scheme("mi-ua-ec", HOME, PATTERN)
    assert mi.home_sent < ui.home_sent
    assert mi.home_recv == ui.home_recv


def test_mi_ma_reduces_both_phases():
    ui, _, _ = run_scheme("ui-ua", HOME, PATTERN)
    ma, _, _ = run_scheme("mi-ma-ec", HOME, PATTERN)
    assert ma.home_sent < ui.home_sent
    assert ma.home_recv < ui.home_recv
    assert ma.home_occupancy < ui.home_occupancy


def test_mi_schemes_cut_latency_at_high_sharing():
    # A dense pattern: 16 sharers across four columns.
    dense = [(x, y) for x in (1, 4, 6, 7) for y in (0, 2, 5, 7)]
    ui, _, _ = run_scheme("ui-ua", HOME, dense)
    mi_ua, _, _ = run_scheme("mi-ua-ec", HOME, dense)
    mi_ma, _, _ = run_scheme("mi-ma-ec", HOME, dense)
    assert mi_ua.latency < ui.latency
    assert mi_ma.latency < ui.latency


def test_sci_chain_serializes():
    # All sharers in one column: the chain visits them strictly one after
    # another, so its latency exceeds the multicast scheme's.
    col = [(5, y) for y in (1, 2, 4, 5, 6, 7)]
    chain, _, _ = run_scheme("sci-chain", HOME, col)
    multi, _, _ = run_scheme("mi-ua-ec", HOME, col)
    assert chain.latency > multi.latency


def test_traffic_multidest_below_unicast():
    dense = [(x, y) for x in (4, 6) for y in (0, 2, 5, 7)]
    ui, _, _ = run_scheme("ui-ua", HOME, dense)
    mi, _, _ = run_scheme("mi-ua-ec", HOME, dense)
    assert mi.flit_hops < ui.flit_hops
    assert mi.total_messages < ui.total_messages


def test_mi_ma_tm_fewer_messages_than_ec():
    spread = [(1, 5), (2, 6), (4, 6), (6, 7)]
    ec, _, _ = run_scheme("mi-ma-ec", HOME, spread)
    tm, _, _ = run_scheme("mi-ma-tm", HOME, spread)
    assert tm.total_messages < ec.total_messages


def test_records_accumulate_on_engine():
    sim, net, engine, params = make_engine()
    mesh = net.mesh
    for home, sharer in ((0, 9), (5, 20)):
        plan = build_plan("ui-ua", mesh, home, [sharer])
        engine.run(plan)
    assert len(engine.records) == 2
    assert [r.txn for r in engine.records] == [1, 2]


def test_concurrent_transactions_complete():
    sim, net, engine, params = make_engine()
    mesh = net.mesh
    plans = [
        build_plan("mi-ma-ec", mesh, mesh.node_at(1, 1),
                   [mesh.node_at(1, 5), mesh.node_at(4, 3)]),
        build_plan("mi-ma-ec", mesh, mesh.node_at(6, 6),
                   [mesh.node_at(6, 2), mesh.node_at(3, 6)]),
        build_plan("ui-ua", mesh, mesh.node_at(4, 4),
                   [mesh.node_at(0, 0), mesh.node_at(7, 7)]),
    ]
    states = [engine.execute(p) for p in plans]
    for st_ in states:
        sim.run_until_event(st_.done, limit=500_000)
    assert len(engine.records) == 3
    for iface in net.interfaces:
        assert not iface.iack._entries


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=1, max_size=10),
       st.sampled_from(sorted(SCHEMES)))
def test_random_patterns_complete_and_clean(home, sharer_set, scheme):
    sharer_set.discard(home)
    if not sharer_set:
        return
    routing = SCHEMES[scheme][1]
    sim, net, engine, _ = make_engine(routing)
    plan = build_plan(scheme, net.mesh, home, sorted(sharer_set))
    record = engine.run(plan, limit=1_000_000)
    assert record.sharers == len(sharer_set)
    for iface in net.interfaces:
        assert not iface.iack._entries
        assert iface.free_cc == iface.total_cc
