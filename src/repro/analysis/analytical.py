"""Contention-free analytical model of invalidation transactions.

The paper's Sec. 2.3.3 estimates the latency and traffic of an
invalidation transaction on a ``k x k`` mesh from first principles
(``2d`` messages for ``d`` sharers under UI-UA, hot-spot serialization at
the home, per-hop routing delays).  This module generalizes that
estimate: it evaluates the *critical path* of any
:class:`~repro.core.plan.InvalidationPlan` under the same pipeline
timing the cycle simulator implements, ignoring only resource contention
(links, buffers, controllers beyond the home's own serialization).

On an otherwise idle network the estimate tracks the simulator closely
(experiment E10 quantifies the gap); under load the simulator's numbers
grow and the estimate becomes a lower bound.
"""

from __future__ import annotations

from repro.brcp.encoding import worm_flits
from repro.brcp.model import leg_hops, path_length
from repro.config import SystemParameters
from repro.core.plan import (ACT_ACK, ACT_CHAIN_FINAL, ACT_LAUNCH,
                             ACT_PIECE, FINAL_HOME, FINAL_JUNCTION,
                             FINAL_TERMINAL, GatherSpec, InvalidationPlan,
                             JUNCTION_DEPOSIT, JUNCTION_LAUNCH,
                             JUNCTION_UNICAST)
from repro.network.topology import Mesh2D
from repro.network.worm import WormKind


# ----------------------------------------------------------------------
# Message counting and traffic (exact, not estimates)
# ----------------------------------------------------------------------
def plan_message_count(plan: InvalidationPlan) -> int:
    """Exact number of worms a transaction injects."""
    count = len(plan.groups)
    for action in plan.sharer_actions.values():
        if action[0] in (ACT_ACK,):
            count += 1
        elif action[0] == ACT_LAUNCH:
            count += 1
            spec: GatherSpec = action[1]
            if spec.final_action == FINAL_TERMINAL:
                count += 1  # terminal sharer's combined unicast ack
        elif action[0] == ACT_CHAIN_FINAL:
            count += 1
    for jp in plan.junctions:
        if jp.action in (JUNCTION_LAUNCH, JUNCTION_UNICAST):
            count += 1
    return count


def plan_traffic(plan: InvalidationPlan, params: SystemParameters,
                 mesh: Mesh2D) -> int:
    """Exact flit-hops of a transaction on an idle network (every flit
    crosses every link of its worm's path exactly once)."""
    total = 0
    for group in plan.groups:
        hops = path_length(mesh, plan.home, group.dests)
        total += hops * worm_flits(params, group.kind, len(group.dests))

    def gather_traffic(spec: GatherSpec) -> int:
        hops = path_length(mesh, spec.launcher, spec.dests)
        t = hops * worm_flits(params, WormKind.IGATHER, len(spec.dests))
        if spec.final_action == FINAL_TERMINAL:
            t += (mesh.manhattan(spec.dests[-1], plan.home)
                  * params.control_message_flits)
        return t

    for node, action in plan.sharer_actions.items():
        if action[0] == ACT_ACK or action[0] == ACT_CHAIN_FINAL:
            total += (mesh.manhattan(node, plan.home)
                      * params.control_message_flits)
        elif action[0] == ACT_LAUNCH:
            total += gather_traffic(action[1])
    for jp in plan.junctions:
        if jp.action == JUNCTION_LAUNCH:
            total += gather_traffic(jp.row_gather)
        elif jp.action == JUNCTION_UNICAST:
            total += (mesh.manhattan(jp.node, plan.home)
                      * params.control_message_flits)
    return total


# ----------------------------------------------------------------------
# Latency estimation (critical path, contention-free)
# ----------------------------------------------------------------------
def _unicast_time(params: SystemParameters, hops: int, size: int) -> int:
    """Idle-network unicast delivery time (validated against the
    simulator's pipeline in the network tests)."""
    return params.router_delay * (hops + 1) + size - 1


#: The home router's input links, as :func:`ack_link` numbers them.
ACK_LINKS = ("N", "S", "E", "W")


def ack_link(mesh: Mesh2D, home: int, src: int) -> int:
    """Index in :data:`ACK_LINKS` of the home router input link an ack
    from ``src`` arrives on: the ack-phase link rule of both the scalar
    and the vectorized model.  It assumes XY routing for every scheme,
    so the Y leg comes last unless ``src`` shares the home's row."""
    hx, hy = mesh.coords(home)
    sx, sy = mesh.coords(src)
    if sy > hy:
        return 0
    if sy < hy:
        return 1
    return 2 if sx > hx else 3


def estimate_latency(plan: InvalidationPlan,
                     params: SystemParameters,
                     mesh: Mesh2D) -> int:
    """Critical-path latency estimate of one transaction in cycles.

    Models: OC serialization at the home (``send_overhead`` per worm),
    per-router header delay, flit serialization, sharer-side receive and
    invalidate costs, deposits/pickups, gather dependencies (a gather
    waits at a stop until the local deposit), junction collection, and
    receive serialization at the home in the acknowledgment phase.
    """
    p = params
    if not plan.sharers:
        return 0

    #: When each sharer's line is invalidated (ready to ack/deposit).
    inval_done: dict[int, int] = {}
    #: When each sharer's inval worm *delivery* completes at the node.
    deliver_at: dict[int, int] = {}
    chain_groups: list[tuple[int, tuple[int, ...]]] = []

    # Request-phase serialization at the home: the OC hands worms over
    # every send_overhead, but they also drain through the single
    # request-vnet injection channel at one flit per cycle — with many
    # worms the injection channel, not the OC, is the bottleneck (the
    # paper's request-phase hot-spot).
    inject_free = 0
    for i, group in enumerate(plan.groups):
        oc_ready = (i + 1) * p.send_overhead
        size = worm_flits(p, group.kind, len(group.dests))
        t_send = max(oc_ready, inject_free)
        inject_free = t_send + size
        hops = leg_hops(mesh, plan.home, group.dests)
        if group.kind is WormKind.CHAIN:
            # Serialized: the worm delivers at header arrival and waits
            # at each stop for the local invalidation before proceeding.
            t = t_send + p.router_delay  # source router
            prev_hops = 0
            for node, h in zip(group.dests, hops):
                t += p.router_delay * (h - prev_hops)
                prev_hops = h
                t += p.recv_overhead + p.cache_invalidate
                inval_done[node] = t
                deliver_at[node] = t
            chain_groups.append((i, group.dests))
            continue
        for node, h in zip(group.dests, hops):
            if node in group.reserve_only:
                continue
            arrive = t_send + _unicast_time(p, h, size)
            done = arrive + p.recv_overhead + p.cache_invalidate
            deliver_at[node] = arrive
            inval_done[node] = done

    #: Ack arrivals at the home: (count, tail-arrival time, size, source)
    #: before link and receive serialization.
    home_arrivals: list[tuple[int, int, int, int]] = []
    #: Junction pieces: node -> list of (count, time).
    junction_pieces: dict[int, list[tuple[int, int]]] = {
        jp.node: [] for jp in plan.junctions}

    def unicast_ack(src: int, t_ready: int, count: int) -> None:
        t = t_ready + p.send_overhead + _unicast_time(
            p, mesh.manhattan(src, plan.home), p.control_message_flits)
        home_arrivals.append((count, t, p.control_message_flits, src))

    def run_gather(spec: GatherSpec, t_launch: int, initial: int) -> None:
        size = worm_flits(p, WormKind.IGATHER, len(spec.dests))
        hops = leg_hops(mesh, spec.launcher, spec.dests)
        t = t_launch + p.router_delay  # source router
        acks = initial
        prev_hops = 0
        for node, h in zip(spec.dests[:-1], hops[:-1]):
            t += p.router_delay * (h - prev_hops)
            prev_hops = h
            # Wait for the local deposit if it is not ready yet.
            if spec.pickup_level == 0:
                ready = inval_done.get(node, 0) + p.iack_deposit
                picked = 1
            else:
                ready = junction_deposit_time.get(node, 0)
                picked = junction_deposit_count[node]
            t = max(t, ready) + p.iack_pickup
            acks += picked
        final = spec.dests[-1]
        t += p.router_delay * (hops[-1] - prev_hops) + size - 1
        if spec.final_action == FINAL_HOME:
            src = spec.dests[-2] if len(spec.dests) > 1 else spec.launcher
            home_arrivals.append((acks, t, size, src))
        elif spec.final_action == FINAL_JUNCTION:
            junction_pieces[spec.junction].append(
                (acks, t + p.recv_overhead))
        elif spec.final_action == FINAL_TERMINAL:
            t = max(t + p.recv_overhead, inval_done[final])
            unicast_ack(final, t, acks + 1)

    #: Deposit-ready times and counts of level-1 (junction) entries.
    junction_deposit_time: dict[int, int] = {}
    junction_deposit_count: dict[int, int] = {}

    # Sharer actions.
    for node, action in plan.sharer_actions.items():
        kind = action[0]
        t_ready = inval_done[node]
        if kind == ACT_ACK:
            unicast_ack(node, t_ready, 1)
        elif kind == ACT_LAUNCH:
            run_gather(action[1], t_ready + p.send_overhead, 1)
        elif kind == ACT_PIECE:
            junction_pieces[action[1]].append((1, t_ready))
        elif kind == ACT_CHAIN_FINAL:
            unicast_ack(node, t_ready, action[1])
        # ACT_DEPOSIT and ACT_GATHER_TERMINAL are folded into run_gather.

    # Junction collectors (deposit junctions first, then launchers, so a
    # row gather sees every deposit time; iteration over the plan's
    # order is safe because row gathers only *read*
    # junction_deposit_time inside run_gather).
    for jp in plan.junctions:
        pieces = junction_pieces[jp.node]
        assert len(pieces) == jp.expected_pieces, \
            f"junction {jp.node}: {len(pieces)} pieces, " \
            f"expected {jp.expected_pieces}"
        total = sum(c for c, _ in pieces)
        t_all = max(t for _, t in pieces)
        if jp.action == JUNCTION_DEPOSIT:
            junction_deposit_time[jp.node] = t_all + p.iack_deposit
            junction_deposit_count[jp.node] = total
        elif jp.action == JUNCTION_UNICAST:
            unicast_ack(jp.node, t_all, total)
    for jp in plan.junctions:
        if jp.action == JUNCTION_LAUNCH:
            pieces = junction_pieces[jp.node]
            total = sum(c for c, _ in pieces)
            t_all = max(t for _, t in pieces)
            run_gather(jp.row_gather, t_all + p.send_overhead, total)

    # Acknowledgment-phase hot-spot at the home: acks funnel through the
    # home router's four incoming links, one flit per cycle each (the
    # paper: "the Y-dimension links along the column containing the home
    # node are congested"), then through the node's serial receive
    # handling.
    assert home_arrivals, "no acknowledgments reach the home"
    assert sum(a[0] for a in home_arrivals) == len(plan.sharers), \
        "analytical ack conservation failed"
    link_free = [0] * len(ACK_LINKS)
    t_free = 0
    finish = 0
    for _count, t, size, src in sorted(home_arrivals, key=lambda a: a[1]):
        d = ack_link(mesh, plan.home, src)
        tail = max(t, link_free[d] + size)
        link_free[d] = tail
        t_free = max(t_free, tail) + p.recv_overhead
        finish = t_free
    return finish
