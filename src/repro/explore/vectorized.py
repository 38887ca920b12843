"""Batched, numpy-vectorized evaluator of the analytical model.

The scalar model (:mod:`repro.analysis.analytical`) walks one
:class:`~repro.core.plan.InvalidationPlan` at a time in Python.  For
design-space screening we need the same numbers for *millions* of
configurations, so this module splits the work in two:

1. **Compile** (:func:`compile_plan`): walk a plan once and record its
   *structure* — worm sizes classes, cumulative hop legs, gather
   dependencies, junction wiring, acknowledgment arrival slots and
   traffic terms — as plain integer tables.  Structure depends only on
   ``(scheme, mesh, home, sharers)``, never on timing parameters, so a
   compiled plan is reused across every parameter combination of a
   sweep (results are memoized).

2. **Evaluate** (:class:`PlanBatch` / :func:`evaluate_batch`): pad the
   tables of many compiled plans into rectangular numpy arrays and
   replay the scalar model's recurrences as array operations over the
   whole batch at once — one short Python scan per pipeline stage
   (request-phase injection, gather walks, junction collection, the
   home's ack funnel) instead of one Python loop per plan.

The replay is *exact*: all arithmetic is int64 and every ``max`` /
serialization recurrence mirrors ``estimate_latency`` operation for
operation, including the stable arrival sort at the home funnel
(``tests/test_explore.py`` proves equality over randomized
mesh/scheme/parameter configurations; ``benchmarks/bench_atlas.py``
gates it in CI).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.analysis.analytical import (ACK_LINKS, ack_link,
                                       plan_message_count)
from repro.brcp.encoding import header_flit_count
from repro.brcp.model import leg_hops, path_length
from repro.config import SystemParameters
from repro.core.grouping import build_plan
from repro.core.plan import (ACT_ACK, ACT_CHAIN_FINAL, ACT_LAUNCH, ACT_PIECE,
                             FINAL_HOME, FINAL_JUNCTION, FINAL_TERMINAL,
                             GatherSpec, InvalidationPlan, JUNCTION_DEPOSIT,
                             JUNCTION_LAUNCH, JUNCTION_UNICAST)
from repro.network.topology import Mesh2D
from repro.network.worm import WormKind

#: Sentinel "time" for padded acknowledgment-arrival slots: sorts after
#: every real arrival and survives adding worm sizes without overflow.
_FAR = 1 << 60

# Worm size classes (what a size depends on beyond the parameters).
_SZ_CMF = 0   #: unicast control message: header + control payload
_SZ_MC = 1    #: multidestination control worm: header + mask + control
_SZ_IG = 2    #: i-gather worm: header + mask + gather payload

# Gather final actions, encoded.
_FIN_NONE = 0
_FIN_HOME = 1
_FIN_JUNCTION = 2
_FIN_TERMINAL = 3


# ----------------------------------------------------------------------
# Parameter projection
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class ParamVector:
    """The subset of :class:`SystemParameters` the analytical model
    reads.  Two parameter sets with equal projections produce equal
    analytical results for every plan — the screening engine dedups on
    this (consumption channels, buffer depths, recovery knobs and the
    like never force a re-evaluation)."""

    router_delay: int
    send_overhead: int
    recv_overhead: int
    cache_invalidate: int
    iack_deposit: int
    iack_pickup: int
    header_flits: int
    control_flits: int
    gather_payload_flits: int
    multidest_encoding: str

    @classmethod
    def of(cls, params: SystemParameters) -> "ParamVector":
        return cls(**{f.name: getattr(params, f.name)
                      for f in fields(cls)})


#: SystemParameters field names that change analytical results (beyond
#: the mesh shape, which is part of the plan structure).
ANALYTICAL_FIELDS = frozenset(f.name for f in fields(ParamVector))


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class CompiledPlan:
    """Integer tables describing one plan's structure (see module doc).

    All node references are resolved to dense *sharer slots* (the
    plan's sharer order) so the evaluator never touches node ids; every
    time-dependency is a slot/lane index plus static hop counts.
    """

    __slots__ = (
        "height", "mask_flits", "n_sharers", "messages",
        # request phase: per group (kind class, ndests, chain?)
        "g_code", "g_nd", "g_chain",
        # flattened non-chain destinations: (group, cum hops, slot)
        "d_group", "d_hops", "d_slot",
        # chain destinations: per group, ordered (slot, delta hops)
        "c_slot", "c_delta",
        # direct unicast acks: (sharer slot, dist, count, arrival slot)
        "ua_slot", "ua_dist", "ua_arr",
        # gathers (level 0 then row level): see _compile_gather
        "gath", "row_gath",
        # junction lanes: (pool piece indices, action, static count,
        #                  dist home, arrival slot)
        "j_pieces", "j_action", "j_dist", "j_arr",
        # junction piece pool: entries from sharer slots (others are
        # written by gather finals)
        "pool_slot", "pool_size",
        # arrival slots: (count, dir, size class, ndests)
        "a_count", "a_dir", "a_sclass", "a_nd",
        # traffic terms: (size class, ndests, hops)
        "t_code", "t_nd", "t_hops",
    )


def _group_size_class(kind: WormKind) -> int:
    if kind is WormKind.UNICAST:
        return _SZ_CMF
    if kind is WormKind.IGATHER:
        return _SZ_IG
    return _SZ_MC


def compile_plan(plan: InvalidationPlan, mesh: Mesh2D) -> CompiledPlan:
    """Extract the parameter-independent structure of ``plan``."""
    cp = CompiledPlan()
    cp.height = mesh.height
    cp.mask_flits = header_flit_count("bitstring", mesh.height, 2)
    cp.n_sharers = len(plan.sharers)
    cp.messages = plan_message_count(plan)
    slot = {s: i for i, s in enumerate(plan.sharers)}

    # -- request phase -------------------------------------------------
    cp.g_code, cp.g_nd, cp.g_chain = [], [], []
    cp.d_group, cp.d_hops, cp.d_slot = [], [], []
    cp.c_slot, cp.c_delta = [], []
    for gi, group in enumerate(plan.groups):
        hops = leg_hops(mesh, plan.home, group.dests)
        cp.g_code.append(_group_size_class(group.kind))
        cp.g_nd.append(len(group.dests))
        chain = group.kind is WormKind.CHAIN
        cp.g_chain.append(chain)
        if chain:
            deltas, prev = [], 0
            for node, h in zip(group.dests, hops):
                deltas.append((slot[node], h - prev))
                prev = h
            cp.c_slot.append([s for s, _ in deltas])
            cp.c_delta.append([d for _, d in deltas])
        else:
            cp.c_slot.append([])
            cp.c_delta.append([])
            for node, h in zip(group.dests, hops):
                if node in group.reserve_only:
                    continue
                cp.d_group.append(gi)
                cp.d_hops.append(h)
                cp.d_slot.append(slot[node])

    # -- acknowledgment phase ------------------------------------------
    # Arrival slots are allocated in exactly the order the scalar model
    # appends to ``home_arrivals`` — the stable final sort then breaks
    # time ties identically.
    cp.a_count, cp.a_dir, cp.a_sclass, cp.a_nd = [], [], [], []
    cp.ua_slot, cp.ua_dist, cp.ua_arr = [], [], []
    cp.gath, cp.row_gath = [], []
    cp.pool_slot = []
    junction_lane: dict[int, int] = {
        jp.node: j for j, jp in enumerate(plan.junctions)}
    j_pieces: list[list[int]] = [[] for _ in plan.junctions]
    j_counts: list[int] = [0 for _ in plan.junctions]

    def arrival(count: int, src: int, sclass: int, nd: int) -> int:
        cp.a_count.append(count)
        cp.a_dir.append(ack_link(mesh, plan.home, src))
        cp.a_sclass.append(sclass)
        cp.a_nd.append(nd)
        return len(cp.a_count) - 1

    def unicast_ack(node: int, count: int) -> int:
        """Arrival slot of a unicast ack from ``node``; the caller
        supplies the ready time at evaluation."""
        cp.ua_dist.append(mesh.manhattan(node, plan.home))
        cp.ua_arr.append(arrival(count, node, _SZ_CMF, 1))
        return cp.ua_arr[-1]

    def new_pool_piece(from_slot: int, count: int, junction: int) -> int:
        """Register one junction-collector piece; returns pool index."""
        cp.pool_slot.append(from_slot)  # -1: written by a gather final
        idx = len(cp.pool_slot) - 1
        lane = junction_lane[junction]
        j_pieces[lane].append(idx)
        j_counts[lane] += count
        return idx

    def compile_gather(spec: GatherSpec, initial: int, level: int) -> dict:
        """Shared gather record for sharer launches (level 0) and row
        launches (level 1); ``ready`` references are sharer slots or
        junction lanes depending on the pickup level."""
        acks = initial
        inter, prev = [], 0
        hops = leg_hops(mesh, spec.launcher, spec.dests)
        for node, h in zip(spec.dests[:-1], hops[:-1]):
            if level == 0:
                ref, picked = slot.get(node, -1), 1
            else:
                lane = junction_lane.get(node, -1)
                ref = lane
                picked = j_counts[lane] if lane >= 0 else 0
            inter.append((ref, h - prev))
            prev = h
            acks += picked
        rec = {
            "nd": len(spec.dests),
            "inter": inter,
            "last_delta": hops[-1] - prev,
            "fkind": _FIN_NONE,
            "arr": -1, "pool": -1, "term_slot": -1,
        }
        if spec.final_action == FINAL_HOME:
            src = spec.dests[-2] if len(spec.dests) > 1 else spec.launcher
            rec["fkind"] = _FIN_HOME
            rec["arr"] = arrival(acks, src, _SZ_IG, len(spec.dests))
        elif spec.final_action == FINAL_JUNCTION:
            rec["fkind"] = _FIN_JUNCTION
            rec["pool"] = new_pool_piece(-1, acks, spec.junction)
        elif spec.final_action == FINAL_TERMINAL:
            final = spec.dests[-1]
            rec["fkind"] = _FIN_TERMINAL
            rec["term_slot"] = slot[final]
            rec["term_dist"] = mesh.manhattan(final, plan.home)
            rec["arr"] = arrival(acks + 1, final, _SZ_CMF, 1)
        return rec

    # Sharer actions, in the plan's (insertion) order.
    for node, action in plan.sharer_actions.items():
        kind = action[0]
        if kind == ACT_ACK:
            cp.ua_slot.append(slot[node])
            unicast_ack(node, 1)
        elif kind == ACT_LAUNCH:
            rec = compile_gather(action[1], 1, level=0)
            rec["launch"] = slot[node]
            cp.gath.append(rec)
        elif kind == ACT_PIECE:
            new_pool_piece(slot[node], 1, action[1])
        elif kind == ACT_CHAIN_FINAL:
            cp.ua_slot.append(slot[node])
            unicast_ack(node, action[1])

    # Junction collectors: deposits and unicasts first, then launches
    # (mirroring the scalar model's two passes).
    cp.j_pieces, cp.j_action, cp.j_dist, cp.j_arr = [], [], [], []
    for j, jp in enumerate(plan.junctions):
        if len(j_pieces[j]) != jp.expected_pieces:
            raise ValueError(
                f"junction {jp.node}: {len(j_pieces[j])} pieces, "
                f"expected {jp.expected_pieces}")
        cp.j_pieces.append(j_pieces[j])
        cp.j_action.append(jp.action)
        cp.j_dist.append(mesh.manhattan(jp.node, plan.home))
        if jp.action == JUNCTION_UNICAST:
            cp.j_arr.append(arrival(j_counts[j], jp.node, _SZ_CMF, 1))
        else:
            cp.j_arr.append(-1)
    for j, jp in enumerate(plan.junctions):
        if jp.action != JUNCTION_LAUNCH:
            continue
        rec = compile_gather(jp.row_gather, j_counts[j], level=1)
        if rec["fkind"] == _FIN_JUNCTION:
            raise ValueError("row gather may not feed another junction")
        rec["launch"] = j
        cp.row_gath.append(rec)
    cp.pool_size = len(cp.pool_slot)

    if cp.n_sharers and sum(cp.a_count) != cp.n_sharers:
        raise ValueError("compiled ack conservation failed")

    # -- traffic terms -------------------------------------------------
    cp.t_code, cp.t_nd, cp.t_hops = [], [], []

    def traffic(code: int, nd: int, hops: int) -> None:
        if hops:
            cp.t_code.append(code)
            cp.t_nd.append(nd)
            cp.t_hops.append(hops)

    def gather_tfc(spec: GatherSpec) -> None:
        traffic(_SZ_IG, len(spec.dests),
                path_length(mesh, spec.launcher, spec.dests))
        if spec.final_action == FINAL_TERMINAL:
            traffic(_SZ_CMF, 1, mesh.manhattan(spec.dests[-1], plan.home))

    for group in plan.groups:
        traffic(_group_size_class(group.kind), len(group.dests),
                path_length(mesh, plan.home, group.dests))
    for node, action in plan.sharer_actions.items():
        if action[0] in (ACT_ACK, ACT_CHAIN_FINAL):
            traffic(_SZ_CMF, 1, mesh.manhattan(node, plan.home))
        elif action[0] == ACT_LAUNCH:
            gather_tfc(action[1])
    for jp in plan.junctions:
        if jp.action == JUNCTION_LAUNCH:
            gather_tfc(jp.row_gather)
        elif jp.action == JUNCTION_UNICAST:
            traffic(_SZ_CMF, 1, mesh.manhattan(jp.node, plan.home))
    return cp


@lru_cache(maxsize=1 << 16)
def compiled_plan(scheme: str, width: int, height: int, home: int,
                  sharers: tuple[int, ...]) -> CompiledPlan:
    """Build + compile the plan for one configuration (memoized — the
    screening engine hits this once per pattern per scheme, for any
    number of parameter combinations)."""
    mesh = Mesh2D(width, height)
    return compile_plan(build_plan(scheme, mesh, home, sharers), mesh)


# ----------------------------------------------------------------------
# Batched evaluation
# ----------------------------------------------------------------------
def _pad2(rows: list[list[int]], fill: int,
          dtype=np.int64) -> np.ndarray:
    width = max((len(r) for r in rows), default=0)
    out = np.full((len(rows), width), fill, dtype=dtype)
    for i, r in enumerate(rows):
        if r:
            out[i, :len(r)] = r
    return out


class PlanBatch:
    """Padded array form of many compiled plans, ready for repeated
    evaluation under different parameter vectors."""

    def __init__(self, plans: Sequence[CompiledPlan]) -> None:
        n = len(plans)
        self.n = n
        self.messages = np.array([p.messages for p in plans],
                                 dtype=np.int64)
        self.mask_flits = np.array([p.mask_flits for p in plans],
                                   dtype=np.int64)
        #: slot table width: one column per sharer plus a zero sentinel.
        self.slots = max((p.n_sharers for p in plans), default=0) + 1
        self.sentinel = self.slots - 1

        # request phase ------------------------------------------------
        self.g_code = _pad2([p.g_code for p in plans], _SZ_CMF)
        self.g_nd = _pad2([p.g_nd for p in plans], 1)
        self.g_valid = _pad2(
            [[1] * len(p.g_code) for p in plans], 0, np.bool_)
        self.d_group = _pad2([p.d_group for p in plans], 0)
        self.d_hops = _pad2([p.d_hops for p in plans], 0)
        self.d_slot = _pad2([p.d_slot for p in plans], self.sentinel)
        self.d_valid = _pad2(
            [[1] * len(p.d_slot) for p in plans], 0, np.bool_)
        self.has_chains = any(any(p.g_chain) for p in plans)
        if self.has_chains:
            # chain groups get their own lane axis — (plan, lane, pos) —
            # so a deep chain next to a many-group unicast plan does not
            # allocate a (groups x depth) rectangle per plan
            lanes = [[g for g, c in enumerate(p.g_chain) if c]
                     for p in plans]
            cl = max(len(r) for r in lanes)
            cd = max((len(g) for p in plans for g in p.c_slot), default=0)
            self.cl_group = np.zeros((n, cl), dtype=np.int64)
            self.cl_valid = np.zeros((n, cl), dtype=np.bool_)
            self.c_slot = np.full((n, cl, cd), self.sentinel,
                                  dtype=np.int64)
            self.c_delta = np.zeros((n, cl, cd), dtype=np.int64)
            self.c_valid = np.zeros((n, cl, cd), dtype=np.bool_)
            for i, p in enumerate(plans):
                for k, g in enumerate(lanes[i]):
                    ss, dd = p.c_slot[g], p.c_delta[g]
                    self.cl_group[i, k] = g
                    self.cl_valid[i, k] = True
                    self.c_slot[i, k, :len(ss)] = ss
                    self.c_delta[i, k, :len(dd)] = dd
                    self.c_valid[i, k, :len(ss)] = True

        # direct unicast acks -------------------------------------------
        self.ua_slot = _pad2([p.ua_slot for p in plans], self.sentinel)
        self.ua_dist = _pad2([p.ua_dist for p in plans], 0)
        self.ua_arr = _pad2([p.ua_arr for p in plans], -1)
        self.ua_valid = _pad2(
            [[1] * len(p.ua_slot) for p in plans], 0, np.bool_)

        # junction piece pool -------------------------------------------
        self.pool = max((p.pool_size for p in plans), default=0) + 1
        self.pool_sentinel = self.pool - 1
        self.pool_slot = _pad2(
            [p.pool_slot for p in plans], -1)

        # gathers -------------------------------------------------------
        self.gath = self._gather_arrays(plans, "gath")
        self.row_gath = self._gather_arrays(plans, "row_gath")

        # junction lanes ------------------------------------------------
        self.lanes = max((len(p.j_action) for p in plans), default=0) + 1
        self.lane_sentinel = self.lanes - 1
        self.j_piece = np.full(
            (n, self.lanes,
             max((len(ps) for p in plans for ps in p.j_pieces),
                 default=0)),
            self.pool_sentinel, dtype=np.int64)
        self.j_valid = np.zeros(self.j_piece.shape, dtype=np.bool_)
        self.j_deposit = np.zeros((n, self.lanes), dtype=np.bool_)
        self.j_unicast = np.zeros((n, self.lanes), dtype=np.bool_)
        self.j_dist = np.zeros((n, self.lanes), dtype=np.int64)
        self.j_arr = np.full((n, self.lanes), -1, dtype=np.int64)
        for i, p in enumerate(plans):
            for j, pieces in enumerate(p.j_pieces):
                if pieces:
                    self.j_piece[i, j, :len(pieces)] = pieces
                    self.j_valid[i, j, :len(pieces)] = True
                self.j_deposit[i, j] = p.j_action[j] == JUNCTION_DEPOSIT
                self.j_unicast[i, j] = p.j_action[j] == JUNCTION_UNICAST
                self.j_dist[i, j] = p.j_dist[j]
                self.j_arr[i, j] = p.j_arr[j]

        # arrivals ------------------------------------------------------
        self.a_count = _pad2([p.a_count for p in plans], 0)
        self.a_dir = _pad2([p.a_dir for p in plans], 0)
        self.a_sclass = _pad2([p.a_sclass for p in plans], _SZ_CMF)
        self.a_nd = _pad2([p.a_nd for p in plans], 1)
        self.a_valid = _pad2(
            [[1] * len(p.a_count) for p in plans], 0, np.bool_)

        # traffic -------------------------------------------------------
        self.t_code = _pad2([p.t_code for p in plans], _SZ_CMF)
        self.t_nd = _pad2([p.t_nd for p in plans], 1)
        self.t_hops = _pad2([p.t_hops for p in plans], 0)

        self._rows = np.arange(n)
        self._size_cache: dict = {}

    def sizes(self, role: str, code: np.ndarray, nd: np.ndarray,
              pv: "ParamVector") -> np.ndarray:
        """Worm-size table for one item family, cached per flit-shape
        parameters (sweeps that vary only timing parameters reuse every
        size table)."""
        key = (role, pv.header_flits, pv.control_flits,
               pv.gather_payload_flits, pv.multidest_encoding)
        out = self._size_cache.get(key)
        if out is None:
            if len(self._size_cache) > 256:
                self._size_cache.clear()
            out = _sizes(self, pv, code, nd)
            self._size_cache[key] = out
        return out

    def _gather_arrays(self, plans: Sequence[CompiledPlan],
                       attr: str) -> dict:
        """Pad one gather family (level 0 or row) into lane arrays."""
        n = len(plans)
        # deepest lanes first: the evaluator's depth scan then only
        # touches the leading columns that still have stops at step d,
        # so one deep gather next to many shallow ones stays cheap
        recs = [sorted(getattr(p, attr),
                       key=lambda rec: -len(rec["inter"]))
                for p in plans]
        lanes = max((len(r) for r in recs), default=0)
        depth = max((len(rec["inter"]) for r in recs for rec in r),
                    default=0)
        ref_fill = self.sentinel if attr == "gath" else -1
        g = {
            "lanes": lanes,
            "valid": np.zeros((n, lanes), dtype=np.bool_),
            "launch": np.zeros((n, lanes), dtype=np.int64),
            "nd": np.ones((n, lanes), dtype=np.int64),
            "last_delta": np.zeros((n, lanes), dtype=np.int64),
            "fkind": np.full((n, lanes), _FIN_NONE, dtype=np.int64),
            "arr": np.full((n, lanes), -1, dtype=np.int64),
            "pool": np.full((n, lanes), -1, dtype=np.int64),
            "term_slot": np.zeros((n, lanes), dtype=np.int64),
            "term_dist": np.zeros((n, lanes), dtype=np.int64),
            "i_ref": np.full((n, lanes, depth), ref_fill, dtype=np.int64),
            "i_delta": np.zeros((n, lanes, depth), dtype=np.int64),
            "i_valid": np.zeros((n, lanes, depth), dtype=np.bool_),
            "ig_code": np.full((n, lanes), _SZ_IG, dtype=np.int64),
        }
        for i, r in enumerate(recs):
            for k, rec in enumerate(r):
                g["valid"][i, k] = True
                g["launch"][i, k] = rec["launch"]
                g["nd"][i, k] = rec["nd"]
                g["last_delta"][i, k] = rec["last_delta"]
                g["fkind"][i, k] = rec["fkind"]
                g["arr"][i, k] = rec["arr"]
                g["pool"][i, k] = rec["pool"]
                g["term_slot"][i, k] = rec["term_slot"]
                g["term_dist"][i, k] = rec.get("term_dist", 0)
                for d, (ref, delta) in enumerate(rec["inter"]):
                    g["i_ref"][i, k, d] = ref
                    g["i_delta"][i, k, d] = delta
                    g["i_valid"][i, k, d] = True
        if attr == "gath":
            # unknown pickup nodes read the zero sentinel slot,
            # mirroring the scalar model's ``inval_done.get(node, 0)``
            g["i_ref"][g["i_ref"] < 0] = self.sentinel
        # deepest stop count per lane column across the batch; the scan
        # at depth d only touches columns whose deepest lane exceeds d
        colmax = [0] * lanes
        for r in recs:
            for k, rec in enumerate(r):
                colmax[k] = max(colmax[k], len(rec["inter"]))
        g["active"] = [sum(1 for m in colmax if m > d)
                       for d in range(depth)]
        return g


def _sizes(batch: PlanBatch, pv: ParamVector, code: np.ndarray,
           nd: np.ndarray) -> np.ndarray:
    """Worm sizes (flits) for a (plan, item) table of size classes."""
    cmf = pv.header_flits + pv.control_flits
    multi = nd > 1
    if pv.multidest_encoding == "bitstring":
        extra = np.where(multi, batch.mask_flits[:, None], 0)
    else:
        extra = np.where(multi, nd - 1, 0)
    mc = pv.header_flits + extra + pv.control_flits
    ig = pv.header_flits + extra + pv.gather_payload_flits
    return np.where(code == _SZ_CMF, cmf,
                    np.where(code == _SZ_MC, mc, ig))


def evaluate_batch(batch: PlanBatch,
                   pv: ParamVector) -> tuple[np.ndarray, np.ndarray]:
    """Latency and traffic of every plan in ``batch`` under one
    parameter vector; exact integer replay of the scalar model."""
    n, rows = batch.n, batch._rows
    rd, so, ro = pv.router_delay, pv.send_overhead, pv.recv_overhead
    ci, dep, pick = pv.cache_invalidate, pv.iack_deposit, pv.iack_pickup
    cmf = pv.header_flits + pv.control_flits
    col = rows[:, None]

    def take2(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Row-wise gather ``a[i, idx[i, k]]`` via flat indexing (the
        ``take_along_axis`` wrapper is measurably slower here)."""
        return a.ravel()[idx + col * a.shape[1]]

    # -- request phase: injection-channel serialization at the home ----
    # The scalar recurrence
    #   t_send(g)      = max(oc(g), inject_free(g-1))
    #   inject_free(g) = t_send(g) + size(g)
    # is max-plus:  inject_free(g) = csize(g) + max_{j<=g}(oc(j) -
    # csize(j-1)), so one cumsum + running max replaces the group scan.
    # Trailing padded groups only perturb their own (unused) slots.
    g_size = batch.sizes("g", batch.g_code, batch.g_nd, pv)
    gmax = batch.g_code.shape[1]
    gs = np.where(batch.g_valid, g_size, 0)
    csize = np.cumsum(gs, axis=1)
    oc = so * np.arange(1, gmax + 1, dtype=np.int64)
    run = np.maximum.accumulate(oc[None, :] - (csize - gs), axis=1)
    infree_prev = np.empty((n, gmax), dtype=np.int64)
    infree_prev[:, 0] = 0
    if gmax > 1:
        infree_prev[:, 1:] = csize[:, :-1] + run[:, :-1]
    t_send = np.maximum(oc[None, :], infree_prev)

    #: per-plan invalidation-done times, indexed by sharer slot (the
    #: last column is a zero sentinel mirroring ``dict.get(node, 0)``).
    inval = np.zeros((n, batch.slots), dtype=np.int64)
    if batch.d_slot.size:
        arrive = (take2(t_send, batch.d_group)
                  + rd * (batch.d_hops + 1)
                  + take2(g_size, batch.d_group) - 1)
        done = arrive + ro + ci
        flat = inval.reshape(-1)
        idx = col * batch.slots + batch.d_slot
        flat[idx[batch.d_valid]] = done[batch.d_valid]
        inval[:, batch.sentinel] = 0

    if batch.has_chains:
        t = take2(t_send, batch.cl_group) + rd
        flat = inval.reshape(-1)
        for d in range(batch.c_slot.shape[2]):
            valid = batch.c_valid[:, :, d]
            t = np.where(valid, t + rd * batch.c_delta[:, :, d] + ro + ci,
                         t)
            idx = col * batch.slots + batch.c_slot[:, :, d]
            flat[idx[valid]] = t[valid]
        inval[:, batch.sentinel] = 0

    # -- acknowledgment phase ------------------------------------------
    amax = batch.a_count.shape[1]
    arrival_t = np.zeros((n, max(amax, 1)), dtype=np.int64)
    aflat = arrival_t.reshape(-1)

    def set_arrivals(arr_idx: np.ndarray, t: np.ndarray,
                     valid: np.ndarray) -> None:
        mask = valid & (arr_idx >= 0)
        idx = rows[:, None] * arrival_t.shape[1] + arr_idx
        aflat[idx[mask]] = t[mask]

    # direct unicast acks (ACT_ACK / ACT_CHAIN_FINAL)
    if batch.ua_slot.size:
        ready = take2(inval, batch.ua_slot)
        t = ready + so + rd * (batch.ua_dist + 1) + cmf - 1
        set_arrivals(batch.ua_arr, t, batch.ua_valid)

    #: junction piece pool (last column is a sentinel scratch slot).
    pool_t = np.zeros((n, batch.pool), dtype=np.int64)
    if batch.pool_slot.size:
        src = np.where(batch.pool_slot >= 0, batch.pool_slot,
                       batch.sentinel)
        vals = take2(inval, src)
        w = batch.pool_slot >= 0
        pflat = pool_t.reshape(-1)
        idx = (col * batch.pool
               + np.arange(batch.pool_slot.shape[1])[None, :])
        pflat[idx[w]] = vals[w]

    def run_gathers(g: dict, launch_t: np.ndarray,
                    ready_of, tag: str) -> None:
        """Walk one gather family; ``launch_t``/``ready_of`` abstract
        the pickup level (sharer deposits vs junction deposits)."""
        if not g["lanes"]:
            return
        t = launch_t + so + rd
        for d, k in enumerate(g["active"]):
            if not k:
                break
            valid = g["i_valid"][:, :k, d]
            ready = ready_of(g["i_ref"][:, :k, d])
            tk = t[:, :k]
            stepped = np.maximum(tk + rd * g["i_delta"][:, :k, d],
                                 ready) + pick
            t[:, :k] = np.where(valid, stepped, tk)
        size = batch.sizes(tag, g["ig_code"], g["nd"], pv)
        t = t + rd * g["last_delta"] + size - 1
        valid = g["valid"]
        # FINAL_HOME: the combined ack lands at the home.
        set_arrivals(g["arr"], t, valid & (g["fkind"] == _FIN_HOME))
        # FINAL_JUNCTION: feed the junction collector pool.
        w = valid & (g["fkind"] == _FIN_JUNCTION)
        if w.any():
            pidx = np.where(w, g["pool"], batch.pool_sentinel)
            pflat = pool_t.reshape(-1)
            idx = rows[:, None] * batch.pool + pidx
            pflat[idx[w]] = (t + ro)[w]
            pool_t[:, batch.pool_sentinel] = 0
        # FINAL_TERMINAL: last sharer combines and unicasts home.
        w = valid & (g["fkind"] == _FIN_TERMINAL)
        if w.any():
            ready = take2(
                inval, np.where(w, g["term_slot"], batch.sentinel))
            t2 = np.maximum(t + ro, ready)
            tu = t2 + so + rd * (g["term_dist"] + 1) + cmf - 1
            set_arrivals(g["arr"], tu, w)

    # level-0 gathers: launched by sharers, pick up sharer deposits.
    g0 = batch.gath
    if g0["lanes"]:
        launch_ready = take2(inval, g0["launch"])
        run_gathers(g0, launch_ready,
                    lambda ref: take2(inval, ref) + dep, "g0")

    # junction collectors: max over pieces, then deposit or unicast.
    piece_max = np.zeros((n, batch.lanes), dtype=np.int64)
    for c in range(batch.j_piece.shape[2]):
        valid = batch.j_valid[:, :, c]
        vals = take2(pool_t, batch.j_piece[:, :, c])
        piece_max = np.where(valid, np.maximum(piece_max, vals),
                             piece_max)
    #: level-1 deposit-ready times per junction lane (sentinel zero
    #: mirrors ``junction_deposit_time.get(node, 0)``).
    jdep_t = np.where(batch.j_deposit, piece_max + dep, 0)
    jdep_t[:, batch.lane_sentinel] = 0
    if batch.j_unicast.any():
        t = piece_max + so + rd * (batch.j_dist + 1) + cmf - 1
        set_arrivals(batch.j_arr, t, batch.j_unicast)

    # row-level gathers: launched by junctions, pick up level-1 deposits.
    gr = batch.row_gath
    if gr["lanes"]:
        launch_ready = take2(piece_max, gr["launch"])
        run_gathers(
            gr, launch_ready,
            lambda ref: take2(
                jdep_t, np.where(ref >= 0, ref, batch.lane_sentinel)),
            "gr")

    # -- the home's ack funnel: per-link then receive serialization ----
    # Scalar walks arrivals in (stable-sorted) time order:
    #   tail(k)   = max(t(k), link_free(dir) + size(k))   per link, then
    #   t_free(k) = max(t_free(k-1), tail(k)) + ro        globally.
    # Both are max-plus recurrences: per direction, tail = csize +
    # runmax(t - csize_prev); the global drain reduces to
    #   finish = V*ro + max_k(tail(k) - k*ro)
    # over the V valid arrivals (invalid slots sort to the end).
    a_size = batch.sizes("a", batch.a_sclass, batch.a_nd, pv)
    key = np.where(batch.a_valid, arrival_t[:, :amax], _FAR)
    order = np.argsort(key, axis=1, kind="stable")
    t_o = take2(arrival_t[:, :amax], order)
    s_o = take2(a_size, order)
    d_o = take2(batch.a_dir, order)
    v_o = take2(batch.a_valid, order)
    tails = np.zeros((n, amax), dtype=np.int64)
    for d in range(len(ACK_LINKS)):
        mask = v_o & (d_o == d)
        sz = np.where(mask, s_o, 0)
        csz = np.cumsum(sz, axis=1)
        cand = np.where(mask, t_o - csz, -_FAR)
        run = np.maximum(np.maximum.accumulate(cand, axis=1), 0)
        tails = np.where(mask, csz + run, tails)
    V = v_o.sum(axis=1)
    drain = np.where(v_o,
                     tails - ro * np.arange(amax, dtype=np.int64)[None, :],
                     -_FAR)
    t_free = np.where(V > 0, ro * V + drain.max(axis=1), 0)

    # -- traffic --------------------------------------------------------
    t_size = batch.sizes("t", batch.t_code, batch.t_nd, pv)
    traffic = (batch.t_hops * t_size).sum(axis=1)
    return t_free, traffic


# ----------------------------------------------------------------------
# Convenience single-plan wrapper (differential tests, spot checks)
# ----------------------------------------------------------------------
def evaluate_plans(plans: Sequence[InvalidationPlan], mesh: Mesh2D,
                   params: SystemParameters,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``(latency, messages, traffic)`` for a list of plans
    on one mesh under one parameter set."""
    compiled = [compile_plan(p, mesh) for p in plans]
    batch = PlanBatch(compiled)
    latency, traffic = evaluate_batch(batch, ParamVector.of(params))
    return latency, batch.messages.copy(), traffic


def welford_means(values: np.ndarray) -> np.ndarray:
    """Running-mean (Welford) reduction along the last axis, replaying
    :class:`repro.sim.stats.Tally` float arithmetic bit-for-bit so
    vectorized sweep rows equal the scalar sweep's means exactly."""
    mean = np.zeros(values.shape[:-1], dtype=np.float64)
    for j in range(values.shape[-1]):
        mean += (values[..., j] - mean) / (j + 1)
    return mean


def clear_compile_cache() -> None:
    """Drop memoized compiled plans (tests and benchmarks)."""
    compiled_plan.cache_clear()


__all__ = [
    "ANALYTICAL_FIELDS",
    "CompiledPlan",
    "ParamVector",
    "PlanBatch",
    "clear_compile_cache",
    "compile_plan",
    "compiled_plan",
    "evaluate_batch",
    "evaluate_plans",
    "welford_means",
]
