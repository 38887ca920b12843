"""Declarative description of one invalidation transaction.

A plan is built once (pure function of home, sharer set, and scheme) and
then executed by the :class:`~repro.core.engine.InvalidationEngine`.
Keeping the plan declarative separates the paper's *grouping* logic
(which worms, which paths, who gathers) from the *timing* model, and lets
the analytical model consume the very same plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.config import ConfigError
from repro.network.worm import WormKind

# ----------------------------------------------------------------------
# Sharer actions (what a sharer does once its line is invalidated)
# ----------------------------------------------------------------------
#: Send a unicast acknowledgment to the home node.
ACT_ACK = "ack"
#: Deposit the ack signal into the reserved level-0 i-ack buffer entry.
ACT_DEPOSIT = "deposit"
#: Launch an i-gather worm (this sharer's own ack rides at its head).
ACT_LAUNCH = "launch"
#: Contribute one piece to the local junction collector (sharer sitting
#: on the home's row: its router *is* the junction).
ACT_PIECE = "piece"
#: Terminal sharer of a non-home-terminated gather: wait for the gather
#: to arrive, then unicast the combined ack (own ack included) home.
ACT_GATHER_TERMINAL = "gather_terminal"
#: Covered by a chain worm: invalidate and release the worm (intermediate
#: destinations) — the network-level chain wait handles the rest.
ACT_CHAIN = "chain"
#: Final destination of a chain worm: invalidate, then unicast one ack
#: representing the whole chain.
ACT_CHAIN_FINAL = "chain_final"

# Gather final actions ---------------------------------------------------
#: Deliver the combined ack to the home node.
FINAL_HOME = "home"
#: Deliver to a junction node, which feeds its collector.
FINAL_JUNCTION = "junction"
#: Deliver to the path's last sharer, which acks home by unicast.
FINAL_TERMINAL = "terminal"

# Junction collector actions ---------------------------------------------
#: Deposit the combined count into the level-1 i-ack buffer entry.
JUNCTION_DEPOSIT = "deposit"
#: Launch the row-level i-gather worm toward the home.
JUNCTION_LAUNCH = "launch"
#: Send the combined count home as a unicast ack (single-level scheme).
JUNCTION_UNICAST = "unicast"


@dataclass(frozen=True)
class GatherSpec:
    """One i-gather worm: who launches it, its path, and its final act."""

    launcher: int
    dests: tuple[int, ...]
    #: i-ack buffer level picked up at intermediate destinations.
    pickup_level: int
    #: Acks riding at the head when launched; None means "use the
    #: launcher junction's collected count" (row-level gathers).
    initial_acks: Optional[int]
    #: One of FINAL_HOME / FINAL_JUNCTION / FINAL_TERMINAL.
    final_action: str
    #: Junction fed when final_action == FINAL_JUNCTION.
    junction: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.dests:
            raise ValueError("gather needs at least one destination")
        if self.launcher in self.dests:
            raise ValueError("gather launcher cannot be a destination")
        if self.final_action == FINAL_JUNCTION and self.junction is None:
            raise ValueError("junction-final gather needs a junction node")


@dataclass(frozen=True)
class JunctionPlan:
    """Collector at a row-junction router: waits for ``expected_pieces``
    column-side acknowledgment pieces, then acts."""

    node: int
    expected_pieces: int
    #: One of JUNCTION_DEPOSIT / JUNCTION_LAUNCH / JUNCTION_UNICAST.
    action: str
    #: Row-level gather launched when action == JUNCTION_LAUNCH.
    row_gather: Optional[GatherSpec] = None

    def __post_init__(self) -> None:
        if self.expected_pieces < 1:
            raise ValueError("junction with no pieces")
        if self.action == JUNCTION_LAUNCH and self.row_gather is None:
            raise ValueError("launching junction needs a row gather spec")


@dataclass(frozen=True)
class InvalGroup:
    """One invalidation worm the home sends."""

    kind: WormKind
    dests: tuple[int, ...]
    reserve_only: frozenset[int] = frozenset()
    extra_reserve: frozenset[int] = frozenset()
    no_reserve: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not self.dests:
            raise ValueError("invalidation group with no destinations")


@dataclass(frozen=True)
class InvalidationPlan:
    """Complete description of one invalidation transaction."""

    #: Grouping scheme; its base routing is ``SCHEMES[scheme][1]``
    #: (:mod:`repro.core.grouping`).
    scheme: str
    home: int
    sharers: tuple[int, ...]
    groups: tuple[InvalGroup, ...]
    #: node -> (action, *args); every sharer appears exactly once.
    sharer_actions: Mapping[int, tuple]
    junctions: tuple[JunctionPlan, ...] = ()

    def __post_init__(self) -> None:
        if self.home in self.sharers:
            raise ConfigError("home cannot be one of the invalidated "
                              "sharers")
        covered = [d for g in self.groups for d in g.dests
                   if d not in g.reserve_only]
        if sorted(covered) != sorted(self.sharers):
            raise ValueError(
                f"plan covers {sorted(covered)} but sharers are "
                f"{sorted(self.sharers)}")
        if set(self.sharer_actions) != set(self.sharers):
            raise ValueError("sharer_actions must cover exactly the sharers")


#: One worm of :func:`plan_worms`: ``(role, kind, src, dests)``.
PlanWorm = tuple[str, WormKind, int, tuple[int, ...]]


def plan_worms(plan: InvalidationPlan) -> list[PlanWorm]:
    """Every worm ``plan`` injects on a perfect network, as
    ``(role, kind, src, dests)`` in plan order.

    The role is ``"inval"`` for the home's groups, ``"gather"`` for an
    i-gather worm, and ``"ack"`` for every unicast to the home (direct
    acks, chain-final acks, a terminal sharer's combined ack and a
    junction's unicast).  Message count, flit traffic and home
    occupancy all follow from this one list.
    """
    home = (plan.home,)
    worms: list[PlanWorm] = [("inval", g.kind, plan.home, g.dests)
                             for g in plan.groups]

    def gather(spec: GatherSpec) -> None:
        worms.append(("gather", WormKind.IGATHER, spec.launcher, spec.dests))
        if spec.final_action == FINAL_TERMINAL:
            worms.append(("ack", WormKind.UNICAST, spec.dests[-1], home))

    for node, action in plan.sharer_actions.items():
        if action[0] == ACT_ACK or action[0] == ACT_CHAIN_FINAL:
            worms.append(("ack", WormKind.UNICAST, node, home))
        elif action[0] == ACT_LAUNCH:
            gather(action[1])
    for jp in plan.junctions:
        if jp.action == JUNCTION_LAUNCH:
            gather(jp.row_gather)
        elif jp.action == JUNCTION_UNICAST:
            worms.append(("ack", WormKind.UNICAST, jp.node, home))
    return worms
