"""Declarative fault plans: which links, routers, and worms fail, when.

A :class:`FaultPlan` is a pure value (hashable, comparable) describing
every fault a simulation run will experience:

* **Link faults** kill one bidirectional mesh link, permanently
  (``end=None``) or for a cycle window ``[start, end)``.
* **Router faults** kill a whole router — every link touching it plus
  any worm sourced at or destined for it.
* **Worm drops** model transient losses: each injected worm is dropped
  with probability :attr:`FaultPlan.drop_prob` inside the configured
  cycle window, and the ``drop_nth`` tuple deterministically kills the
  n-th injection (0-based, network-wide) for targeted tests.

Plans are *deterministic by construction*: the only randomness is a
``random.Random(seed)`` stream consumed in network injection order by
:class:`~repro.faults.state.FaultState`, so two runs of the same plan
produce bit-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


class TransactionFailed(RuntimeError):
    """Terminal protocol error: a transaction exhausted its retries.

    Raised (or delivered through a transaction's ``done`` event) when an
    invalidation transaction — or a coherence message under the DSM layer
    — could not complete despite NACK-driven retransmission, timeouts,
    and unicast fallback.  Carries enough context to report *which*
    transaction died and why, unlike the kernel's
    :class:`~repro.sim.engine.Deadlock`.
    """

    def __init__(self, txn, scheme: str, attempts: int, reason: str) -> None:
        self.txn = txn
        self.scheme = scheme
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"transaction {txn!r} ({scheme}) failed after {attempts} "
            f"attempt(s): {reason}")


def _check_window(start: int, end: Optional[int], what: str) -> None:
    if start < 0:
        raise ValueError(f"{what} start cycle must be >= 0, got {start}")
    if end is not None and end <= start:
        raise ValueError(f"{what} window [{start}, {end}) is empty")


class _Window:
    """A fault's cycle window ``[start, end)``; ``end=None`` means
    permanent.  The one definition of when a link or router fault is in
    effect."""

    start: int
    end: Optional[int]

    @property
    def permanent(self) -> bool:
        return self.end is None

    def active(self, now: int) -> bool:
        """True when the fault is in effect at cycle ``now``."""
        return self.start <= now and (self.end is None or now < self.end)


@dataclass(frozen=True)
class LinkFault(_Window):
    """One dead bidirectional link between adjacent nodes ``a`` and ``b``.

    ``end=None`` means permanent.  Permanent faults are assumed to be
    *known* system-wide once active (a fault map, as real NoCs maintain),
    which is what enables proactive MI→UI path re-planning; transient
    faults are only discovered by losing worms.
    """

    a: int
    b: int
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("link fault endpoints must differ")
        _check_window(self.start, self.end, "link fault")


@dataclass(frozen=True)
class RouterFault(_Window):
    """One dead router: all its links are down and worms to/from it die."""

    node: int
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "router fault")


@dataclass(frozen=True)
class FaultPlan:
    """Complete, seeded description of a run's faults."""

    link_faults: tuple[LinkFault, ...] = ()
    router_faults: tuple[RouterFault, ...] = ()
    #: Probability that any injected worm is silently lost in flight.
    drop_prob: float = 0.0
    #: Cycle window in which probabilistic drops apply.
    drop_start: int = 0
    drop_end: Optional[int] = None
    #: Deterministically drop these injection ordinals (0-based count of
    #: worms offered to the network) — precise fault placement for tests.
    drop_nth: tuple[int, ...] = ()
    #: Seed of the drop-decision stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], "
                             f"got {self.drop_prob}")
        _check_window(self.drop_start, self.drop_end, "drop")
        if any(n < 0 for n in self.drop_nth):
            raise ValueError("drop_nth ordinals must be >= 0")

    @property
    def empty(self) -> bool:
        """True when the plan injects no faults at all."""
        return (not self.link_faults and not self.router_faults
                and self.drop_prob == 0.0 and not self.drop_nth)

    # ------------------------------------------------------------------
    @classmethod
    def random(cls, mesh, *, seed: int, link_faults: int = 0,
               router_faults: int = 0, drop_prob: float = 0.0,
               start: int = 0, end: Optional[int] = None) -> "FaultPlan":
        """Draw a random plan for ``mesh``: ``link_faults`` distinct dead
        links and ``router_faults`` distinct dead routers, all sharing the
        ``[start, end)`` window, plus a probabilistic drop rate.

        The draw is a pure function of ``seed`` and the arguments.
        """
        from repro.network.topology import MESH_PORTS

        rng = random.Random(seed)
        links: list[LinkFault] = []
        all_links = sorted(
            {(min(a, b), max(a, b))
             for a in mesh.nodes()
             for b in (mesh.neighbor(a, p) for p in MESH_PORTS)
             if b is not None})
        if link_faults > len(all_links):
            raise ValueError(f"{link_faults} link faults exceed the "
                             f"{len(all_links)} mesh links")
        for a, b in rng.sample(all_links, link_faults):
            links.append(LinkFault(a, b, start=start, end=end))
        if router_faults > mesh.num_nodes:
            raise ValueError("more router faults than routers")
        routers = tuple(RouterFault(n, start=start, end=end)
                        for n in rng.sample(list(mesh.nodes()),
                                            router_faults))
        return cls(link_faults=tuple(links), router_faults=routers,
                   drop_prob=drop_prob, drop_start=start, drop_end=end,
                   seed=seed)
