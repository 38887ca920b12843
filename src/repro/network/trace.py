"""Worm event tracing for debugging and timing analysis.

Attach a :class:`NetworkTracer` to a network to record a per-worm event
timeline — injection, header arrival per router, interface actions
(reserve, pickup, park, resume), deliveries — without touching the hot
cycle loop more than a method call per event.  Used by tests to assert
fine-grained worm behaviour and by the ``worms --trace`` debugging flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.network import MeshNetwork
from repro.network.worm import Worm


@dataclass(frozen=True)
class WormEvent:
    """One timeline entry."""

    cycle: int
    node: int
    event: str
    detail: str = ""


class NetworkTracer:
    """Records worm timelines by wrapping a network's notification hooks.

    Hook points are deliberately coarse (injection, per-node delivery,
    ack deposits, chain signals) so tracing changes no timing; the
    header-progress trace is reconstructed per call via the worm's
    recorded path when needed.
    """

    def __init__(self, net: MeshNetwork) -> None:
        self.net = net
        self.events: dict[int, list[WormEvent]] = {}
        self._installed = False
        self._prev_deliver = None
        self._prev_chain = None
        self._orig_inject = None
        self._orig_deposit = None

    # ------------------------------------------------------------------
    def install(self) -> "NetworkTracer":
        """Start tracing (wraps inject / deliver / deposit / chain)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        net = self.net

        self._orig_inject = net.inject
        self._prev_deliver = net.on_deliver
        self._prev_chain = net.on_chain_deliver
        self._orig_deposit = net.deposit_ack

        def inject(worm: Worm) -> None:
            self._orig_inject(worm)
            self.record(worm, worm.src, "inject",
                        f"{worm.kind.value} -> {list(worm.dests)}")

        def on_deliver(node: int, worm: Worm, final: bool) -> None:
            self.record(worm, node, "deliver",
                        "final" if final else "absorb")
            self._prev_deliver(node, worm, final)

        def on_chain(node: int, worm: Worm) -> None:
            self.record(worm, node, "chain-wait")
            self._prev_chain(node, worm)

        def deposit_ack(node: int, key, count: int = 1) -> None:
            entry = net.interfaces[node].iack.entry(key)
            parked = entry.parked if entry is not None else None
            self._orig_deposit(node, key, count)
            if parked is not None:
                self.record(parked, node, "resume",
                            f"deposit released parked gather (+{count})")

        net.inject = inject
        net.on_deliver = on_deliver
        net.on_chain_deliver = on_chain
        net.deposit_ack = deposit_ack
        return self

    def uninstall(self) -> None:
        """Stop tracing and restore the network's hooks."""
        if not self._installed:
            return
        net = self.net
        net.inject = self._orig_inject
        net.on_deliver = self._prev_deliver
        net.on_chain_deliver = self._prev_chain
        net.deposit_ack = self._orig_deposit
        self._installed = False

    # ------------------------------------------------------------------
    def record(self, worm: Worm, node: int, event: str,
               detail: str = "") -> None:
        """Append one event to a worm's timeline."""
        self.events.setdefault(worm.uid, []).append(
            WormEvent(self.net.sim.now, node, event, detail))

    def timeline(self, worm: Worm) -> list[WormEvent]:
        """Events recorded for ``worm`` in order."""
        return list(self.events.get(worm.uid, []))

    def format_timeline(self, worm: Worm) -> str:
        """Human-readable timeline for one worm."""
        lines = [f"worm #{worm.uid} ({worm.kind.value}) "
                 f"{worm.src} -> {list(worm.dests)}"]
        for ev in self.timeline(worm):
            detail = f"  {ev.detail}" if ev.detail else ""
            lines.append(f"  @{ev.cycle:>7} node {ev.node:>3} "
                         f"{ev.event}{detail}")
        return "\n".join(lines)
