"""System-wide timing and sizing parameters.

All latencies are expressed in *network cycles*.  The paper reports
latencies "in 5 ns cycles": with 200 Mbytes/sec links and byte-wide phits,
one flit crosses a link every 5 ns, which defines the network cycle.  The
100 MHz processor cycle (10 ns) is therefore 2 network cycles, and the
20 ns router delay is 4 network cycles.

The default values below follow the parameters pinned by the paper
(Sec. 6.1.1) and are calibrated so that a clean read miss to a neighboring
node lands in the range the paper reports as comparable to DASH / Alewife
hardware measurements (Table 5).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Any


def max_jobs() -> int:
    """Upper bound accepted for the ``jobs`` knob on this machine: the
    CPU count, floored at 8 so small containers can still oversubscribe
    (the jobs=1-vs-jobs=4 determinism tests run everywhere)."""
    return max(os.cpu_count() or 1, 8)


class ConfigError(ValueError):
    """A configuration value is nonsensical: a :class:`SystemParameters`
    field, a sweep axis, an execution setting or a mesh coordinate.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; raised from ``__post_init__`` so a bad
    configuration fails at construction time, not deep inside a run.
    """


@dataclass(frozen=True)
class SystemParameters:
    """Immutable bundle of simulation parameters.

    Every field describes the modelled machine.  How a run executes or
    is observed (worker count, result cache, audit level) is an argument
    of the call that runs it, never a field here.  Instances are
    hashable and comparable, so they can key result caches.  Use
    :meth:`evolve` to derive a modified copy.
    """

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    #: Mesh is ``mesh_width x mesh_height`` (paper uses square k x k).
    mesh_width: int = 8
    mesh_height: int = 8

    # ------------------------------------------------------------------
    # Clocks (network cycle = 5 ns is the unit of time everywhere)
    # ------------------------------------------------------------------
    #: Network cycle length in nanoseconds (200 MB/s byte-wide link).
    net_cycle_ns: float = 5.0
    #: Processor cycles per network cycle inverse: one 100 MHz processor
    #: cycle equals this many network cycles.
    proc_cycle: int = 2

    # ------------------------------------------------------------------
    # Router / link microarchitecture
    # ------------------------------------------------------------------
    #: Header routing-decision delay at each router (20 ns = 4 cycles).
    router_delay: int = 4
    #: Flit buffer depth of each input virtual channel, in flits.
    vc_buffer_depth: int = 4
    #: Number of virtual networks (logically separate request / reply
    #: networks, as used by DASH-style systems to break protocol deadlock).
    num_vnets: int = 2
    #: Consumption channels per router interface.  Four are sufficient for
    #: deadlock freedom with multidestination worms on a 2-D mesh [39].
    consumption_channels: int = 4
    #: Invalidation-acknowledgment buffers per router interface (the paper
    #: proposes a small set, 2-4).
    iack_buffers: int = 4

    # ------------------------------------------------------------------
    # Message sizes (flits)
    # ------------------------------------------------------------------
    #: Routing-header flits of a unicast message.  A multidestination
    #: worm adds :func:`repro.brcp.encoding.header_flit_count` flits
    #: (one bit-string mask flit per 8 mesh rows under the default
    #: encoding; see :func:`repro.brcp.encoding.worm_flits`).
    header_flits: int = 1
    #: Payload flits of a control message (request, inval, ack, grant).
    control_flits: int = 5
    #: Payload flits of an i-gather worm (accumulated ack count + tag).
    gather_payload_flits: int = 2
    #: Cache block size in bytes; one byte per flit on a byte-wide link.
    cache_block_bytes: int = 32

    # ------------------------------------------------------------------
    # Node-level latencies (network cycles)
    # ------------------------------------------------------------------
    #: Cache lookup (hit detection) at the cache controller.
    cache_access: int = 4
    #: Invalidating a cache line at a sharer.
    cache_invalidate: int = 4
    #: Directory entry lookup / update at the directory controller.
    dir_access: int = 6
    #: Main-memory block access (read or write of a full block).
    mem_access: int = 16
    #: Outgoing-controller overhead to compose and hand a message to the
    #: router interface.
    send_overhead: int = 4
    #: Overhead to receive a message from a consumption channel into the
    #: node (interrupt / poll + header decode).
    recv_overhead: int = 4
    #: Memory-mapped write of an ack signal into a reserved i-ack buffer.
    iack_deposit: int = 2
    #: Picking up an ack signal from an i-ack buffer as a gather worm
    #: passes the router interface.  In the cycle-level router this cost
    #: is folded into the worm's DECIDE cycle (so 1 is the faithful
    #: value); the analytical model charges it explicitly.
    iack_pickup: int = 1

    # ------------------------------------------------------------------
    # Robustness / fault recovery (active only when a FaultState is
    # installed — with faults disabled these parameters are inert and
    # every result is bit-identical to the fault-free simulator)
    # ------------------------------------------------------------------
    #: Base per-transaction watchdog: if an invalidation transaction has
    #: not completed this many cycles after its (re)launch, the home
    #: aborts the attempt and retransmits.  Scaled by ``txn_backoff`` per
    #: attempt (exponential backoff).
    txn_timeout: int = 4096
    #: Retransmission attempts before the transaction fails with a typed
    #: :class:`~repro.faults.plan.TransactionFailed` (0 = never retry).
    txn_max_retries: int = 4
    #: Exponential backoff multiplier applied to the timeout and the
    #: retry delay on every successive attempt.
    txn_backoff: int = 2
    #: Base settle delay between detecting a loss and relaunching, so
    #: the failed attempt's in-flight worms drain first.
    fault_retry_delay: int = 64
    #: Whether the network generates loss notifications (NACKs) back to
    #: a dropped worm's source; with NACKs off, recovery relies purely
    #: on the transaction timeout.
    fault_nack: bool = True
    #: Cycles between a worm's loss and its NACK reaching the source.
    fault_nack_delay: int = 16
    #: Route around the fault map: when an installed fault plan kills a
    #: link or router, ``MeshNetwork.install_faults`` wraps the base
    #: routing in a fault-aware one whose per-hop candidate sets are
    #: pruned of dead links/routers and whose bounded non-minimal
    #: detours restore reachability.  Any other network routes with the
    #: base scheme itself.
    fault_aware_routing: bool = False
    #: Misroute budget per worm under fault-aware routing: non-minimal
    #: detour hops allowed before the worm must fall back to minimal
    #: candidates (0 = prune-only, never detour).
    detour_limit: int = 8

    # ------------------------------------------------------------------
    # Behavioural switches
    # ------------------------------------------------------------------
    #: Use virtual cut-through deferred delivery for blocked i-gather
    #: worms (park in an i-ack buffer instead of holding channels).
    deferred_delivery: bool = True
    #: Multidestination header encoding: ``"bitstring"`` keeps a fixed
    #: header; ``"list"`` strips one header flit per visited destination.
    multidest_encoding: str = "bitstring"

    def __post_init__(self) -> None:
        for name, kind, ok in _FIELD_TYPES:
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ConfigError("mesh dimensions must be >= 1")
        if self.net_cycle_ns <= 0:
            raise ConfigError("net_cycle_ns must be > 0")
        if self.proc_cycle < 1:
            raise ConfigError("proc_cycle must be >= 1")
        if self.router_delay < 0:
            raise ConfigError("router_delay must be >= 0")
        if self.num_vnets < 2:
            raise ConfigError("need >= 2 virtual networks (request/reply)")
        if self.consumption_channels < 1:
            raise ConfigError("need >= 1 consumption channel")
        if self.iack_buffers < 1:
            raise ConfigError("need >= 1 i-ack buffer")
        if self.multidest_encoding not in ("bitstring", "list"):
            raise ConfigError(
                "multidest_encoding must be 'bitstring' or 'list'")
        if self.vc_buffer_depth < 1:
            raise ConfigError("vc_buffer_depth must be >= 1")
        if self.header_flits < 1:
            raise ConfigError("header_flits must be >= 1")
        for name in ("control_flits", "gather_payload_flits"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.cache_block_bytes < 1:
            raise ConfigError("cache_block_bytes must be >= 1")
        for name in ("cache_access", "cache_invalidate", "dir_access",
                     "mem_access", "send_overhead", "recv_overhead",
                     "iack_deposit", "iack_pickup"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.txn_timeout < 1:
            raise ConfigError("txn_timeout must be >= 1")
        if self.txn_max_retries < 0:
            raise ConfigError("txn_max_retries must be >= 0")
        if self.txn_backoff < 1:
            raise ConfigError("txn_backoff must be >= 1")
        if self.fault_retry_delay < 0 or self.fault_nack_delay < 0:
            raise ConfigError("fault delays must be >= 0")
        if self.detour_limit < 0:
            raise ConfigError("detour_limit must be >= 0")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total node count of the mesh."""
        return self.mesh_width * self.mesh_height

    @property
    def data_flits(self) -> int:
        """Payload flits of a data-carrying message (one per byte)."""
        return self.cache_block_bytes

    @property
    def control_message_flits(self) -> int:
        """Total flits of a unicast control message."""
        return self.header_flits + self.control_flits

    @property
    def data_message_flits(self) -> int:
        """Total flits of a unicast data message."""
        return self.header_flits + self.control_flits + self.data_flits

    def backoff(self, base: int, retries: int) -> int:
        """``base`` grown by ``txn_backoff`` once per retry already
        spent: the one growth rule of every recovery wait (the
        transaction watchdog, the retransmission delay and a coherence
        message's resend delay)."""
        return base * self.txn_backoff ** retries

    def evolve(self, **changes: Any) -> "SystemParameters":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)


#: What a value of each field annotation must be, and its test.  A bool
#: is an int to Python, so the int and float tests exclude it; numpy
#: integers and floats pass.  NaN and the infinities are no number here:
#: a NaN parameter never equals itself, so its result could never be
#: found in the result cache again.
_ANNOTATION_TYPES = {
    "int": ("an integer",
            lambda v: type(v) is int or (isinstance(v, numbers.Integral)
                                         and not isinstance(v, bool))),
    "float": ("a number",
              lambda v: (type(v) is float
                         or (isinstance(v, numbers.Real)
                             and not isinstance(v, bool)))
              and math.isfinite(v)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}
#: ``(name, what it must be, test)`` of every field, in declaration order.
_FIELD_TYPES = tuple((f.name, *_ANNOTATION_TYPES[f.type])
                     for f in fields(SystemParameters))

#: Paper-default parameter set (8x8 mesh).
DEFAULT_PARAMETERS = SystemParameters()


def paper_parameters(mesh_width: int = 8, mesh_height: int | None = None,
                     **overrides: Any) -> SystemParameters:
    """Build a :class:`SystemParameters` for a ``k x k`` (or ``w x h``) mesh
    with the paper's technology parameters, applying ``overrides``.
    """
    if mesh_height is None:
        mesh_height = mesh_width
    return SystemParameters(mesh_width=mesh_width,
                            mesh_height=mesh_height, **overrides)
