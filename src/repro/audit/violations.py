"""Typed invariant violations and audit-level resolution.

An :class:`InvariantViolation` is the one terminal finding of a
protocol check — the auditor's, or one of the checks that run at every
audit level (quiescence, the engine's ack accounting): a protocol
invariant (see ``docs/AUDIT.md`` for the catalog) observably broke at a
specific cycle, and the exception carries enough context — invariant
name, cycle, node, block, transaction, and, when an auditor is
installed, the tail of the protocol-event trail — to localize the bug
without re-running.

Audit levels order ``off < cheap < full``.  The effective level of a run
is the *stricter* of the level a run's auditor is installed with and
the ``REPRO_AUDIT`` environment variable, so a CI leg can raise every
DSM system and every installed auditor of the test suite to ``cheap``
without touching any call site.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.config import ConfigError

#: Recognized audit levels, in increasing strictness.
AUDIT_LEVELS = ("off", "cheap", "full")

#: Environment variable raising the minimum audit level of every
#: :class:`~repro.coherence.system.DSMSystem` and every explicitly
#: installed auditor (used by the CI ``REPRO_AUDIT=cheap`` leg).
AUDIT_ENV_VAR = "REPRO_AUDIT"


def resolve_level(requested: str = "off",
                  env: Optional[str] = None) -> str:
    """Effective audit level: the stricter of ``requested`` and the
    ``REPRO_AUDIT`` environment variable (``env`` overrides the real
    environment, for tests).  The one check of an audit level: raises
    :class:`~repro.config.ConfigError` naming a bad one."""
    if env is None:
        env = os.environ.get(AUDIT_ENV_VAR, "off")
    for value in (requested, env):
        if value not in AUDIT_LEVELS:
            raise ConfigError(f"audit level must be one of {AUDIT_LEVELS}, "
                              f"got {value!r}")
    return max(requested, env, key=AUDIT_LEVELS.index)


class InvariantViolation(AssertionError):
    """A runtime protocol invariant broke.

    Subclasses :class:`AssertionError`: the auditor is an executable
    assertion layer over the protocol.  The :attr:`signature` is the
    stable identity the chaos engine shrinks against and repro bundles
    replay to — it deliberately excludes cycle numbers and node ids so a
    shrunk scenario (different timing, same bug) still matches.
    """

    def __init__(self, invariant: str, message: str, *,
                 cycle: Optional[int] = None, node: Optional[int] = None,
                 block: Optional[int] = None, txn=None,
                 trail: Sequence[str] = ()) -> None:
        self.invariant = invariant
        self.cycle = cycle
        self.node = node
        self.block = block
        self.txn = txn
        #: Formatted tail of the protocol-event trail at violation time.
        self.trail = tuple(trail)
        where = ", ".join(
            f"{label}={value!r}"
            for label, value in (("cycle", cycle), ("node", node),
                                 ("block", block), ("txn", txn))
            if value is not None)
        text = f"[{invariant}] {message}"
        if where:
            text += f" ({where})"
        if self.trail:
            text += "\nprotocol-event trail (most recent last):\n  " \
                    + "\n  ".join(self.trail)
        super().__init__(text)

    @property
    def signature(self) -> str:
        """Stable failure identity used by chaos shrinking and replay."""
        return f"InvariantViolation:{self.invariant}"
