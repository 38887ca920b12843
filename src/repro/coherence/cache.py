"""Per-node cache model.

A simple fully-associative cache of whole blocks with MSI-style states.
The default capacity is unbounded — the paper's workloads are sized so
that coherence (sharing) misses, not capacity misses, dominate, and an
unbounded cache isolates exactly the invalidation traffic under study.  A
finite capacity with LRU replacement is available for capacity-pressure
experiments; shared lines evict silently, modified lines are written
back by the system layer.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from typing import Optional


class CacheState(Enum):
    """Cache line states (MSI; E is folded into M as in the paper-era
    DSM protocols where exclusive grants imply ownership)."""

    MODIFIED = "M"
    SHARED = "S"


class Cache:
    """Blocks currently held by one node, with optional LRU capacity."""

    #: Runtime invariant auditor, set by :meth:`repro.audit.Auditor.install`
    #: (None = auditing off; hooks cost one identity test).
    audit = None

    def __init__(self, node: int, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 lines or None")
        self.node = node
        self.capacity = capacity
        self._lines: OrderedDict[int, CacheState] = OrderedDict()
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.upgrades = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def state(self, block: int) -> Optional[CacheState]:
        """Line state or None when not present."""
        return self._lines.get(block)

    def __contains__(self, block: int) -> bool:
        return block in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def touch(self, block: int) -> None:
        """LRU bump on an access."""
        if block in self._lines:
            self._lines.move_to_end(block)

    def lookup(self, block: int, write: bool) -> str:
        """Classify an access: ``"hit"``, ``"upgrade"`` (shared line
        written), or ``"miss"``.  Updates statistics and LRU order."""
        state = self._lines.get(block)
        if state is None:
            self.misses += 1
            return "miss"
        self.touch(block)
        if write and state is CacheState.SHARED:
            self.upgrades += 1
            return "upgrade"
        self.hits += 1
        return "hit"

    # ------------------------------------------------------------------
    def install(self, block: int,
                state: CacheState) -> Optional[tuple[int, CacheState]]:
        """Insert/overwrite a line.  Returns an evicted ``(block, state)``
        when the capacity bound forces one out, else None."""
        victim = None
        if (self.capacity is not None and block not in self._lines
                and len(self._lines) >= self.capacity):
            vblock, vstate = self._lines.popitem(last=False)
            self.evictions += 1
            victim = (vblock, vstate)
        self._lines[block] = state
        self._lines.move_to_end(block)
        if self.audit is not None:
            self.audit.on_cache_install(self, block, state, victim)
        return victim

    def invalidate(self, block: int) -> bool:
        """Drop a line (remote invalidation); True if it was present."""
        present = self._lines.pop(block, None) is not None
        if self.audit is not None:
            self.audit.on_cache_invalidate(self, block, present)
        return present

    def downgrade(self, block: int) -> None:
        """M -> S on a recall-shared."""
        if self._lines.get(block) is not CacheState.MODIFIED:
            raise RuntimeError(
                f"node {self.node}: downgrade of non-modified block {block}")
        self._lines[block] = CacheState.SHARED
        if self.audit is not None:
            self.audit.on_cache_downgrade(self, block)
