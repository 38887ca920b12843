"""Fully-mapped directory: state + presence-bit pointer array [44].

One :class:`Directory` instance per home node holds an entry per block
that node is home to.  The *waiting* state covers every multi-step
transaction (invalidation rounds, owner recalls); requests arriving
meanwhile queue FIFO on the entry and are replayed in order, which keeps
the protocol sequentially consistent without NAKs.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Optional


class DirectoryState(Enum):
    """Directory entry states (paper Sec. 2.2)."""

    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"
    #: Transitory: a transaction is in flight for this block.
    WAITING = "waiting"


class DirectoryEntry:
    """State, presence bits, and the deferred-request queue of one block."""

    __slots__ = ("block", "state", "presence", "owner", "queue",
                 "saved_state", "in_service", "overflow", "audit")

    def __init__(self, block: int) -> None:
        self.block = block
        #: Runtime invariant auditor (None = auditing off).
        self.audit = None
        self.state = DirectoryState.UNCACHED
        #: Nodes holding a valid shared copy (the pointer array).
        self.presence: set[int] = set()
        #: Exclusive owner when state is EXCLUSIVE.
        self.owner: Optional[int] = None
        #: Requests awaiting strictly-FIFO service.
        self.queue: deque = deque()
        #: State to restore semantics from while WAITING.
        self.saved_state: Optional[DirectoryState] = None
        #: True while the entry's service loop is draining the queue.
        self.in_service = False
        #: Limited-pointer overflow bit (Dir_i B): once set, the sharer
        #: set is only known to be a superset of ``presence`` and an
        #: invalidation must broadcast.
        self.overflow = False

    @property
    def busy(self) -> bool:
        """True while a multi-step transaction holds the entry."""
        return self.state is DirectoryState.WAITING

    def begin_transaction(self) -> None:
        """Enter WAITING, remembering the pre-transaction state."""
        if self.busy:
            raise RuntimeError(f"block {self.block} already waiting")
        if self.audit is not None:
            self.audit.on_dir_begin(self)
        self.saved_state = self.state
        self.state = DirectoryState.WAITING

    def make_uncached(self) -> None:
        """Reset to UNCACHED (after a writeback retires the block)."""
        prev = self.state
        self.state = DirectoryState.UNCACHED
        self.presence.clear()
        self.owner = None
        self.saved_state = None
        self.overflow = False
        if self.audit is not None:
            self.audit.on_dir_transition(self, prev)

    def make_shared(self, nodes: set[int],
                    pointer_limit: Optional[int] = None) -> None:
        """Record ``nodes`` as sharers.  With a pointer limit (Dir_i B),
        nodes beyond the limit set the overflow bit instead of a
        presence bit; overflow persists until the next invalidation or
        writeback clears the entry."""
        if not nodes:
            raise ValueError("shared entry needs at least one sharer")
        prev = self.state
        self.state = DirectoryState.SHARED
        if pointer_limit is None:
            self.presence = set(nodes)
        else:
            keep = set(self.presence) & set(nodes)
            for n in sorted(nodes):
                if n in keep:
                    continue
                if len(keep) >= pointer_limit:
                    self.overflow = True
                else:
                    keep.add(n)
            self.presence = keep
        self.owner = None
        self.saved_state = None
        if self.audit is not None:
            self.audit.on_dir_transition(self, prev)

    def make_exclusive(self, owner: int) -> None:
        """Grant exclusive ownership to ``owner``."""
        prev = self.state
        self.state = DirectoryState.EXCLUSIVE
        self.presence = {owner}
        self.owner = owner
        self.saved_state = None
        self.overflow = False
        if self.audit is not None:
            self.audit.on_dir_transition(self, prev)


class Directory:
    """All directory entries homed at one node."""

    #: Runtime invariant auditor propagated onto new entries
    #: (None = auditing off).
    audit = None

    def __init__(self, home: int) -> None:
        self.home = home
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        """Entry for ``block`` (created UNCACHED on first touch)."""
        e = self._entries.get(block)
        if e is None:
            e = DirectoryEntry(block)
            e.audit = self.audit
            self._entries[block] = e
        return e

    def known_blocks(self) -> list[int]:
        """Blocks with a directory entry, for inspection."""
        return sorted(self._entries)
