"""Trace utilities: block allocation and trace statistics.

Application data structures are laid out as runs of cache-block ids; the
block-interleaved home mapping (block mod N) then spreads each structure
across the machine, as paper-era DSMs did with round-robin page/block
placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class BlockAllocator:
    """Sequential allocator of cache-block id ranges."""

    def __init__(self) -> None:
        self._next = 0
        self.regions: dict[str, tuple[int, int]] = {}

    def alloc(self, nblocks: int, label: str) -> int:
        """Reserve ``nblocks`` consecutive block ids; returns the first."""
        if nblocks < 1:
            raise ValueError("allocation must be at least one block")
        if label in self.regions:
            raise ValueError(f"region {label!r} already allocated")
        start = self._next
        self._next += nblocks
        self.regions[label] = (start, nblocks)
        return start

    def region(self, label: str) -> range:
        """Block-id range of a named region."""
        start, n = self.regions[label]
        return range(start, start + n)

    @property
    def total_blocks(self) -> int:
        """Blocks allocated so far."""
        return self._next


def blocks_for_bytes(nbytes: int, block_bytes: int) -> int:
    """Blocks needed to hold ``nbytes``."""
    return -(-nbytes // block_bytes)


@dataclass
class TraceStats:
    """Static shape of a trace set (before simulation)."""

    processors: int
    references: int
    reads: int
    writes: int
    barriers: int
    think_cycles: int
    distinct_blocks: int


def trace_stats(traces: dict[int, Sequence[tuple]]) -> TraceStats:
    """Summarize a per-node trace dict."""
    reads = writes = barriers = think = 0
    blocks: set[int] = set()
    for trace in traces.values():
        for entry in trace:
            kind = entry[0]
            if kind == "R":
                reads += 1
                blocks.add(entry[1])
            elif kind == "W":
                writes += 1
                blocks.add(entry[1])
            elif kind == "barrier":
                barriers += 1
            elif kind == "think":
                think += entry[1]
            else:
                raise ValueError(f"unknown trace entry {entry!r}")
    return TraceStats(processors=len(traces), references=reads + writes,
                      reads=reads, writes=writes, barriers=barriers,
                      think_cycles=think, distinct_blocks=len(blocks))

