"""Transaction records and the paper's four performance measures.

For each invalidation transaction we record:

1. **invalidation latency** — cycles from the home starting the request
   phase until the last acknowledgment is processed at the home;
2. **number of messages** — worms injected on behalf of the transaction;
3. **network traffic** — total flit-hops (one flit crossing one link);
4. **home-node occupancy** — messages sent from plus received by the home
   node [18] (message-count proxy, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransactionRecord:
    """Outcome of one invalidation transaction."""

    txn: int
    scheme: str
    home: int
    sharers: int
    start: int
    end: int
    home_sent: int
    home_recv: int
    total_messages: int
    flit_hops: int
    #: Launch attempts consumed (1 = no retransmission; fault recovery).
    attempts: int = 1
    #: Multidestination groups degraded to unicast around known faults.
    downgrades: int = 0
    #: Blocked worm paths kept multidestination because fault-aware
    #: routing detours around the known fault map.
    reroutes: int = 0

    @property
    def retries(self) -> int:
        """Retransmission count (attempts beyond the first)."""
        return self.attempts - 1

    @property
    def latency(self) -> int:
        """Invalidation latency in network (5 ns) cycles."""
        return self.end - self.start

    @property
    def home_occupancy(self) -> int:
        """Messages handled at the home node (sent + received)."""
        return self.home_sent + self.home_recv
