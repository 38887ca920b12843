"""Coherence message types exchanged between cache and directory
controllers.  Invalidation-phase traffic (inval worms, acks, gathers) is
defined by the engine in :mod:`repro.core.engine`; the types here cover
the rest of the protocol."""

from __future__ import annotations

from enum import Enum


class CohType(Enum):
    """Protocol message types."""

    #: Requester -> home: read miss.
    RD_REQ = "rd_req"
    #: Requester -> home: write miss, or upgrade when already shared.
    WR_REQ = "wr_req"
    #: Home -> requester: block data, shared (read) grant.
    DATA_REPLY = "data_reply"
    #: Home -> requester: exclusive (write) grant, with data on a miss.
    EX_GRANT = "ex_grant"
    #: Home -> current owner: downgrade to shared, send the dirty block.
    RECALL_SH = "recall_sh"
    #: Home -> current owner: invalidate, send the dirty block.
    RECALL_INV = "recall_inv"
    #: Owner -> home: dirty block data in answer to a recall, or a
    #: voluntary writeback on eviction.
    WB_DATA = "wb_data"


def coh_payload(mtype: CohType, block: int, requester: int,
                **extra) -> dict:
    """Build the worm payload dict for a coherence message."""
    payload = {"role": "coh", "type": mtype, "block": block,
               "requester": requester}
    payload.update(extra)
    return payload
