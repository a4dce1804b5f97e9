"""MPI requests: the handles returned by Isend/Irecv.

A request completes when the NIC's completion (carrying the request id)
arrives back at the host.  ``MPI_Wait`` blocks the host program until
then.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional


class RequestKind(enum.Enum):
    """Which direction a request moves data."""

    SEND = "send"
    RECV = "recv"


# the members as module globals for per-call code (a load through the
# enum class is slow; see repro.network.packet)
SEND = RequestKind.SEND
RECV = RequestKind.RECV


@dataclasses.dataclass(frozen=True, slots=True)
class MpiStatus:
    """The MPI_Status of a completed receive.

    Wildcard receives learn the actual source and tag of the message they
    matched from here; ``count`` is the received payload length in bytes
    and ``send_id`` names the matched message (the sender NIC's send-entry
    uid), so each receive holds its own pairing.
    """

    source: int
    tag: int
    count: int
    send_id: int


@dataclasses.dataclass(slots=True)
class MpiRequest:
    """One outstanding nonblocking operation."""

    req_id: int
    kind: RequestKind
    rank: int
    peer: int
    tag: int
    context: int
    size: int
    done: bool = False
    #: simulated time (ps) the request was posted / completed
    posted_at: int = 0
    completed_at: int = 0
    #: matched-message envelope (receives only; None until completion)
    status: Optional[MpiStatus] = None

    @property
    def latency_ps(self) -> int:
        """Post-to-completion time; valid once ``done``."""
        if not self.done:
            raise RuntimeError(f"request {self.req_id} still in flight")
        return self.completed_at - self.posted_at
