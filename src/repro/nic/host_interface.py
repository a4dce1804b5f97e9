"""The host <-> NIC boundary.

"The main processor is only required to dispatch message requests to the
NIC and wait for request completion" (Section V-C).  Commands travel
host -> NIC over an I/O link (HyperTransport-class latency); completions
travel back the same way.  Both are small writes; serialization is
negligible next to the per-transaction latency, so the links are pure
latency pipes.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.sim.units import ns

#: one-way host<->NIC command/completion latency (HyperTransport class)
HOST_NIC_LATENCY_PS = ns(100)


@dataclasses.dataclass(frozen=True, slots=True)
class PostRecv:
    """Host asks the NIC to post a receive.

    ``source``/``tag`` may be the wildcard sentinels (ANY_SOURCE/ANY_TAG);
    the NIC packs them into match/mask bits.  ``rank`` identifies the
    issuing MPI process when several share the NIC (the paper's footnote
    1 extension); the NIC folds its local process id into the match word
    so co-located processes can never cross-match.
    """

    req_id: int
    context: int
    source: int
    tag: int
    size: int
    #: host memory address of the destination buffer
    buffer_addr: int
    #: global rank of the issuing process
    rank: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class PostSend:
    """Host asks the NIC to send a message."""

    req_id: int
    dest: int
    context: int
    tag: int
    size: int
    #: host memory address of the source buffer
    buffer_addr: int
    #: global rank of the issuing process
    rank: int = 0


HostCommand = Union[PostRecv, PostSend]


@dataclasses.dataclass(frozen=True, slots=True)
class Completion:
    """NIC tells the host a request finished.

    For receives the NIC fills in the matched message's envelope, payload
    length and send id -- the wire format behind ``MPI_Status`` (a
    wildcard receive cannot otherwise learn who it matched).  Sends leave
    the status fields at their defaults.
    """

    req_id: int
    #: matched message's source rank (receives; -1 for sends)
    source: int = -1
    #: matched message's tag (receives; -1 for sends)
    tag: int = -1
    #: matched message's payload length in bytes
    size: int = 0
    #: matched message's send id, the sender NIC's send-entry uid
    #: (receives; -1 for sends)
    send_id: int = -1
