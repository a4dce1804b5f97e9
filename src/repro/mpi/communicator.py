"""Communicators and context ids.

"The context identifier represents an MPI communicator object.  This
system-assigned message tag provides a safe message passing context so
that messages from one context do not interfere with messages from other
contexts" (Section II).  MPI_COMM_WORLD is the only *group* the paper's
prototype supports.  A communicator over the world group with another
context id (``Communicator(context=..., size=...)``) exercises the
context-matching path without adding groups.

Context 0 is reserved for library-internal traffic (the Barrier
implementation), so user point-to-point traffic can never collide with
collective traffic -- the standard trick.
"""

from __future__ import annotations

import dataclasses

#: context id reserved for library collectives (Barrier)
COLLECTIVE_CONTEXT = 0
#: context id of MPI_COMM_WORLD's point-to-point space
WORLD_CONTEXT = 1


@dataclasses.dataclass(frozen=True)
class Communicator:
    """A communication context over the world group."""

    context: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"communicator needs at least one rank: {self}")
        if self.context < 0:
            raise ValueError(f"negative context id: {self}")

    def check_rank(self, rank: int) -> None:
        """Validate a peer rank against this communicator's group."""
        if not 0 <= rank < self.size:
            raise ValueError(
                f"rank {rank} out of range for communicator of size {self.size}"
            )


def world(size: int) -> Communicator:
    """MPI_COMM_WORLD for a job of ``size`` ranks."""
    return Communicator(context=WORLD_CONTEXT, size=size)
