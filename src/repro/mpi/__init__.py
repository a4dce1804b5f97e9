"""The MPI-1.2 subset of Figure 4, running on simulated nodes.

"The prototype MPI implements a subset of MPI-1.2.  With the exception of
MPI_Barrier(), only basic point-to-point communication and basic support
functions were implemented. ... MPI_COMM_WORLD is the only group."
(Section V-C.)  Functions marked with a dagger in Fig. 4 are built from
other MPI functions; we follow that: Send/Recv wrap Isend/Irecv + Wait,
Waitall wraps Wait, and Barrier is a dissemination exchange of zero-byte
messages on a reserved context.

The API is exposed through :class:`~repro.mpi.api.MpiProcess`, whose
methods are generators driven inside a host-program simulation process:

    def program(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(dest=1, tag=7, size=0)
        else:
            status = yield from mpi.recv(source=0, tag=7)
        yield from mpi.barrier()
        yield from mpi.finalize()

:mod:`repro.mpi.world` assembles hosts, NICs and the fabric into a
runnable system.  The pure (untimed) model of MPI matching semantics the
simulated system is checked against lives with the tests
(``tests/mpi/matching.py``).
"""

from repro.mpi.datatypes import Datatype, MPI_BYTE, MPI_INT, MPI_DOUBLE
from repro.mpi.communicator import Communicator, COLLECTIVE_CONTEXT, WORLD_CONTEXT
from repro.mpi.request import MpiRequest, MpiStatus, RequestKind
from repro.mpi.api import MpiProcess, MpiError
from repro.mpi.world import MpiWorld, WorldConfig

__all__ = [
    "Datatype",
    "MPI_BYTE",
    "MPI_INT",
    "MPI_DOUBLE",
    "Communicator",
    "COLLECTIVE_CONTEXT",
    "WORLD_CONTEXT",
    "MpiRequest",
    "MpiStatus",
    "RequestKind",
    "MpiProcess",
    "MpiError",
    "MpiWorld",
    "WorldConfig",
]
