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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "datatypes": ("Datatype", "MPI_BYTE", "MPI_INT", "MPI_DOUBLE"),
        "communicator": ("Communicator", "COLLECTIVE_CONTEXT", "WORLD_CONTEXT"),
        "request": ("MpiRequest", "MpiStatus", "RequestKind"),
        "api": ("MpiProcess", "MpiError"),
        "world": ("MpiWorld", "WorldConfig", "RankFailedError", "DeadlockError"),
    },
)
