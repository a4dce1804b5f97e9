"""Tests for the MPI API surface (the Fig. 4 subset) on live systems."""

import pytest

from repro.core.match import ANY_SOURCE, ANY_TAG
from repro.mpi.api import MpiError
from repro.mpi.datatypes import MPI_DOUBLE, MPI_INT
from repro.mpi.world import MpiWorld, RankFailedError, WorldConfig
from repro.nic.nic import NicConfig


def run_world(programs, num_ranks=2, nic=None):
    """Run the programs; a failed rank re-raises its own exception."""
    world = MpiWorld(
        WorldConfig(num_ranks=num_ranks, nic=nic or NicConfig.baseline())
    )
    try:
        return world.run(programs, deadline_us=100_000)
    except RankFailedError as failed:
        raise failed.__cause__


def test_rank_and_size():
    def program(mpi):
        yield from mpi.init()
        rank = mpi.comm_rank()
        size = mpi.comm_size()
        yield from mpi.finalize()
        return (rank, size)

    results = run_world({0: program, 1: program})
    assert results == {0: (0, 2), 1: (1, 2)}


def test_blocking_send_recv_roundtrip():
    def sender(mpi):
        yield from mpi.init()
        yield from mpi.send(dest=1, tag=7, size=64)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        request = yield from mpi.recv(source=0, tag=7, size=64)
        yield from mpi.finalize()
        return request.latency_ps

    results = run_world({0: sender, 1: receiver})
    assert results[1] > 0


def test_isend_irecv_waitall():
    def sender(mpi):
        yield from mpi.init()
        requests = []
        for i in range(4):
            req = yield from mpi.isend(dest=1, tag=i, size=0)
            requests.append(req)
        yield from mpi.waitall(requests)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        requests = []
        for i in range(4):
            req = yield from mpi.irecv(source=0, tag=i, size=0)
            requests.append(req)
        yield from mpi.waitall(requests)
        yield from mpi.finalize()
        return [r.done for r in requests]

    assert run_world({0: sender, 1: receiver})[1] == [True] * 4


def test_wildcard_receive():
    def sender(mpi):
        yield from mpi.init()
        yield from mpi.send(dest=1, tag=1234, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        request = yield from mpi.recv(source=ANY_SOURCE, tag=ANY_TAG, size=0)
        yield from mpi.finalize()
        return request.done

    assert run_world({0: sender, 1: receiver})[1] is True


def test_barrier_two_ranks():
    def program(mpi):
        yield from mpi.init()
        yield from mpi.barrier()
        yield from mpi.finalize()
        return True

    assert run_world({0: program, 1: program}) == {0: True, 1: True}


def test_barrier_four_ranks_orders_work():
    """Rank 0 'publishes' only after the barrier; all ranks must observe
    the barrier as a synchronization point (no rank escapes early)."""
    exit_times = {}

    def program(mpi):
        yield from mpi.init()
        # stagger arrivals so the barrier has real waiting to do
        if mpi.rank == 3:
            yield from mpi.send(dest=0, tag=99, size=0)  # extra pre-work
        if mpi.rank == 0:
            yield from mpi.recv(source=3, tag=99, size=0)
        yield from mpi.barrier()
        from repro.sim.process import now

        exit_times[mpi.rank] = yield now()
        yield from mpi.finalize()

    run_world({r: program for r in range(4)}, num_ranks=4)
    assert len(exit_times) == 4


def test_rendezvous_for_large_messages():
    """Sizes above the eager threshold use RTS/CTS/DATA."""
    size = 64 * 1024

    def sender(mpi):
        yield from mpi.init()
        yield from mpi.send(dest=1, tag=1, size=size)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        request = yield from mpi.recv(source=0, tag=1, size=size)
        yield from mpi.finalize()
        return request.latency_ps

    latency = run_world({0: sender, 1: receiver})[1]
    # a rendezvous of 64 KB must cost at least 3 wire crossings + stream
    assert latency > 3 * 200_000


def test_unexpected_rendezvous_message():
    """RTS arriving before the receive is posted parks as unexpected."""
    size = 64 * 1024

    def sender(mpi):
        yield from mpi.init()
        # nonblocking: a blocking rendezvous send could not complete until
        # the receive is posted, which only happens after the marker
        big = yield from mpi.isend(dest=1, tag=5, size=size)
        yield from mpi.send(dest=1, tag=6, size=0)  # marker behind it
        yield from mpi.wait(big)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        # let both arrive unexpected, then post for the big one
        yield from mpi.recv(source=0, tag=6, size=0)
        request = yield from mpi.recv(source=0, tag=5, size=size)
        yield from mpi.finalize()
        return request.done

    assert run_world({0: sender, 1: receiver})[1] is True


# --------------------------------------------------------------- misuse
def test_call_before_init_rejected():
    def program(mpi):
        yield from mpi.send(dest=1, tag=0, size=0)

    def other(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    with pytest.raises(MpiError, match="before MPI_Init"):
        run_world({0: program, 1: other})


def test_double_init_rejected():
    def program(mpi):
        yield from mpi.init()
        yield from mpi.init()

    def other(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    with pytest.raises(MpiError, match="twice"):
        run_world({0: program, 1: other})


def test_bad_rank_rejected():
    def program(mpi):
        yield from mpi.init()
        yield from mpi.send(dest=5, tag=0, size=0)

    def other(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    with pytest.raises(ValueError, match="rank 5"):
        run_world({0: program, 1: other})


def test_finalize_with_inflight_request_rejected():
    def program(mpi):
        yield from mpi.init()
        yield from mpi.irecv(source=1, tag=0, size=0)
        yield from mpi.finalize()

    def other(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    with pytest.raises(MpiError, match="incomplete"):
        run_world({0: program, 1: other})


def test_datatype_sizes():
    assert MPI_INT.size_bytes(10) == 40
    assert MPI_DOUBLE.size_bytes(3) == 24
    with pytest.raises(ValueError):
        MPI_INT.size_bytes(-1)
