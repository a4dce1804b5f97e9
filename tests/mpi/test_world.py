"""Tests for system assembly and the job harness."""

import pytest

from repro.core.match import ANY_SOURCE, ANY_TAG
from repro.mpi.world import DeadlockError, MpiWorld, RankFailedError, WorldConfig
from repro.nic.nic import NicConfig
from repro.sim.engine import SimulationError


def test_world_builds_one_node_per_rank():
    world = MpiWorld(WorldConfig(num_ranks=3))
    assert len(world.nics) == 3
    assert len(world.hosts) == 3
    assert world.comm_world.size == 3


def test_missing_program_rejected():
    world = MpiWorld(WorldConfig(num_ranks=2))
    with pytest.raises(ValueError, match="ranks \\[1\\]"):
        world.run({0: lambda mpi: iter(())})


def test_deadline_detects_stalls():
    def stuck(mpi):
        yield from mpi.init()
        yield from mpi.recv(source=1, tag=0, size=0)  # never sent

    def idle(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=2))
    with pytest.raises(RuntimeError, match="deadlock"):
        world.run({0: stuck, 1: idle}, deadline_us=500.0)


def test_return_values_collected_per_rank():
    def program(mpi):
        yield from mpi.init()
        yield from mpi.finalize()
        return mpi.rank * 10

    world = MpiWorld(WorldConfig(num_ranks=2))
    assert world.run({0: program, 1: program}) == {0: 0, 1: 10}


def test_per_rank_nic_overrides():
    config = WorldConfig(
        num_ranks=2,
        nic=NicConfig.baseline(),
        nic_overrides={1: NicConfig.with_alpu(32, 8)},
    )
    world = MpiWorld(config)
    assert world.nics[0].posted_device is None
    assert world.nics[1].posted_device is not None
    assert world.nics[1].posted_device.alpu.capacity == 32


def test_simulated_time_advances():
    def program(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(dest=1, tag=0, size=0)
        else:
            yield from mpi.recv(source=0, tag=0, size=0)
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=2))
    world.run({0: program, 1: program})
    assert world.now_ps > 200_000  # at least the wire latency


def test_engine_stops_at_last_program_not_at_deadline():
    def program(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=2))
    world.run({0: program, 1: program}, deadline_us=1_000_000)
    # the clock must reflect program completion, not the huge deadline
    assert world.now_ps < 1_000_000_000


def test_deadlock_is_typed_and_names_the_unfinished_ranks():
    def stuck(mpi):
        yield from mpi.init()
        yield from mpi.recv(source=2, tag=0, size=0)  # never sent

    def idle(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=3))
    with pytest.raises(DeadlockError, match=r"ranks \[0, 1\]") as excinfo:
        world.run({0: stuck, 1: stuck, 2: idle}, deadline_us=100.0)
    assert isinstance(excinfo.value, SimulationError)
    assert excinfo.value.ranks == [0, 1]


def test_failed_rank_is_typed_and_chained_to_its_exception():
    class Boom(Exception):
        pass

    def failing(mpi):
        yield from mpi.init()
        raise Boom("rank program bug")

    def idle(mpi):
        yield from mpi.init()
        yield from mpi.finalize()

    world = MpiWorld(WorldConfig(num_ranks=2))
    with pytest.raises(RankFailedError, match="rank 1 failed") as excinfo:
        world.run({0: idle, 1: failing}, deadline_us=100.0)
    assert isinstance(excinfo.value, SimulationError)
    assert excinfo.value.rank == 1
    assert isinstance(excinfo.value.__cause__, Boom)


@pytest.mark.parametrize("backend", ["list", "alpu"])
def test_identical_runs_in_one_process_report_identical_send_ids(backend):
    """Queue-entry uids, and so send ids, are numbered per world."""

    def program(mpi):
        yield from mpi.init()
        statuses = []
        if mpi.rank == 0:
            for tag in range(6):
                yield from mpi.send(dest=1, tag=tag % 3, size=8)
        else:
            for _ in range(6):
                request = yield from mpi.recv(ANY_SOURCE, ANY_TAG, size=8)
                statuses.append(request.status)
        yield from mpi.finalize()
        return statuses

    def send_ids():
        world = MpiWorld(
            WorldConfig(num_ranks=2, nic=NicConfig.with_backend(backend))
        )
        return [status.send_id for status in world.run({0: program, 1: program})[1]]

    first = send_ids()
    assert len(set(first)) == 6
    assert send_ids() == first
