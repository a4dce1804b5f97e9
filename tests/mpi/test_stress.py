"""Stress: four ranks, mixed traffic, all matching engines.

A small but adversarial workload -- all-to-all bursts with mixed tags,
wildcard collectors, barriers between phases, and an eager/rendezvous
size mix -- run to completion on every NIC configuration.  Completion
itself is the assertion (no lost message, no mispairing deadlock), plus
conservation checks on the queues.
"""

import pytest

from repro.core.match import ANY_SOURCE, ANY_TAG
from repro.mpi.world import MpiWorld, WorldConfig
from repro.nic.firmware import FirmwareConfig
from repro.nic.nic import NicConfig

PRESETS = [
    NicConfig.baseline(),
    NicConfig.with_alpu(total_cells=64, block_size=8),
    NicConfig(firmware=FirmwareConfig(matching="hash")),
]
PRESET_IDS = ["baseline", "alpu64", "hash"]

RANKS = 4
PHASES = 3
BIG = 16 * 1024  # rendezvous territory


def program(mpi):
    yield from mpi.init()
    rank = mpi.comm_rank()
    size = mpi.comm_size()
    received = []
    for phase in range(PHASES):
        # all-to-all burst: everyone isends to everyone (self excluded)
        sends = []
        for peer in range(size):
            if peer == rank:
                continue
            payload = BIG if (rank + peer + phase) % 3 == 0 else 64
            req = yield from mpi.isend(
                dest=peer, tag=phase * 10 + rank, size=payload
            )
            sends.append(req)
        # collect with wildcards: we know how many, not from whom first
        for _ in range(size - 1):
            req = yield from mpi.recv(source=ANY_SOURCE, tag=ANY_TAG, size=BIG)
            assert req.status.source != rank
            assert req.status.tag // 10 == phase
            received.append((req.status.tag, req.status.source))
        yield from mpi.waitall(sends)
        yield from mpi.barrier()
    yield from mpi.finalize()
    return received


@pytest.mark.parametrize("nic", PRESETS, ids=PRESET_IDS)
def test_all_to_all_stress(nic):
    world = MpiWorld(WorldConfig(num_ranks=RANKS, nic=nic))
    results = world.run(
        {rank: program for rank in range(RANKS)}, deadline_us=500_000
    )
    assert all(len(got) == PHASES * (RANKS - 1) for got in results.values())
    for node in world.nics:
        # conservation: every queue drained, every buffer released
        assert len(node.posted_recv_q) == 0
        assert len(node.unexpected_q) == 0
        assert len(node.send_q) == 0
        assert not node.firmware.active_recv_q
        assert not node.firmware.pending_rndv_sends
        if node.posted_device is not None:
            assert node.posted_device.alpu.occupancy == 0
            assert node.unexpected_device.alpu.occupancy == 0


def test_stress_pairings_agree_across_engines():
    """All engines must deliver the same multiset of (phase, sender) at
    every rank -- the end-to-end no-configuration-changes-semantics
    check under real contention.  Each rank's receive statuses give the
    multiset (the tag encodes phase and sender); its size is the rank's
    count of matched application receives."""
    snapshots = []
    for nic in PRESETS:
        world = MpiWorld(WorldConfig(num_ranks=RANKS, nic=nic))
        results = world.run(
            {rank: program for rank in range(RANKS)}, deadline_us=500_000
        )
        snapshot = tuple(sorted(results[rank]) for rank in range(RANKS))
        snapshots.append(snapshot)
    assert all(snapshot == snapshots[0] for snapshot in snapshots)
