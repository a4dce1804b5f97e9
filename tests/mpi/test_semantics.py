"""End-to-end MPI matching semantics, differentially against the oracle.

These tests run full simulations (hosts, NICs, wire) and compare the
observed pairings -- (recv request, sender message), read from each
receive's status -- with the pure :class:`MatchingOracle` fed the same
traffic in the same order.
The same traffic runs on the baseline NIC and on ALPU NICs; all three
must pair identically.
"""

import random

import pytest

from repro.core.match import ANY_SOURCE, ANY_TAG
from repro.mpi.world import MpiWorld, WorldConfig
from repro.nic.nic import NicConfig

from repro.nic.firmware import FirmwareConfig

PRESETS = [
    NicConfig.baseline(),
    NicConfig.with_alpu(total_cells=16, block_size=4),
    NicConfig.with_alpu(total_cells=64, block_size=8),
    NicConfig(firmware=FirmwareConfig(matching="hash")),
]
PRESET_IDS = ["baseline", "alpu16", "alpu64", "hash"]


def run_pair(sender_program, receiver_program, nic):
    world = MpiWorld(WorldConfig(num_ranks=2, nic=nic))
    results = world.run(
        {0: sender_program, 1: receiver_program}, deadline_us=200_000
    )
    return world, results


@pytest.mark.parametrize("nic", PRESETS, ids=PRESET_IDS)
def test_same_tag_messages_pair_in_send_order(nic):
    """The MPI ordering constraint: same (source, context) messages match
    same-signature receives in send order."""
    count = 8

    def sender(mpi):
        yield from mpi.init()
        for _ in range(count):
            yield from mpi.send(dest=1, tag=5, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        requests = []
        for _ in range(count):
            req = yield from mpi.irecv(source=0, tag=5, size=0)
            requests.append(req)
        yield from mpi.waitall(requests)
        yield from mpi.finalize()
        return [(r.completed_at, r.req_id, r.status.send_id) for r in requests]

    _, results = run_pair(sender, receiver, nic)
    # in completion order: receives consumed oldest-first, messages in
    # send (uid) order
    pairings = sorted(results[1], key=lambda record: record[0])
    recv_ids = [recv_id for _, recv_id, _ in pairings]
    send_ids = [send_id for _, _, send_id in pairings]
    assert len(set(send_ids)) == count
    assert recv_ids == sorted(recv_ids)
    assert send_ids == sorted(send_ids)


@pytest.mark.parametrize("nic", PRESETS, ids=PRESET_IDS)
def test_any_source_receive_beats_newer_exact_receive(nic):
    """Ordering beats specificity -- the property that breaks LPM-style
    hardware and that the ALPU must preserve (Section II)."""

    def sender(mpi):
        yield from mpi.init()
        yield from mpi.recv(source=1, tag=100, size=0)  # "receives posted"
        yield from mpi.send(dest=1, tag=7, size=0)
        yield from mpi.recv(source=1, tag=101, size=0)
        yield from mpi.send(dest=1, tag=7, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        wildcard = yield from mpi.irecv(source=ANY_SOURCE, tag=7, size=0)
        exact = yield from mpi.irecv(source=0, tag=7, size=0)
        yield from mpi.send(dest=0, tag=100, size=0)  # release message 1
        yield from mpi.wait(wildcard)
        # the ANY_SOURCE receive was older, so it -- not the more-specific
        # exact receive -- must have taken the first message
        first_message_took_exact = exact.done
        yield from mpi.send(dest=0, tag=101, size=0)  # release message 2
        yield from mpi.wait(exact)
        yield from mpi.finalize()
        return first_message_took_exact

    _, results = run_pair(sender, receiver, nic)
    assert results[1] is False


@pytest.mark.parametrize("nic", PRESETS, ids=PRESET_IDS)
def test_random_traffic_pairs_in_strict_arrival_order(nic):
    """Random all-wildcard receives against random-tag messages.

    Every receive accepts every message (ANY_TAG with a single sender),
    so MPI's ordering constraint forces an order-preserving bijection:
    the i-th posted receive must take the i-th sent message, regardless
    of how posting and arrival interleave -- on the baseline *and* both
    ALPU NICs, even when messages land unexpected mid-posting.
    """
    rng = random.Random(1234)
    sends = [rng.randrange(3) for _ in range(14)]
    recv_sources = [rng.choice([ANY_SOURCE, 0]) for _ in range(14)]

    def sender(mpi):
        yield from mpi.init()
        for tag in sends:
            yield from mpi.send(dest=1, tag=tag, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        requests = []
        for source in recv_sources:
            req = yield from mpi.irecv(source=source, tag=ANY_TAG, size=0)
            requests.append(req)
        yield from mpi.waitall(requests)
        yield from mpi.finalize()
        return [r.status.send_id for r in requests]

    _, results = run_pair(sender, receiver, nic)
    paired_send_uids = results[1]
    assert len(set(paired_send_uids)) == len(sends)
    # order-preserving: i-th receive <- i-th message
    assert paired_send_uids == sorted(paired_send_uids)


@pytest.mark.parametrize("nic", PRESETS, ids=PRESET_IDS)
def test_context_separation_via_comm_dup(nic):
    """Same tag on a duplicated communicator must not cross-match.

    Communicator duplication is collective in MPI: both ranks must agree
    on the new context id, so the test builds one shared communicator.
    """
    from repro.mpi.communicator import Communicator

    duplicated = Communicator(context=99, size=2)

    def sender(mpi):
        yield from mpi.init()
        # send on the duplicate first, then on the world
        yield from mpi.send(dest=1, tag=9, size=0, comm=duplicated)
        yield from mpi.send(dest=1, tag=9, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        world_req = yield from mpi.irecv(source=0, tag=9, size=0)
        dup_req = yield from mpi.irecv(source=0, tag=9, size=0, comm=duplicated)
        yield from mpi.waitall([world_req, dup_req])
        yield from mpi.finalize()
        return world_req.status.send_id, dup_req.status.send_id

    _, results = run_pair(sender, receiver, nic)
    world_send_id, dup_send_id = results[1]
    assert world_send_id != dup_send_id
    # the dup-context message was sent first (lower send uid) and must
    # have paired with the dup-context receive, not the world receive --
    # even though the world receive was posted first
    assert dup_send_id < world_send_id


def test_identical_pairings_across_all_presets():
    """The acid test: baseline and ALPU NICs pair identically.

    The receive tags mirror the send tags in order (so the trace always
    completes), with wildcards sprinkled in positions where they must
    take the same message an exact receive would.
    """
    send_tags = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def sender(mpi):
        yield from mpi.init()
        for tag in send_tags:
            yield from mpi.send(dest=1, tag=tag, size=0)
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        requests = []
        for i, tag in enumerate(send_tags):
            source = ANY_SOURCE if i % 4 == 0 else 0
            recv_tag = ANY_TAG if i % 5 == 0 else tag
            req = yield from mpi.irecv(source=source, tag=recv_tag, size=0)
            requests.append(req)
        yield from mpi.waitall(requests)
        yield from mpi.finalize()
        return [(r.req_id, r.status.send_id) for r in requests]

    observed = []
    for nic in PRESETS:
        _, results = run_pair(sender, receiver, nic)
        # normalize uids to ordinals (raw uids differ across runs)
        pairs = results[1]
        order = {send: i for i, send in enumerate(sorted({s for _, s in pairs}))}
        recv_order = {r: i for i, r in enumerate(sorted({r for r, _ in pairs}))}
        observed.append(sorted((recv_order[r], order[s]) for r, s in pairs))
    assert all(observation == observed[0] for observation in observed)
