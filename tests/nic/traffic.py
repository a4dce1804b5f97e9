"""Shared differential-traffic harness for matching engines.

One hypothesis-generated :class:`TrafficCase` drives a full 2-rank
simulation against any NIC configuration *and* the pure
:class:`~repro.mpi.matching.MatchingOracle`, then compares pairings.
Every registered match backend is held to the same oracle with the same
traffic -- wildcards, FIFO ordering per (source, context), and
unexpected-queue consumption included.

The case has three phases, fenced by control messages on a dedicated
communicator context (so traffic wildcards can never steal a marker):

1. the receiver pre-posts receives, then signals ready;
2. the sender fires the messages, then signals all-sent (the in-order
   network guarantees the messages have landed first);
3. the receiver posts the post-phase receives -- these must consume from
   the unexpected queue -- then signals posted, and the sender flushes
   oracle-computed *drain* messages so every receive completes (the
   modelled subset has no MPI_Cancel).

All messages are zero-byte (eager), so sends never block on unmatched
rendezvous and unmatched messages may legally outlive the run in the
unexpected queue; the harness checks their count against the oracle too.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.core.match import ANY_TAG
from repro.mpi.communicator import WORLD_CONTEXT, Communicator
from repro.mpi.matching import MatchingOracle, OracleMessage, OracleRecv
from repro.mpi.world import MpiWorld, WorldConfig
from repro.nic.nic import NicConfig

#: the second user context (a duplicated communicator), exercising
#: context separation; kept clear of the dup() counter's range
DUP_COMM = Communicator(context=77, size=2)
#: control-plane context for the phase markers
CTRL_COMM = Communicator(context=1000, size=2)

_READY, _ALL_SENT, _POSTED = 0, 1, 2

#: the two user communicators a case's ``ctx`` index selects between
CONTEXTS = (WORLD_CONTEXT, DUP_COMM.context)


@dataclasses.dataclass(frozen=True)
class TrafficCase:
    """One generated traffic pattern (sender is rank 0, receiver rank 1).

    Receives are ``(source, tag, ctx)`` with ``source`` in
    {0, ANY_SOURCE}, ``tag`` possibly ANY_TAG, and ``ctx`` indexing
    :data:`CONTEXTS`; messages are ``(tag, ctx)``.
    """

    pre_recvs: Tuple[Tuple[int, int, int], ...]
    msgs: Tuple[Tuple[int, int], ...]
    post_recvs: Tuple[Tuple[int, int, int], ...]


def oracle_run(case: TrafficCase) -> Tuple[MatchingOracle, List[Tuple[int, int]]]:
    """Feed the case to the oracle; returns it plus the drain messages.

    Receive ids are posting ordinals (pre then post phase); message ids
    are send ordinals (traffic then drains).  The drains are derived
    from the oracle's leftover posted receives: one concrete message per
    leftover, in posted order, which provably consumes them all (older
    same-context leftovers drain first, other contexts never interfere).
    """
    oracle = MatchingOracle()
    recv_id = 0
    for source, tag, ctx in case.pre_recvs:
        oracle.post_receive(OracleRecv(recv_id, CONTEXTS[ctx], source, tag))
        recv_id += 1
    msg_id = 0
    for tag, ctx in case.msgs:
        oracle.message_arrives(OracleMessage(msg_id, CONTEXTS[ctx], 0, tag))
        msg_id += 1
    for source, tag, ctx in case.post_recvs:
        oracle.post_receive(OracleRecv(recv_id, CONTEXTS[ctx], source, tag))
        recv_id += 1
    drains: List[Tuple[int, int]] = []
    for leftover in list(oracle.posted):
        tag = 0 if leftover.tag == ANY_TAG else leftover.tag
        drains.append((tag, leftover.context))
        oracle.message_arrives(OracleMessage(msg_id, leftover.context, 0, tag))
        msg_id += 1
    assert not oracle.posted, "drain schedule failed to complete every receive"
    return oracle, drains


def _comm_for(context: int):
    """None selects MPI_COMM_WORLD inside the programs."""
    return None if context == WORLD_CONTEXT else DUP_COMM


def simulate(case: TrafficCase, nic: NicConfig):
    """Run the case on a simulated system; returns (world, the traffic
    receives' (req_id, matched send id) pairs)."""
    _, drains = oracle_run(case)

    def sender(mpi):
        yield from mpi.init()
        yield from mpi.recv(source=1, tag=_READY, size=0, comm=CTRL_COMM)
        for tag, ctx in case.msgs:
            yield from mpi.send(
                dest=1, tag=tag, size=0, comm=_comm_for(CONTEXTS[ctx])
            )
        yield from mpi.send(dest=1, tag=_ALL_SENT, size=0, comm=CTRL_COMM)
        yield from mpi.recv(source=1, tag=_POSTED, size=0, comm=CTRL_COMM)
        for tag, context in drains:
            yield from mpi.send(dest=1, tag=tag, size=0, comm=_comm_for(context))
        yield from mpi.finalize()

    def receiver(mpi):
        yield from mpi.init()
        requests = []
        for source, tag, ctx in case.pre_recvs:
            req = yield from mpi.irecv(
                source=source, tag=tag, size=0, comm=_comm_for(CONTEXTS[ctx])
            )
            requests.append(req)
        yield from mpi.send(dest=0, tag=_READY, size=0, comm=CTRL_COMM)
        yield from mpi.recv(source=0, tag=_ALL_SENT, size=0, comm=CTRL_COMM)
        for source, tag, ctx in case.post_recvs:
            req = yield from mpi.irecv(
                source=source, tag=tag, size=0, comm=_comm_for(CONTEXTS[ctx])
            )
            requests.append(req)
        yield from mpi.send(dest=0, tag=_POSTED, size=0, comm=CTRL_COMM)
        yield from mpi.waitall(requests)
        yield from mpi.finalize()
        return [(r.req_id, r.status.send_id) for r in requests]

    world = MpiWorld(WorldConfig(num_ranks=2, nic=nic))
    results = world.run({0: sender, 1: receiver}, deadline_us=500_000)
    return world, results[1]


def normalized_pairings(pairs) -> List[Tuple[int, int]]:
    """Map raw ids to dense ordinals so runs/oracles compare directly."""
    recv_order = {r: i for i, r in enumerate(sorted({r for r, _ in pairs}))}
    send_order = {s: i for i, s in enumerate(sorted({s for _, s in pairs}))}
    return sorted((recv_order[r], send_order[s]) for r, s in pairs)


def check_backend_against_oracle(case: TrafficCase, nic: NicConfig) -> None:
    """The differential assertion every registered backend must pass."""
    oracle, _ = oracle_run(case)
    # each traffic receive's status names the message it matched (the
    # control-plane markers are not among them)
    world, sim_pairs = simulate(case, nic)
    assert normalized_pairings(sim_pairs) == normalized_pairings(oracle.pairings)
    # unmatched messages sit in the unexpected queue, same count as oracle
    assert len(world.nics[1].unexpected_q) == len(oracle.unexpected)
