"""The unexpected-message-queue benchmark (Section V-A, from [10]).

Two degrees of freedom: the length of the unexpected queue and the
message size.  "It deviates from the traditional way of measuring latency
in that it includes the time to post the receive for the latency
measuring message as part of the latency" -- applications post receives
every iteration, so the time to search a long unexpected queue while
posting is real, felt latency.

Protocol (2 ranks; rank 1 is the receiver under test):

* Setup: rank 0 sends ``queue_length`` *filler* messages whose tags rank 1
  will not post receives for until teardown; they pile up in rank 1's
  unexpected queue.  A ready-marker round trip confirms they have all
  arrived (the network delivers per-pair traffic in order).
* Timed loop: rank 0 stamps its send call and sends a ping; rank 1 posts
  the matching receive -- which must search the unexpected queue past
  the fillers -- and the sample is the one-way time from the send call
  to that receive's completion, so the posting time is *included*.
  (The receiver posts as soon as its previous pong is off; whether the
  ping has landed yet is a timing race the benchmark deliberately leaves
  open -- "the time to post a receive is allowed to be overlapped with
  the time to transfer the messages", the paper's conservative choice.)
* Teardown: rank 1 drains the fillers.

Baseline cost per iteration: ~queue_length entry visits on the NIC
(cache-dependent).  ALPU: the unexpected ALPU answers in O(1); only the
not-yet-inserted suffix is searched in software.  That contrast is
Figure 6.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List

from repro.sim.process import now
from repro.sim.units import ps_to_ns
from repro.workloads.runner import Plan, Samples, run


@dataclasses.dataclass(frozen=True)
class UnexpectedParams:
    """One benchmark point."""

    queue_length: int = 0
    message_size: int = 0
    iterations: int = 20
    warmup: int = 4

    def __post_init__(self) -> None:
        if self.queue_length < 0:
            raise ValueError("queue_length must be >= 0")
        if self.message_size < 0 or self.iterations < 1 or self.warmup < 0:
            raise ValueError(f"invalid parameters: {self}")


@dataclasses.dataclass
class UnexpectedResult(Samples):
    """Samples for one parameter point."""

    entries_traversed: int


#: tag bases; fillers, pings and control tags never collide
_FILLER_BASE = 0
_PING_BASE = 1 << 14
_PONG_TAG = (1 << 15) + 1
_READY_TAG = (1 << 15) + 2
_DONE_TAG = (1 << 15) + 3


def _plan(params: UnexpectedParams) -> Plan:
    """One (queue length, size) point on a 2-rank system."""
    total_iters = params.warmup + params.iterations
    fillers = params.queue_length
    #: per-iteration send timestamps (see preposted.py: with the global
    #: simulator clock, one-way latency needs no round-trip halving)
    send_stamps: List[int] = [0] * total_iters

    def sender(mpi):
        yield from mpi.init()
        # pre-post every pong receive outside the timed path
        pongs = []
        for _ in range(total_iters):
            pong = yield from mpi.irecv(source=1, tag=_PONG_TAG, size=0)
            pongs.append(pong)
        # build the victim's unexpected queue
        for j in range(fillers):
            yield from mpi.send(
                dest=1, tag=_FILLER_BASE + j, size=params.message_size
            )
        # ready marker travels behind the fillers (in-order network), so
        # its arrival proves they are all queued
        yield from mpi.send(dest=1, tag=_READY_TAG, size=0)
        yield from mpi.recv(source=1, tag=_READY_TAG, size=0)

        for iteration in range(total_iters):
            send_stamps[iteration] = yield now()
            ping = yield from mpi.send(
                dest=1, tag=_PING_BASE + iteration, size=params.message_size
            )
            if mpi.recorder.enabled:
                mpi.recorder.label_request(
                    mpi.rank,
                    ping.req_id,
                    "ping",
                    iteration=iteration,
                    timed=iteration >= params.warmup,
                )
            yield from mpi.wait(pongs[iteration])
        yield from mpi.recv(source=1, tag=_DONE_TAG, size=0)
        yield from mpi.finalize()
        return None

    def receiver(mpi):
        yield from mpi.init()
        yield from mpi.recv(source=0, tag=_READY_TAG, size=0)
        yield from mpi.send(dest=0, tag=_READY_TAG, size=0)

        samples: List[float] = []
        traversed_mark = 0
        for iteration in range(total_iters):
            # the timed operation: posting this receive searches the
            # unexpected queue past `fillers` entries, and the sample runs
            # from the sender's send call to this receive's completion --
            # so the posting time is *included* in the latency, as the
            # paper's benchmark requires
            request = yield from mpi.recv(
                source=0, tag=_PING_BASE + iteration, size=params.message_size
            )
            if iteration >= params.warmup:
                samples.append(
                    ps_to_ns(request.completed_at - send_stamps[iteration])
                )
            yield from mpi.send(dest=0, tag=_PONG_TAG, size=0)
            if iteration == params.warmup - 1:
                traversed_mark = mpi.world.nics[1].firmware.entries_traversed
        traversed = mpi.world.nics[1].firmware.entries_traversed - traversed_mark
        # teardown: drain the fillers
        yield from mpi.send(dest=0, tag=_DONE_TAG, size=0)
        for j in range(fillers):
            yield from mpi.recv(
                source=0, tag=_FILLER_BASE + j, size=params.message_size
            )
        yield from mpi.finalize()
        return samples, traversed

    def summarize(world, results):
        samples, traversed = results[1]
        return UnexpectedResult(latencies_ns=samples, entries_traversed=traversed)

    return Plan(programs={0: sender, 1: receiver}, summarize=summarize)


run_unexpected = functools.partial(run, _plan)
