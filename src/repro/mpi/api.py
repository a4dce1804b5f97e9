"""MPI_* calls as host-side operations (the Fig. 4 subset).

Each method is a generator driven inside the host program's simulation
process.  A call charges host-CPU cycles, pushes a command across the
host->NIC link, and (for the blocking forms) waits for the completion to
come back.  "The main processor is only required to dispatch message
requests to the NIC and wait for request completion" (Section V-C).

Wildcards: ``source=ANY_SOURCE`` and/or ``tag=ANY_TAG`` on receives are
passed through to the NIC, which packs them into ALPU mask bits.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.core.match import ANY_SOURCE, ANY_TAG
from repro.mpi.communicator import COLLECTIVE_CONTEXT, Communicator
from repro.mpi.request import RECV, SEND, MpiRequest, MpiStatus, RequestKind
from repro.nic.host_interface import Completion, PostRecv, PostSend
from repro.proc.costmodel import HostCostModel
from repro.sim.process import delay, now, wait_on


class MpiError(RuntimeError):
    """Illegal MPI usage (call before Init, bad rank, ...)."""


#: reduction operators for :meth:`MpiProcess.allreduce`; applied in rank
#: order (lower-rank partial first) so floating-point results are
#: deterministic across runs
_REDUCE_OPS = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": max,
    "min": min,
}


class MpiProcess:
    """The MPI library instance bound to one rank's host CPU."""

    def __init__(self, world, rank: int) -> None:
        # `world` is a repro.mpi.world.MpiWorld; typed loosely (cycle)
        self.world = world
        self.rank = rank
        self.host = world.hosts[rank]
        self.proc = self.host.proc
        self.cost: HostCostModel = world.config.host_cost
        self.comm_world: Communicator = world.comm_world
        self._req_ids = itertools.count(1)
        self._inflight: Dict[int, MpiRequest] = {}
        self._initialized = False
        self._finalized = False
        #: the per-message flight recorder (no-op unless the world's
        #: telemetry bundle enabled it); public so benchmark harnesses can
        #: label requests of interest (e.g. the timed pings)
        self.lifecycle = world.engine.lifecycle
        self._lifecycle = self.lifecycle
        #: host buffer allocator cursor (receives/sends get distinct buffers)
        self._buffer_cursor = 0x4000_0000 + rank * 0x100_0000
        #: per-context collective sequence numbers; every rank calls
        #: collectives on a communicator in the same order (an MPI
        #: requirement), so these counters advance in lockstep and carve
        #: out collision-free tag blocks
        self._coll_seq: Dict[int, int] = {}

    # ------------------------------------------------------------ lifecycle
    def init(self):
        """MPI_Init: bring the library up (charges setup time)."""
        if self._initialized:
            raise MpiError("MPI_Init called twice")
        yield delay(self.proc.compute(10 * self.cost.call_overhead_cycles))
        self._initialized = True

    def finalize(self):
        """MPI_Finalize: all outstanding requests must be complete."""
        self._require_init()
        pending = [r for r in self._inflight.values() if not r.done]
        if pending:
            raise MpiError(
                f"rank {self.rank}: MPI_Finalize with {len(pending)} "
                "incomplete requests"
            )
        yield delay(self.proc.compute(4 * self.cost.call_overhead_cycles))
        self._finalized = True

    # ------------------------------------------------------------- queries
    def comm_rank(self, comm: Optional[Communicator] = None) -> int:
        """MPI_Comm_rank (no simulated cost: a local read)."""
        self._require_init()
        return self.rank

    def comm_size(self, comm: Optional[Communicator] = None) -> int:
        """MPI_Comm_size."""
        self._require_init()
        return (comm or self.comm_world).size

    # ------------------------------------------------------ point to point
    def isend(
        self,
        dest: int,
        tag: int,
        size: int = 0,
        comm: Optional[Communicator] = None,
    ):
        """MPI_Isend: returns an :class:`MpiRequest` (yields sim commands)."""
        self._require_init()
        comm = comm or self.comm_world
        comm.check_rank(dest)
        if tag < 0:
            raise MpiError(f"send tag must be non-negative, got {tag}")
        request = self._new_request(SEND, dest, tag, comm, size)
        request.posted_at = yield now()
        rec = self._lifecycle
        if rec.enabled:
            rec.begin(
                "send",
                self.rank,
                request.req_id,
                request.posted_at,
                {"dest": dest, "tag": tag, "size": size},
            )
        yield delay(
            self.proc.compute(
                self.cost.call_overhead_cycles + self.cost.command_build_cycles
            )
        )
        if rec.enabled:
            rec.mark_request(self.rank, request.req_id, "host_issue")
        self.host.send_command(
            PostSend(
                req_id=request.req_id,
                dest=dest,
                context=comm.context,
                tag=tag,
                size=size,
                buffer_addr=self._alloc_buffer(size),
                rank=self.rank,
            )
        )
        return request

    def irecv(
        self,
        source: int,
        tag: int,
        size: int = 0,
        comm: Optional[Communicator] = None,
    ):
        """MPI_Irecv: source/tag may be ANY_SOURCE/ANY_TAG."""
        self._require_init()
        comm = comm or self.comm_world
        if source != ANY_SOURCE:
            comm.check_rank(source)
        if tag < 0 and tag != ANY_TAG:
            raise MpiError(f"recv tag must be non-negative or ANY_TAG, got {tag}")
        request = self._new_request(RECV, source, tag, comm, size)
        request.posted_at = yield now()
        rec = self._lifecycle
        if rec.enabled:
            rec.begin(
                "recv",
                self.rank,
                request.req_id,
                request.posted_at,
                {"source": source, "tag": tag, "size": size},
            )
        yield delay(
            self.proc.compute(
                self.cost.call_overhead_cycles + self.cost.command_build_cycles
            )
        )
        if rec.enabled:
            rec.mark_request(self.rank, request.req_id, "host_issue")
        self.host.send_command(
            PostRecv(
                req_id=request.req_id,
                context=comm.context,
                source=source,
                tag=tag,
                size=size,
                buffer_addr=self._alloc_buffer(size),
                rank=self.rank,
            )
        )
        return request

    def wait(self, request: MpiRequest):
        """MPI_Wait: block until the request's completion arrives."""
        self._require_init()
        fifo = self.host.completion_fifo
        while not request.done:
            # Entering _drain_completions on an empty FIFO would allocate
            # a generator just to return 0; the length check is the same
            # condition its first try_pop would hit.
            if len(fifo):
                yield from self._drain_completions()
            if not request.done and not len(fifo):
                yield wait_on(fifo.not_empty)
        self._inflight.pop(request.req_id, None)
        return request

    def waitall(self, requests: List[MpiRequest]):
        """MPI_Waitall (built from MPI_Wait, as in Fig. 4)."""
        for request in requests:
            yield from self.wait(request)
        return requests

    def send(self, dest: int, tag: int, size: int = 0, comm=None):
        """MPI_Send (built from Isend + Wait)."""
        request = yield from self.isend(dest, tag, size, comm)
        yield from self.wait(request)
        return request

    def recv(self, source: int, tag: int, size: int = 0, comm=None):
        """MPI_Recv (built from Irecv + Wait)."""
        request = yield from self.irecv(source, tag, size, comm)
        yield from self.wait(request)
        return request

    # ----------------------------------------------------------- collective
    #
    # Host-staged collectives: schedules built from the point-to-point
    # layer, run on the reserved COLLECTIVE_CONTEXT.  Each collective
    # claims a 64-tag block via :meth:`_collective_tags` (the per-context
    # sequence counters advance in lockstep across ranks), so back-to-
    # back collectives cannot cross-match even with deep pipelining.
    #
    # The simulator moves *sizes*, not payload bytes, so reduction /
    # broadcast values travel out-of-band on the world's collective
    # board: a sender publishes the value under a unique key before
    # injecting the matching send, and the receiver reads it only after
    # the matching receive completes -- the message's arrival is the
    # happens-before edge that makes the board read safe.

    def _collective_tags(self, comm: Communicator):
        """Claim this collective's (sequence, tag-block base) pair.

        Tags are 16 bits wide (MatchFormat); blocks of 64 rounds from a
        512-entry rotation keep the maximum tag at 32767.  The rotation
        is safe because collectives on a communicator are globally
        ordered: a tag can only be reused 512 collectives later, long
        after its messages drained.
        """
        seq = self._coll_seq.get(comm.context, 0)
        self._coll_seq[comm.context] = seq + 1
        return seq, (seq % 512) * 64

    def _publish(self, comm: Communicator, seq: int, round_index: int, value):
        """Stage ``value`` for the peer of (round, sender) on the board."""
        key = (comm.context, seq, self.rank, round_index)
        self.world.collective_board[key] = value

    def _collect(self, comm: Communicator, seq: int, round_index: int, src: int):
        """Read (and consume) the value ``src`` staged for us."""
        key = (comm.context, seq, src, round_index)
        try:
            return self.world.collective_board.pop(key)
        except KeyError:
            raise MpiError(
                f"rank {self.rank}: no staged collective value for {key}; "
                "collective schedule out of step"
            ) from None

    def barrier(self, comm: Optional[Communicator] = None):
        """MPI_Barrier: dissemination algorithm on the reserved context.

        ceil(log2(P)) rounds; in round k, send to (rank + 2^k) mod P and
        receive from (rank - 2^k) mod P.  Tags come from this barrier's
        claimed block so consecutive collectives cannot interfere.
        """
        self._require_init()
        comm = comm or self.comm_world
        size = comm.size
        _, base = self._collective_tags(comm)
        if size == 1:
            yield delay(self.proc.compute(self.cost.call_overhead_cycles))
            return
        collective = Communicator(context=COLLECTIVE_CONTEXT, size=size)
        round_index = 0
        distance = 1
        while distance < size:
            to = (self.rank + distance) % size
            frm = (self.rank - distance) % size
            send_req = yield from self.isend(
                to, tag=base + round_index, size=0, comm=collective
            )
            recv_req = yield from self.irecv(
                frm, tag=base + round_index, size=0, comm=collective
            )
            yield from self.wait(recv_req)
            yield from self.wait(send_req)
            distance <<= 1
            round_index += 1

    def bcast(
        self,
        value=None,
        root: int = 0,
        size: int = 0,
        comm: Optional[Communicator] = None,
    ):
        """MPI_Bcast: binomial tree rooted at ``root``; returns the value.

        Non-roots receive from the parent given by the lowest set bit of
        their root-relative rank, then forward to children in largest-
        offset-first order (the MPICH schedule).  ``size`` is the wire
        payload each tree edge carries.
        """
        self._require_init()
        comm = comm or self.comm_world
        comm.check_rank(root)
        p = comm.size
        seq, base = self._collective_tags(comm)
        if p == 1:
            yield delay(self.proc.compute(self.cost.call_overhead_cycles))
            return value
        collective = Communicator(context=COLLECTIVE_CONTEXT, size=p)
        relrank = (self.rank - root) % p
        # receive from the parent (lowest set bit of relrank)
        mask = 1
        while mask < p:
            if relrank & mask:
                parent = (relrank - mask + root) % p
                tag = base + mask.bit_length() - 1
                yield from self.recv(parent, tag=tag, size=size, comm=collective)
                value = self._collect(comm, seq, mask.bit_length() - 1, parent)
                break
            mask <<= 1
        # forward to children, largest offset first
        mask >>= 1
        while mask > 0:
            if relrank + mask < p:
                child = (relrank + mask + root) % p
                round_index = mask.bit_length() - 1
                self._publish(comm, seq, round_index, value)
                yield from self.send(
                    child, tag=base + round_index, size=size, comm=collective
                )
            mask >>= 1
        return value

    def allreduce(
        self,
        value,
        op: str = "sum",
        size: int = 0,
        comm: Optional[Communicator] = None,
    ):
        """MPI_Allreduce: recursive doubling; returns the reduced value.

        Non-power-of-2 counts use the standard fold: the first 2*rem
        ranks pre-combine pairwise (evens into odds) so a power-of-2 core
        runs the doubling, then folded-out evens get the result back.
        Partials combine lower-rank-first, so non-commutative rounding
        (floats) is deterministic.  ``size`` is the payload bytes each
        exchange carries.
        """
        self._require_init()
        if op not in _REDUCE_OPS:
            raise MpiError(
                f"unknown reduction {op!r}; expected one of {sorted(_REDUCE_OPS)}"
            )
        reduce_op = _REDUCE_OPS[op]
        comm = comm or self.comm_world
        p = comm.size
        seq, base = self._collective_tags(comm)
        if p == 1:
            yield delay(self.proc.compute(self.cost.call_overhead_cycles))
            return value
        collective = Communicator(context=COLLECTIVE_CONTEXT, size=p)
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        round_index = 0
        # fold phase: evens among the first 2*rem ranks hand their value
        # to the odd neighbour and sit out the doubling
        if self.rank < 2 * rem and self.rank % 2 == 0:
            self._publish(comm, seq, round_index, value)
            yield from self.send(
                self.rank + 1, tag=base + round_index, size=size, comm=collective
            )
            newrank = -1
        elif self.rank < 2 * rem:
            yield from self.recv(
                self.rank - 1, tag=base + round_index, size=size, comm=collective
            )
            folded = self._collect(comm, seq, round_index, self.rank - 1)
            value = reduce_op(folded, value)  # lower rank first
            newrank = self.rank // 2
        else:
            newrank = self.rank - rem
        round_index += 1
        # recursive doubling among the power-of-two core
        if newrank >= 0:
            mask = 1
            while mask < pof2:
                newpartner = newrank ^ mask
                partner = (
                    newpartner * 2 + 1 if newpartner < rem else newpartner + rem
                )
                self._publish(comm, seq, round_index, value)
                send_req = yield from self.isend(
                    partner, tag=base + round_index, size=size, comm=collective
                )
                recv_req = yield from self.irecv(
                    partner, tag=base + round_index, size=size, comm=collective
                )
                yield from self.wait(recv_req)
                yield from self.wait(send_req)
                theirs = self._collect(comm, seq, round_index, partner)
                if partner < self.rank:
                    value = reduce_op(theirs, value)
                else:
                    value = reduce_op(value, theirs)
                mask <<= 1
                round_index += 1
        else:
            round_index += pof2.bit_length() - 1
        # unfold phase: odds return the final value to the folded evens
        if self.rank < 2 * rem:
            if self.rank % 2:
                self._publish(comm, seq, round_index, value)
                yield from self.send(
                    self.rank - 1,
                    tag=base + round_index,
                    size=size,
                    comm=collective,
                )
            else:
                yield from self.recv(
                    self.rank + 1,
                    tag=base + round_index,
                    size=size,
                    comm=collective,
                )
                value = self._collect(comm, seq, round_index, self.rank + 1)
        return value

    # ------------------------------------------------------------ internals
    def _require_init(self) -> None:
        if not self._initialized:
            raise MpiError("MPI call before MPI_Init")
        if self._finalized:
            raise MpiError("MPI call after MPI_Finalize")

    def _new_request(
        self,
        kind: RequestKind,
        peer: int,
        tag: int,
        comm: Communicator,
        size: int,
    ) -> MpiRequest:
        request = MpiRequest(
            req_id=next(self._req_ids),
            kind=kind,
            rank=self.rank,
            peer=peer,
            tag=tag,
            context=comm.context,
            size=size,
        )
        self._inflight[request.req_id] = request
        return request

    def _alloc_buffer(self, size: int) -> int:
        addr = self._buffer_cursor
        self._buffer_cursor += max(size, 64)
        return addr

    def _drain_completions(self):
        """Consume everything in the completion FIFO; returns the count."""
        drained = 0
        while True:
            completion: Optional[Completion] = self.host.completion_fifo.try_pop()
            if completion is None:
                break
            drained += 1
            yield delay(
                self.proc.compute(
                    self.cost.poll_cycles + self.cost.completion_handle_cycles
                )
            )
            request = self._inflight.get(completion.req_id)
            if request is None:
                raise MpiError(
                    f"rank {self.rank}: completion for unknown request "
                    f"{completion.req_id}"
                )
            request.done = True
            request.completed_at = yield now()
            if self._lifecycle.enabled:
                self._lifecycle.complete_request(
                    self.rank,
                    request.req_id,
                    request.completed_at,
                    recv=request.kind is RECV,
                )
            if request.kind is RECV:
                request.status = MpiStatus(
                    source=completion.source,
                    tag=completion.tag,
                    count=completion.size,
                    send_id=completion.send_id,
                )
        return drained
