"""Sparse all-to-all rounds: the concrete-key counterpoint to the storm.

Every rank exchanges with a small, seeded, fixed peer subset in lockstep
rounds -- the communication pattern of sparse solvers and graph codes.
Unlike the wildcard storm, every posted receive names a *concrete*
(source, tag), so under the ``"sharded"`` queue discipline each receive
posting searches only its per-source shard of the unexpected queue
instead of walking all of it.  The pattern is deliberately send-first:
each round a rank fires its isends *before* posting its receives, so
roughly every message lands unexpected and the queues actually carry the
round's full fan-in.

Degrees of freedom: world size, per-rank out-degree, and rounds --
``num_ranks * degree * rounds`` messages total, which reaches 10^6 with
e.g. 64 ranks x 16 peers x 1000 rounds.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from typing import Dict, List, Optional

from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.sim.process import now
from repro.sim.units import ps_to_ns


@dataclasses.dataclass(frozen=True)
class AlltoallParams:
    """One sparse all-to-all point."""

    num_ranks: int = 8
    #: outgoing peers per rank (in-degree varies, seeded)
    degree: int = 3
    rounds: int = 10
    message_size: int = 0
    #: peer-subset seed (the topology is part of the experiment point)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_ranks < 2:
            raise ValueError("num_ranks must be >= 2")
        if not 1 <= self.degree < self.num_ranks:
            raise ValueError(
                f"degree must be in [1, num_ranks), got {self.degree}"
            )
        if self.rounds < 1 or self.message_size < 0:
            raise ValueError(f"invalid parameters: {self}")

    @property
    def total_messages(self) -> int:
        return self.num_ranks * self.degree * self.rounds

    def peer_sets(self) -> List[List[int]]:
        """Seeded out-peer subset per rank (deterministic)."""
        rng = random.Random(self.seed)
        return [
            sorted(rng.sample([p for p in range(self.num_ranks) if p != r],
                              self.degree))
            for r in range(self.num_ranks)
        ]


@dataclasses.dataclass
class AlltoallResult:
    """Per-round completion times, as seen from rank 0."""

    params: AlltoallParams
    #: rank 0's per-round wall time (sends fired to all receives done)
    round_ns: List[float]
    total_messages: int
    metrics: Optional[Dict[str, object]] = None

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.round_ns)

    @property
    def median_ns(self) -> float:
        return statistics.median(self.round_ns)


def run_alltoall(
    nic: NicConfig,
    params: AlltoallParams,
    *,
    telemetry=None,
    faults: Optional[FaultConfig] = None,
    topology: Optional[str] = None,
) -> AlltoallResult:
    """Run ``params.rounds`` sparse exchange rounds.

    ``telemetry`` / ``faults`` / ``topology``: as in the other workloads
    (see :func:`repro.workloads.unexpected.run_unexpected`).
    """

    out_peers = params.peer_sets()
    in_peers: List[List[int]] = [[] for _ in range(params.num_ranks)]
    for rank, peers in enumerate(out_peers):
        for peer in peers:
            in_peers[peer].append(rank)

    def make_program(rank: int):
        def program(mpi):
            yield from mpi.init()
            round_ns: List[float] = []
            for rnd in range(params.rounds):
                start = yield now()
                # send-first so the fan-in lands unexpected
                sends = []
                for peer in out_peers[rank]:
                    request = yield from mpi.isend(
                        peer, rnd, params.message_size
                    )
                    sends.append(request)
                recvs = []
                for peer in in_peers[rank]:
                    request = yield from mpi.irecv(
                        peer, rnd, params.message_size
                    )
                    recvs.append(request)
                yield from mpi.waitall(sends + recvs)
                end = yield now()
                round_ns.append(ps_to_ns(end - start))
                # round tags double as the epoch fence: tag rnd+1 traffic
                # can arrive early and sit unexpected, which is the point
            yield from mpi.finalize()
            return round_ns

        return program

    world = MpiWorld(
        WorldConfig(
            num_ranks=params.num_ranks,
            nic=nic,
            fabric=FabricConfig.with_topology(topology),
            faults=faults,
        ),
        telemetry=telemetry,
    )
    programs = {r: make_program(r) for r in range(params.num_ranks)}
    deadline_us = max(1_000_000.0, params.total_messages * 10.0)
    results = world.run(programs, deadline_us=deadline_us)
    return AlltoallResult(
        params=params,
        round_ns=results[0],
        total_messages=params.total_messages,
        metrics=telemetry.snapshot() if telemetry is not None else None,
    )
