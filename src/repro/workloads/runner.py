"""The one run seam: :func:`run` builds, runs and summarizes every world.

A workload is a plan function, ``plan(params) -> Plan`` (the contract is
in :mod:`repro.workloads`); each public ``run_x`` binds :func:`run` to
its plan.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Callable, Dict, List, Optional

from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig


@dataclasses.dataclass
class Samples:
    """The latency samples every workload result carries, in nanoseconds."""

    latencies_ns: List[float]

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.latencies_ns)

    @property
    def median_ns(self) -> float:
        return statistics.median(self.latencies_ns)


@dataclasses.dataclass
class Plan:
    """What one workload point asks of the runner."""

    #: one host program per rank; the world has ``len(programs)`` ranks
    programs: Dict[int, Callable]
    #: ``summarize(world, results)``: the result, from the finished world
    #: and the ranks' return values
    summarize: Callable[[MpiWorld, Dict[int, object]], Samples]
    ranks_per_node: int = 1
    #: fabric topology preset (``None`` is the crossbar)
    topology: Optional[str] = None
    #: simulated-time budget (``None`` is ``MpiWorld.run``'s default)
    deadline_us: Optional[float] = None


def run(
    plan: Callable[[object], Plan],
    nic: NicConfig,
    params,
    *,
    telemetry=None,
    faults: Optional[FaultConfig] = None,
) -> Samples:
    """Run one point of the workload ``plan`` on NICs configured by ``nic``.

    ``telemetry``: optional :class:`repro.obs.Telemetry`; the caller
    reads the run's metrics from it (``telemetry.snapshot()``).  It
    never perturbs the simulated results (pinned by regression test).

    ``faults``: optional seeded fabric fault injection; pair it with a
    reliability-enabled ``nic`` so lost packets are retransmitted.
    """
    point = plan(params)
    world = MpiWorld(
        WorldConfig(
            num_ranks=len(point.programs),
            ranks_per_node=point.ranks_per_node,
            nic=nic,
            fabric=FabricConfig.with_topology(point.topology),
            faults=faults,
        ),
        telemetry=telemetry,
    )
    if point.deadline_us is None:
        results = world.run(point.programs)
    else:
        results = world.run(point.programs, deadline_us=point.deadline_us)
    return point.summarize(world, results)
