"""The master-worker wildcard storm: a million-message queue stressor.

One master (rank 0) services a window of wildcard receives
(``MPI_ANY_SOURCE``, one service tag) while every worker rank floods it
with small eager messages as fast as its NIC completes sends.  This is
the queue-discipline torture test from the network-processor literature:

* the master's posted receives wildcard the source, so under a
  ``"sharded"`` discipline they live in the wildcard shard and every
  receive posting falls back to a full unexpected-queue walk -- the
  *depth of that queue* is the whole game;
* without admission control the unexpected queue grows with the offered
  load and every posting pays O(depth), the quadratic cliff;
* with ``qdisc.max_unexpected`` set, arriving headers are refused at the
  wire once the queue (plus the reorder buffer) sits at the threshold,
  the refusals ride the reliability layer's retransmission machinery
  (``"drop"``: sender timeout; ``"nack"``: NACK_BUSY backoff), and the
  per-message cost stays O(threshold) -- the storm completes a million
  messages with bounded queues and the ``unexpected_admission_pressure``
  watchdog firing.

The measured sample is the *receive sojourn*: posting-to-completion time
of the master's wildcard receives (every ``sample_every``-th), which
includes the unexpected-queue search exactly like the Section V-A
benchmark includes posting time.

Smoke-run a scaled-down storm under sharded + admission::

    PYTHONPATH=src python -m repro.workloads.storm --smoke
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import deque
from typing import Dict, List, Optional

from repro.core.match import ANY_SOURCE
from repro.mpi.world import MpiWorld, WorldConfig
from repro.network.fabric import FabricConfig
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.sim.process import delay, now
from repro.sim.units import ns, ps_to_ns

#: the one service tag every worker sends on
_STORM_TAG = 7


@dataclasses.dataclass(frozen=True)
class StormParams:
    """One storm point."""

    #: flooding worker ranks (world size is ``workers + 1``)
    workers: int = 4
    messages_per_worker: int = 256
    #: master's outstanding wildcard receives
    window: int = 16
    #: worker-side flood burst: isends in flight before a waitall
    burst: int = 64
    #: master-side work per serviced message; with enough workers this
    #: pushes offered load past the service rate and the unexpected
    #: queue grows -- the overload regime the disciplines are for
    service_ns: float = 0.0
    #: apply ``service_ns`` only to the first N serviced messages
    #: (0 = all of them).  Eager sends complete locally, so workers
    #: never self-throttle: a *sustained* overload parks the whole
    #: remaining backlog in the reliability layer and the NACK_BUSY
    #: retry traffic grows quadratically with the message count.  A
    #: bounded hot phase keeps the flood (and the watchdog evidence)
    #: while the long tail drains at wire rate -- that is what makes a
    #: million-message storm simulable.
    hot_messages: int = 0
    #: per-message pacing delay at each worker; the sustained aggregate
    #: offered load is ``workers / worker_gap_ns`` messages per ns
    worker_gap_ns: float = 0.0
    message_size: int = 0
    #: sampling stride for the receive-sojourn latencies
    sample_every: int = 16
    #: simulated-time budget (0 = sized automatically from the load)
    deadline_us: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.messages_per_worker < 1:
            raise ValueError("messages_per_worker must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.service_ns < 0:
            raise ValueError("service_ns must be >= 0")
        if self.hot_messages < 0:
            raise ValueError("hot_messages must be >= 0")
        if self.worker_gap_ns < 0:
            raise ValueError("worker_gap_ns must be >= 0")
        if self.message_size < 0 or self.sample_every < 1 or self.deadline_us < 0:
            raise ValueError(f"invalid parameters: {self}")

    @property
    def total_messages(self) -> int:
        return self.workers * self.messages_per_worker

    @property
    def effective_deadline_us(self) -> float:
        if self.deadline_us:
            return self.deadline_us
        # generous: a serialized receiver clears a small eager message in
        # a few microseconds even with admission backoff in the tail
        hot = self.hot_messages or self.total_messages
        slack_us = (
            hot * self.service_ns + self.messages_per_worker * self.worker_gap_ns
        ) / 1_000.0
        return max(1_000_000.0, self.total_messages * 100.0 + slack_us)


@dataclasses.dataclass
class StormResult:
    """Samples and tallies for one storm point."""

    params: StormParams
    #: sampled posting-to-completion sojourns of the master's receives
    latencies_ns: List[float]
    total_messages: int
    #: simulated span of the service loop (first post to last completion)
    duration_ns: float
    #: master-side unexpected-queue high-water mark
    max_unexpected_depth: int
    #: admission refusals at the master NIC (0 without admission control)
    refused: int
    #: retransmissions across all NICs (0 without the reliability layer)
    retransmits: int
    metrics: Optional[Dict[str, object]] = None

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.latencies_ns)

    @property
    def median_ns(self) -> float:
        return statistics.median(self.latencies_ns)

    @property
    def messages_per_us(self) -> float:
        """Simulated service throughput of the master."""
        return self.total_messages / (self.duration_ns / 1_000.0)


def run_storm(
    nic: NicConfig,
    params: StormParams,
    *,
    telemetry=None,
    faults: Optional[FaultConfig] = None,
    topology: Optional[str] = None,
) -> StormResult:
    """Run one storm point on ``workers + 1`` ranks.

    ``telemetry`` / ``faults`` / ``topology``: as in the other workloads
    (see :func:`repro.workloads.unexpected.run_unexpected`).
    """

    total = params.total_messages
    span = {"start": 0, "end": 0}

    def master(mpi):
        yield from mpi.init()
        span["start"] = yield now()
        outstanding = deque()
        posted = 0
        prime = min(params.window, total)
        for _ in range(prime):
            request = yield from mpi.irecv(
                ANY_SOURCE, _STORM_TAG, params.message_size
            )
            outstanding.append(request)
            posted += 1
        samples: List[float] = []
        completed = 0
        service_ps = ns(params.service_ns)
        hot_limit = params.hot_messages or total
        while outstanding:
            request = outstanding.popleft()
            yield from mpi.wait(request)
            completed += 1
            if service_ps and completed <= hot_limit:
                yield delay(service_ps)
            if completed % params.sample_every == 0:
                samples.append(
                    ps_to_ns(request.completed_at - request.posted_at)
                )
            if mpi.lifecycle.enabled and completed == total:
                mpi.lifecycle.label_request(
                    mpi.rank, request.req_id, "last_storm_recv", timed=True
                )
            if posted < total:
                request = yield from mpi.irecv(
                    ANY_SOURCE, _STORM_TAG, params.message_size
                )
                outstanding.append(request)
                posted += 1
        span["end"] = yield now()
        yield from mpi.finalize()
        return samples

    def worker(mpi):
        yield from mpi.init()
        remaining = params.messages_per_worker
        gap_ps = ns(params.worker_gap_ns)
        while remaining:
            chunk = min(params.burst, remaining)
            sends = []
            for _ in range(chunk):
                if gap_ps:
                    yield delay(gap_ps)
                request = yield from mpi.isend(0, _STORM_TAG, params.message_size)
                sends.append(request)
            # eager sends complete locally (once the payload is fetched
            # and injected), so this waitall bounds host descriptors,
            # not wire occupancy -- pacing is what bounds the backlog
            yield from mpi.waitall(sends)
            remaining -= chunk
        yield from mpi.finalize()
        return None

    world = MpiWorld(
        WorldConfig(
            num_ranks=params.workers + 1,
            nic=nic,
            fabric=FabricConfig.with_topology(topology),
            faults=faults,
        ),
        telemetry=telemetry,
    )
    programs = {0: master}
    for rank in range(1, params.workers + 1):
        programs[rank] = worker
    results = world.run(programs, deadline_us=params.effective_deadline_us)
    master_nic = world.nics[0]
    return StormResult(
        params=params,
        latencies_ns=results[0],
        total_messages=total,
        duration_ns=ps_to_ns(span["end"] - span["start"]),
        max_unexpected_depth=master_nic.unexpected_q.max_length,
        refused=(
            master_nic.admission.refused
            if master_nic.admission is not None
            else 0
        ),
        retransmits=sum(
            n.reliability.retransmits
            for n in world.nics
            if n.reliability is not None
        ),
        metrics=telemetry.snapshot() if telemetry is not None else None,
    )


def _smoke() -> None:
    """A scaled-down storm under sharded + admission (the CI tier-1 step).

    Asserts the three tentpole behaviours end to end: the run completes,
    the unexpected queue stays bounded at the admission threshold, and
    the ``unexpected_admission_pressure`` watchdog fires.  A second run,
    without telemetry, must repeat the samples, refusals and retransmits
    exactly (the run is deterministic and telemetry does not perturb it).
    """
    import dataclasses as dc

    from repro.nic.qdisc import QdiscConfig
    from repro.nic.reliability import ReliabilityConfig
    from repro.obs.health import has_finding
    from repro.obs.telemetry import Telemetry

    params = StormParams(
        workers=4, messages_per_worker=200, window=8, service_ns=400.0
    )
    threshold = 32
    nic = dc.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            discipline="sharded",
            max_unexpected=threshold,
            admission_policy="nack",
            host_priority=True,
        ),
        reliability=ReliabilityConfig(enabled=True),
    )
    telemetry = Telemetry(tracing=False, timeline=True, health=True)
    result = run_storm(nic, params, telemetry=telemetry)
    again = run_storm(nic, params)
    assert (again.latencies_ns, again.refused, again.retransmits) == (
        result.latencies_ns, result.refused, result.retransmits
    ), "two runs of one storm point differ"
    assert result.total_messages == params.total_messages
    # the reorder buffer shares the occupancy budget, so the queue itself
    # may only overshoot by what was already in flight inside one window
    assert result.max_unexpected_depth <= 2 * threshold, (
        result.max_unexpected_depth
    )
    assert result.refused > 0, "flood never hit the admission threshold"
    findings = telemetry.health_findings()
    assert has_finding(findings, "unexpected_admission_pressure"), findings
    print(
        f"storm smoke OK: {result.total_messages} msgs in "
        f"{result.duration_ns / 1000:.1f} us, median sojourn "
        f"{result.median_ns:.0f} ns, max depth {result.max_unexpected_depth}, "
        f"{result.refused} refused, {result.retransmits} retransmits "
        "(admission watchdog fired; identical on a second run)"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv[1:]:
        _smoke()
    else:
        print(__doc__)
