"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload is one public ``run_*`` call of :mod:`repro.workloads`.
``--seed 0`` runs the reference point; any other seed draws the single
free parameter from ``random.Random(seed)`` over a range chosen so that
the host work changes by about 1% and the simulated results by under 2%.
A claim can then be re-checked on a seed not used while writing a change.

All four are closed loops in simulated time: every rank waits for its
own replies, storm workers wait on bursts of 64 sends, and the storm
master keeps a window of 8 receives.  Modelled caches start empty and
warmup iterations are excluded from the samples.

``repro`` is imported inside the run functions, never at module import,
so a pass can time the import as part of its set-up.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, Dict, List, Optional, Tuple

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


@dataclasses.dataclass
class Outcome:
    """What one workload call produced, reduced to what the benchmark checks."""

    latencies_ns: List[float]
    #: the sample count the parameters promise
    expected_samples: int
    #: failed output checks, as messages (empty when the outputs are right)
    failures: List[str]
    #: workload-specific simulated results worth recording
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the parameter a non-zero seed draws, its seed-0 value and its range
    free: str
    reference: object
    choices: Tuple[object, ...]
    #: iterations (messages per worker for the storm) of a full run
    length: int
    #: ``run(free value, length, telemetry)``
    run: Callable[[object, int, object], Outcome]

    def value(self, seed: int):
        """The free parameter's value for ``seed``."""
        if seed == 0:
            return self.reference
        return random.Random(seed).choice(self.choices)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile: a real sample, with the tail rule enforced.

    Raises ``ValueError`` when fewer than :data:`TAIL_SAMPLES` samples lie
    beyond the rank, because such a tail is too thin to report.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has only "
            f"{len(ordered) - rank} beyond it (need {TAIL_SAMPLES})"
        )
    return ordered[rank - 1]


def _check_samples(latencies: List[float], expected: int) -> List[str]:
    if len(latencies) != expected:
        return [f"{len(latencies)} samples, expected {expected}"]
    return []


# ----------------------------------------------------------------- halo
HALO_RANKS = 27


def _halo(message_size, iterations, telemetry) -> Outcome:
    from repro.workloads import HaloParams, nic_preset, run_halo

    params = HaloParams(
        ranks=HALO_RANKS,
        topology="torus3d",
        message_size=message_size,
        iterations=iterations,
        warmup=2,
    )
    result = run_halo(nic_preset("alpu128"), params, telemetry=telemetry)
    failures = _check_samples(result.latencies_ns, params.iterations)
    expected = HALO_RANKS * (HALO_RANKS + 1) // 2
    if result.allreduce_value != expected:
        failures.append(f"allreduce gave {result.allreduce_value}, expected {expected}")
    return Outcome(result.latencies_ns, params.iterations, failures)


# ---------------------------------------------------------------- storm
def _storm(service_ns, messages, telemetry) -> Outcome:
    from repro.nic.nic import NicConfig
    from repro.nic.qdisc import QdiscConfig
    from repro.nic.reliability import ReliabilityConfig
    from repro.workloads.storm import StormParams, run_storm

    nic = dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            discipline="sharded",
            max_unexpected=32,
            admission_policy="nack",
            host_priority=True,
        ),
        reliability=ReliabilityConfig(enabled=True),
    )
    params = StormParams(
        workers=4,
        messages_per_worker=messages,
        window=8,
        service_ns=service_ns,
        hot_messages=messages,
    )
    result = run_storm(nic, params, telemetry=telemetry)
    expected = params.total_messages // params.sample_every
    failures = _check_samples(result.latencies_ns, expected)
    if result.total_messages != params.total_messages:
        failures.append(
            f"{result.total_messages} messages completed, expected {params.total_messages}"
        )
    return Outcome(
        result.latencies_ns,
        expected,
        failures,
        {"refusals_per_msg": result.refused / result.total_messages},
    )


# ----------------------------------------------------------------- fig6
def _fig6(queue_length, iterations, telemetry) -> Outcome:
    from repro.workloads import UnexpectedParams, nic_preset, run_unexpected

    params = UnexpectedParams(
        queue_length=queue_length, iterations=iterations, warmup=2
    )
    result = run_unexpected(nic_preset("baseline"), params, telemetry=telemetry)
    return Outcome(
        result.latencies_ns,
        params.iterations,
        _check_samples(result.latencies_ns, params.iterations),
    )


# ----------------------------------------------------------------- fig5
def _fig5(message_size, iterations, telemetry) -> Outcome:
    from repro.workloads import PrepostedParams, nic_preset, run_preposted

    params = PrepostedParams(
        queue_length=256,
        traverse_fraction=1.0,
        message_size=message_size,
        iterations=iterations,
        warmup=4,
    )
    result = run_preposted(nic_preset("alpu256"), params, telemetry=telemetry)
    failures = _check_samples(result.latencies_ns, params.iterations)
    if result.entries_traversed:
        failures.append(
            f"{result.entries_traversed} entries walked in software; the ALPU "
            "should hold the whole queue"
        )
    return Outcome(result.latencies_ns, params.iterations, failures)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="halo-torus27",
            why=(
                "27-rank halo exchange + allreduce on a 3x3x3 torus: sim, "
                "firmware and mpi dominate, queues stay shallow; seed draws "
                "message_size 480-544 B"
            ),
            free="message_size",
            reference=512,
            choices=(480, 496, 512, 528, 544),
            length=100,
            run=_halo,
        ),
        Workload(
            name="storm-nack",
            why=(
                "wildcard storm past admission (sharded qdisc, nack, "
                "reliability): the overload regime where refusals and "
                "retransmits dominate; seed draws service_ns 360-450"
            ),
            free="service_ns",
            reference=400.0,
            choices=(360.0, 375.0, 400.0, 425.0, 450.0),
            length=750,
            run=_storm,
        ),
        Workload(
            name="fig6-list-q1024",
            why=(
                "Fig. 6 at depth on the software list: unexpected-queue "
                "walks make memory and backends dominate; seed draws "
                "queue_length 1012-1024"
            ),
            free="queue_length",
            reference=1024,
            choices=(1012, 1016, 1020, 1024),
            length=4000,
            run=_fig6,
        ),
        Workload(
            name="fig5-alpu256-q256",
            why=(
                "Fig. 5 with the whole posted queue in the ALPU: core and "
                "nic.alpu peak, memory walks nothing; seed 0 sends 0 B, "
                "others draw 52-60 B payloads"
            ),
            free="message_size",
            reference=0,
            choices=(52, 56, 60),
            length=8000,
            run=_fig5,
        ),
    )
}


def run_workload(
    name: str, seed: int, telemetry=None, length: Optional[int] = None
) -> Outcome:
    """Run one workload at its seeded inputs.

    ``length`` shortens the run (tests use scaled-down points): the
    iteration count, or the messages per storm worker.  The benchmark
    always runs the full :attr:`Workload.length`.
    """
    workload = WORKLOADS[name]
    return workload.run(
        workload.value(seed), workload.length if length is None else length, telemetry
    )
