"""Wildcard-storm workload tests.

Tier-1 runs scaled-down storms (hundreds of messages, ~a second); the
``slow`` marker carries the million-message acceptance run and the
discipline comparison that measures the depth-vs-latency cliff.
"""

import dataclasses

import pytest

from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs.health import has_finding
from repro.obs.telemetry import Telemetry
from repro.workloads.storm import StormParams, run_storm


def _admission_nic(threshold: int = 32, policy: str = "nack") -> NicConfig:
    return dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            discipline="sharded",
            max_unexpected=threshold,
            admission_policy=policy,
            host_priority=True,
        ),
        reliability=ReliabilityConfig(enabled=True),
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        StormParams(workers=0)
    with pytest.raises(ValueError):
        StormParams(window=0)
    with pytest.raises(ValueError):
        StormParams(service_ns=-1.0)
    with pytest.raises(ValueError):
        StormParams(hot_messages=-1)
    with pytest.raises(ValueError):
        StormParams(worker_gap_ns=-1.0)
    assert StormParams(workers=4, messages_per_worker=8).total_messages == 32


def test_fifo_storm_completes_without_admission():
    """The default discipline runs the storm exactly as before: no
    refusals, no retransmissions, every message matched."""
    result = run_storm(
        NicConfig.baseline(),
        StormParams(workers=2, messages_per_worker=64, window=8),
    )
    assert result.total_messages == 128
    assert result.refused == 0
    assert result.retransmits == 0
    assert result.latencies_ns
    assert result.duration_ns > 0


def test_admission_bounds_the_storm_and_trips_the_watchdog():
    """The tier-1 scaled-down acceptance storm: sharded + admission
    completes an overload flood with a bounded queue and the
    ``unexpected_admission_pressure`` finding raised.  A rerun without
    telemetry repeats the samples, refusals and retransmits exactly: the
    run is deterministic and telemetry does not perturb it."""
    threshold = 32
    params = StormParams(
        workers=4, messages_per_worker=200, window=8, service_ns=400.0
    )
    telemetry = Telemetry(tracing=False, timeline=True, health=True)
    result = run_storm(_admission_nic(threshold), params, telemetry=telemetry)
    again = run_storm(_admission_nic(threshold), params)
    assert (again.latencies_ns, again.refused, again.retransmits) == (
        result.latencies_ns, result.refused, result.retransmits
    )
    assert result.total_messages == 800
    # the reorder buffer shares the occupancy budget, so the queue may
    # overshoot the threshold only by one reorder-flush run
    assert result.max_unexpected_depth <= 2 * threshold
    assert result.refused > 0
    assert has_finding(
        telemetry.health_findings(), "unexpected_admission_pressure"
    )


def test_hot_phase_confines_the_flood():
    """With a bounded hot phase and paced workers the refusals are a
    transient: the tail drains clean and the run stays bounded."""
    threshold = 32
    params = StormParams(
        workers=4,
        messages_per_worker=400,
        window=8,
        service_ns=500.0,
        hot_messages=400,
        worker_gap_ns=1500.0,
    )
    result = run_storm(_admission_nic(threshold), params)
    assert result.total_messages == 1600
    assert result.refused > 0
    assert result.max_unexpected_depth <= 2 * threshold


@pytest.mark.slow
def test_discipline_comparison_under_sustained_overload():
    """Buffer occupancy under sustained overload: an unguarded fifo
    queue absorbs the whole send backlog (eager sends complete locally,
    so nothing upstream throttles the flood -- NIC memory is the only
    limit), while admission pins the occupancy at the threshold and
    pushes the backlog to the senders' reliability layer.

    Note the storm itself has no O(depth) *search* cliff -- the master's
    receives wildcard everything, so matches sit at the queue head; the
    cross-flow latency cliff is the multi-job workload's department."""
    params = StormParams(
        workers=4, messages_per_worker=1000, window=8, service_ns=400.0
    )
    exposed_nic = dataclasses.replace(
        NicConfig.baseline(), reliability=ReliabilityConfig(enabled=True)
    )
    exposed = run_storm(exposed_nic, params)
    guarded = run_storm(_admission_nic(32), params)

    assert exposed.refused == 0
    # the fifo queue ends up holding most of the 4000-message backlog
    assert exposed.max_unexpected_depth > 4 * 32
    assert guarded.refused > 0
    assert guarded.max_unexpected_depth <= 64
    # both storms deliver every message
    assert exposed.total_messages == guarded.total_messages == 4000


@pytest.mark.slow
def test_million_message_storm_under_admission():
    """The acceptance run: 10^6 messages complete under ``sharded`` +
    admission control with the watchdog firing on the hot-phase flood."""
    params = StormParams(
        workers=8,
        messages_per_worker=125_000,
        window=16,
        service_ns=400.0,
        hot_messages=2000,
        worker_gap_ns=3000.0,
    )
    threshold = 64
    telemetry = Telemetry(tracing=False, timeline=True, health=True)
    result = run_storm(_admission_nic(threshold), params, telemetry=telemetry)
    assert result.total_messages == 1_000_000
    assert result.max_unexpected_depth <= 2 * threshold
    assert result.refused > 0
    assert has_finding(
        telemetry.health_findings(), "unexpected_admission_pressure"
    )
