"""Exact pins for the reliability path: a scaled-down NACK_BUSY storm and
one seeded fault soup.

Every value below is a simulated number (latencies, events fired, the
final clock, and the ``.rel`` / ``.adm`` / ``fabric`` counters), so a
host-time optimisation of the wire round trip -- checksum, packet
stamping, delivery -- must leave every one of them exactly where it is.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.workloads.preposted as preposted
import repro.workloads.runner as runner
import repro.workloads.storm as storm
from repro.mpi.world import MpiWorld
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig, RetryExhaustedError
from repro.obs import Telemetry

STORM = storm.StormParams(
    workers=4,
    messages_per_worker=100,
    window=8,
    service_ns=400.0,
    hot_messages=100,
)

SOUP_PARAMS = preposted.PrepostedParams(
    queue_length=8, traverse_fraction=1.0, iterations=12, warmup=2
)
SOUP_FAULTS = FaultConfig(
    seed=13,
    drop_rate=0.04,
    duplicate_rate=0.04,
    reorder_rate=0.04,
    corrupt_rate=0.04,
)


def storm_nic(policy: str = "nack") -> NicConfig:
    return dataclasses.replace(
        NicConfig.baseline(),
        qdisc=QdiscConfig(
            "sharded", max_unexpected=32, admission_policy=policy, host_priority=True
        ),
        reliability=ReliabilityConfig(enabled=True),
    )


def _capture_worlds(monkeypatch) -> list:
    """Record every world the workload runner builds (for engine/fabric reads)."""
    worlds = []

    class RecordingWorld(MpiWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(runner, "MpiWorld", RecordingWorld)
    return worlds


def run_storm_pin(monkeypatch):
    """The pinned storm point: ``(result, snapshot, world)``."""
    worlds = _capture_worlds(monkeypatch)
    telemetry = Telemetry(tracing=False)
    result = storm.run_storm(storm_nic(), STORM, telemetry=telemetry)
    return result, telemetry.snapshot(), worlds[-1]


def run_soup_pin(monkeypatch):
    """The pinned fault soup: ``(result, snapshot, world)``."""
    worlds = _capture_worlds(monkeypatch)
    telemetry = Telemetry(tracing=False)
    nic = dataclasses.replace(
        NicConfig.baseline(), reliability=ReliabilityConfig(enabled=True)
    )
    result = preposted.run_preposted(
        nic, SOUP_PARAMS, telemetry=telemetry, faults=SOUP_FAULTS
    )
    return result, telemetry.snapshot(), worlds[-1]


def scalar_counters(snapshot, *needles):
    return {
        key: value
        for key, value in snapshot.items()
        if any(needle in key for needle in needles) and not isinstance(value, dict)
    }


def _per_nic(suffix_values):
    """Expand ``{suffix: [nic0, nic1, ...]}`` into snapshot keys."""
    return {
        f"nic{node}{suffix}": value
        for suffix, values in suffix_values.items()
        for node, value in enumerate(values)
    }


STORM_COUNTERS = {
    "fabric/bytes": 151040,
    "fabric/faults_corrupted": 0,
    "fabric/faults_delayed": 0,
    "fabric/faults_dropped": 0,
    "fabric/faults_duplicated": 0,
    "fabric/hops_forwarded": 0,
    "fabric/packets": 4720,
    "fabric/packets_delivered": 4720,
    **_per_nic(
        {
            ".adm/dropped": [0, 0, 0, 0, 0],
            ".adm/nacked": [1960, 0, 0, 0, 0],
            ".adm/refused": [1960, 0, 0, 0, 0],
            ".rel/acks_sent": [400, 0, 0, 0, 0],
            ".rel/busy_deferrals": [0, 370, 518, 535, 537],
            ".rel/corrupt_dropped": [0, 0, 0, 0, 0],
            ".rel/duplicates_dropped": [0, 0, 0, 0, 0],
            ".rel/nacks_sent": [1960, 0, 0, 0, 0],
            ".rel/reordered_held": [39, 0, 0, 0, 0],
            ".rel/retransmits": [0, 370, 518, 535, 537],
        }
    ),
}

SOUP_COUNTERS = {
    "fabric/faults_corrupted": 7,
    "fabric/faults_delayed": 1,
    "fabric/faults_dropped": 3,
    "fabric/faults_duplicated": 3,
    **_per_nic(
        {
            ".rel/acks_sent": [17, 24],
            ".rel/busy_deferrals": [0, 0],
            ".rel/corrupt_dropped": [5, 2],
            ".rel/duplicates_dropped": [2, 2],
            ".rel/nacks_sent": [2, 1],
            ".rel/reordered_held": [0, 0],
            ".rel/retransmits": [4, 5],
        }
    ),
}


def test_storm_nack_point_is_pinned(monkeypatch):
    result, snapshot, world = run_storm_pin(monkeypatch)
    assert result.refused == 1960
    assert result.retransmits == 1960
    assert len(result.latencies_ns) == 25
    assert result.duration_ns == 548_250
    digest = hashlib.sha256(json.dumps(result.latencies_ns).encode()).hexdigest()
    assert digest[:16] == "e756a664f0113d36"
    assert world.engine.events_fired == 16_993
    assert world.engine.now == 548_670_000
    assert scalar_counters(snapshot, ".rel/", ".adm/", "fabric/") == (
        STORM_COUNTERS
    )


def test_fault_soup_is_pinned(monkeypatch):
    """Drop + duplicate + corrupt + delay: the corrupt -> NACK path, exactly."""
    result, snapshot, world = run_soup_pin(monkeypatch)
    assert result.latencies_ns == [732.0] * 6 + [1164.0] + [732.0] * 5
    assert world.engine.events_fired == 969
    assert world.engine.now == 36_600_000
    assert scalar_counters(snapshot, ".rel/", "fabric/faults_") == SOUP_COUNTERS


def test_storm_under_drop_admission_exhausts_retries_fast(monkeypatch):
    """Known defect, pinned so it fails fast instead of hanging.

    Under ``admission_policy="drop"`` a refusal is silent, so the sender
    cannot tell a full receiver from a dead one: the storm's refusals
    spend the whole retry budget and the run raises the typed error about
    one simulated millisecond in, a thousandth of its deadline.
    ROADMAP item 6 (credit-based flow control) should turn this into a
    completing run; update this test then.
    """
    worlds = _capture_worlds(monkeypatch)
    with pytest.raises(RetryExhaustedError) as excinfo:
        storm.run_storm(storm_nic("drop"), STORM)
    assert str(excinfo.value) == (
        "nic3: EAGER rel_seq=63 to node 0 unacknowledged after 8 retries"
    )
    # simulated time, not host time: the failure surfaces long before
    # the storm's own deadline
    engine = worlds[-1].engine
    assert (engine.now, engine.events_fired) == (1_026_638_000, 11_735)
    assert engine.now < STORM.effective_deadline_us * 1_000_000 / 100
