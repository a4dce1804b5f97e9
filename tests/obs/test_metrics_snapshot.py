"""Pins the metrics namespace: every metric name and value of six runs.

Each run's ``Telemetry.snapshot()`` is reduced to its key count and the
sha256 of ``json.dumps(snapshot, sort_keys=True)``.  A change that moves
where a number is kept (a pushed instrument versus a collector over a
component's own tally) must leave both unchanged; ``bench/trace.py``
reads its per-layer counters from these names.

The runs: the four benchmark workloads at the scaled lengths of
``tests/test_enum_loads.py``, one preposted run with reliability on and
drop, duplicate, delay and corrupt faults, and the stalled-ALPU run that
drives result timeouts and the backend degradation.
"""

import dataclasses
import hashlib
import json

import pytest

from bench.workloads import run_workload
from repro.network.faults import FaultConfig
from repro.nic.nic import NicConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs import Telemetry
from repro.workloads.preposted import run_preposted
from tests.nic.test_reliability import PARAMS, stall_nic
from tests.test_enum_loads import LENGTHS

FAULTS = FaultConfig(
    seed=13,
    drop_rate=0.04,
    duplicate_rate=0.04,
    reorder_rate=0.04,
    corrupt_rate=0.04,
)

#: run -> (key count, sha256 of the sorted JSON snapshot)
PINS = {
    "fig5-alpu256-q256": (132, "bf55a50a8296762eb0f6e08831511ffaa6d727cd6cc77fe23ac038bde2ad6dff"),
    "fig6-list-q1024": (88, "cd5e68974d8f09ed5ea4294a00a78ed35992fb178dfe0f327041f0788331ebc9"),
    "halo-torus27": (1952, "91cf50a9203e4e7558c47e33458c7f662ba25bed5a271e9160aacd2e76c5881c"),
    "preposted-faulty": (118, "e59b3fd421361b087cc22dda16f6b0429faee214695902d91fbb813a95223166"),
    "preposted-stalled-alpu": (132, "29cfb73b6115049decb15dc4c9f934867a24aec51d5b0f3c786255da81d7c3fa"),
    "storm-nack": (288, "daf88e9611374ada71a5e2237b35199c624dcc5deb99712e18310e109751aeef"),
}


def _telemetry() -> Telemetry:
    return Telemetry(metrics=True, tracing=False, probe_interval_ps=None)


def _workload(name):
    def run(telemetry):
        outcome = run_workload(name, 0, telemetry, LENGTHS[name])
        assert not outcome.failures

    return run


def _faulty(telemetry):
    nic = dataclasses.replace(
        NicConfig.baseline(), reliability=ReliabilityConfig(enabled=True)
    )
    run_preposted(nic, PARAMS, telemetry=telemetry, faults=FAULTS)


def _stalled(telemetry):
    run_preposted(stall_nic(), PARAMS, telemetry=telemetry)


RUNS = {
    **{name: _workload(name) for name in LENGTHS},
    "preposted-faulty": _faulty,
    "preposted-stalled-alpu": _stalled,
}


def digest(snapshot) -> str:
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_snapshot_names_and_values_are_pinned(run):
    telemetry = _telemetry()
    RUNS[run](telemetry)
    snapshot = telemetry.snapshot()
    assert (len(snapshot), digest(snapshot)) == PINS[run]


def _total(snapshot, suffix):
    return sum(value for key, value in snapshot.items() if key.endswith(suffix))


def test_the_fault_runs_reach_their_recovery_paths():
    faulty, stalled = _telemetry(), _telemetry()
    _faulty(faulty)
    _stalled(stalled)
    faulty, stalled = faulty.snapshot(), stalled.snapshot()
    for fault in ("dropped", "duplicated", "delayed", "corrupted"):
        assert faulty[f"fabric/faults_{fault}"] > 0
    assert _total(faulty, ".rel/retransmits") > 0
    assert _total(stalled, "/result_timeouts") > 0
    assert _total(stalled, "fw/backend_degraded") == 2
