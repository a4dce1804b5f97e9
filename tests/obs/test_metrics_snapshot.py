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
    "fig5-alpu256-q256": (136, "2e59ccbfa9c12e45dc43267610f9f20ef9a990a01915a7c8229010bc98c238bb"),
    "fig6-list-q1024": (92, "60dc84aead2b3063c83048d0037584bccfac35fedb04acd36820f7f038748f73"),
    "halo-torus27": (1981, "5159bc47ac5a5dfc5083b7ff8f72039a5585df843a7b73ee7c6b2ec0294b1170"),
    "preposted-faulty": (126, "5d700aca73cb5ea208649203e8636e5d76885d4135ed5aa61c8743d076254372"),
    "preposted-stalled-alpu": (136, "553357c39302b6eec5016d3684e02d13e59151ac1048a64201285e0558ec6e9f"),
    "storm-nack": (305, "76011d20ee4a90dabba0372b1092d46034b25ee7c5f9600eb87e7b2db2d150da"),
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
