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
    "fig5-alpu256-q256": (130, "774c2df4ce13b8da213c1f30190cf5eebb583a58e4de5fae977187fd7e96f61b"),
    "fig6-list-q1024": (86, "4971bf6881a10fac7dca3e91efbe2e03e1df845ec33bf7bbce1aa61eed28fbb5"),
    "halo-torus27": (1900, "352884908711ff71a0f924152542b15f1fe6b77a4b263554696918df3788c479"),
    "preposted-faulty": (120, "6b2762808f830ca25a51b347b4ad596a340c2a3bf70a4a13d65e9c26057bf7ed"),
    "preposted-stalled-alpu": (130, "3cc42dea74fdaf28b86d1aeb5af6973d27ef4c00e189e88a292e48fe50994e44"),
    "storm-nack": (290, "07d9b5246af9907812614c83f599881789d6d10566655077f1d99c0d7d531c66"),
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
