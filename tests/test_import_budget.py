"""A run imports only the layers its configuration builds.

Each check runs one small workload point in a fresh interpreter and
reads which modules it loaded, so it depends on the import graph, not
on host speed.  The package namespaces resolve their names on first
access (``repro._lazy``): a baseline-NIC run must load neither the ALPU
stack nor the observability consumers, the analysis CLIs, the sweep
executor or ``multiprocessing``.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ALPU_STACK = {
    "repro.core.alpu",
    "repro.core.commands",
    "repro.nic.alpu_device",
    "repro.nic.driver",
    "repro.nic.backends.alpumatch",
}

#: what a run without telemetry on a software backend must not load
NEVER_IN_A_BASELINE_RUN = ALPU_STACK | {
    "repro.workloads.sweep",
    "repro.obs.health",
    "repro.obs.chrome",
    "repro.obs.timeline",
    "repro.obs.probe",
    "repro.obs.telemetry",
    "repro.obs.selfprof",
    "repro.nic.backends.hashtable",
    "repro.nic.backends.hashmatch",
    "multiprocessing",
}

FIG6_POINT = """
from repro.workloads import UnexpectedParams, nic_preset, run_unexpected

run_unexpected(
    nic_preset("{preset}"),
    UnexpectedParams(queue_length=8, iterations=3, warmup=1),
    telemetry={telemetry},
)
"""

STORM_POINT = """
import dataclasses

from repro.nic.nic import NicConfig
from repro.nic.qdisc import QdiscConfig
from repro.nic.reliability import ReliabilityConfig
from repro.workloads.storm import StormParams, run_storm

nic = dataclasses.replace(
    NicConfig.baseline(),
    qdisc=QdiscConfig(
        discipline="sharded", max_unexpected=8, admission_policy="nack"
    ),
    reliability=ReliabilityConfig(enabled=True),
)
run_storm(nic, StormParams(workers=2, messages_per_worker=16, window=4))
"""


def loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_baseline_unexpected_point_loads_only_what_it_runs():
    loaded = loaded_after(FIG6_POINT.format(preset="baseline", telemetry=None))
    assert "repro.nic.backends.listsearch" in loaded
    assert not loaded & NEVER_IN_A_BASELINE_RUN
    assert not {m for m in loaded if m.startswith("repro.analysis")}


def test_reliable_sharded_storm_point_loads_only_what_it_runs():
    loaded = loaded_after(STORM_POINT)
    assert {"repro.nic.qdisc", "repro.nic.reliability"} <= loaded
    assert not loaded & NEVER_IN_A_BASELINE_RUN
    assert not {m for m in loaded if m.startswith("repro.analysis")}


def test_alpu_point_loads_the_alpu_stack():
    loaded = loaded_after(FIG6_POINT.format(preset="alpu128", telemetry=None))
    assert ALPU_STACK <= loaded


def test_hash_point_loads_the_hash_backend():
    loaded = loaded_after(FIG6_POINT.format(preset="hash", telemetry=None))
    assert {"repro.nic.backends.hashtable", "repro.nic.backends.hashmatch"} <= loaded
    assert not loaded & ALPU_STACK


def test_telemetry_run_loads_the_obs_modules_it_uses():
    code = "from repro.obs import Telemetry\n" + FIG6_POINT.format(
        preset="baseline", telemetry="Telemetry()"
    )
    loaded = loaded_after(code)
    assert {
        "repro.obs.telemetry",
        "repro.obs.metrics",
        "repro.obs.recorder",
        "repro.obs.probe",
    } <= loaded
    assert not loaded & ALPU_STACK


NAMESPACES = (
    "repro",
    "repro.core",
    "repro.sim",
    "repro.memory",
    "repro.proc",
    "repro.network",
    "repro.nic",
    "repro.nic.backends",
    "repro.mpi",
    "repro.obs",
    "repro.workloads",
    "repro.analysis",
    "repro.fpga",
)


@pytest.mark.parametrize("name", NAMESPACES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        assert getattr(package, export) is not None, export
    assert set(package.__all__) <= set(dir(package))
    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(package.__all__) <= set(star)


def test_an_unknown_name_is_an_attribute_error():
    import repro.nic

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.nic.Nope
