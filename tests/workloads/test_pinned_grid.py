"""The pinned grid: ten benchmark points whose simulated results are exact.

``pinned_grid.json`` holds one Figure-5 (preposted) and one Figure-6
(unexpected) point per receiver (list, hash, alpu128), the 512-deep
unexpected-queue point, the 16-rank halo on the crossbar and on the
torus, and the ALPU core-op stress point.  The simulator is
deterministic, so every latency and event count must match exactly:

* with telemetry off, the latencies;
* with every collector on (lifecycle, timeline, health, self-profile,
  fabric), the latencies again -- observability never moves simulated
  time -- and the engine's event count.

A mismatch prints the fresh values.  An intended re-pin is a hand edit
of ``pinned_grid.json``, visible in review.

The ``wallclock`` test is the host-speed gate, deselected from tier-1
and run in CI with ``pytest -m wallclock``: each point's events/sec
under the self-profiler must stay within its committed
``events_per_sec_tolerance`` band below its committed ``events_per_sec``.
"""

import json
from pathlib import Path

import pytest

from repro.obs import Telemetry
from repro.workloads.alpucore import AlpuCoreParams, run_alpucore
from repro.workloads.sweep import BENCHMARKS, nic_preset

GRID = json.loads(Path(__file__).with_name("pinned_grid.json").read_text())


def run_point(point, telemetry=None):
    if point["benchmark"] == "alpucore":
        # drives one AlpuDevice directly -- no NIC; the preset is only
        # the geometry label
        return run_alpucore(AlpuCoreParams(**point["params"]), telemetry=telemetry)
    bench = BENCHMARKS[point["benchmark"]]
    return bench.runner(
        nic_preset(point["preset"]),
        bench.params_cls(**point["params"]),
        telemetry=telemetry,
    )


each_point = pytest.mark.parametrize(
    "point", GRID, ids=[point["id"] for point in GRID]
)


@each_point
def test_latencies_with_telemetry_off(point):
    fresh = run_point(point).latencies_ns
    assert fresh == point["latencies_ns"], f"fresh latencies_ns: {fresh}"


@each_point
def test_latencies_and_events_with_every_collector_on(point):
    bundle = Telemetry(
        tracing=True,
        timeline=True,
        health=True,
        profile=True,
        fabric=True,
    )
    result = run_point(point, bundle)
    fresh = {"latencies_ns": result.latencies_ns, "events": bundle.profiler.events}
    pinned = {key: point[key] for key in fresh}
    assert fresh == pinned, f"fresh: {json.dumps(fresh)}"


@pytest.mark.wallclock
def test_events_per_sec_within_committed_band():
    slow = []
    for point in GRID:
        bundle = Telemetry(tracing=False, profile=True)
        run_point(point, bundle)
        rate = bundle.profiler.events_per_sec
        floor = (1.0 - point["events_per_sec_tolerance"]) * point["events_per_sec"]
        if rate < floor:
            slow.append(f"{point['id']}: {rate:,.0f} events/s < {floor:,.0f}")
    assert not slow, "\n".join(slow)
