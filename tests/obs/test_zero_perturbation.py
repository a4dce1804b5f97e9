"""The record stream and self-profiler never move a latency.

Two layers of pinning:

* the **absolute** latencies of four points of the pinned grid
  (``tests/workloads/pinned_grid.json``, captured before the lifecycle
  layer existed), so any accidental simulated-time charge anywhere in
  the recording path fails loudly;
* every observability combination (the record stream, profiler,
  timeline and watchdogs, everything at once) must reproduce the plain
  run **bit-identically**.
"""

import json
from pathlib import Path

import pytest

from repro.obs import Telemetry
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import nic_preset
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

FAST = dict(iterations=4, warmup=1)

#: the pinned grid's latencies of the four points :func:`run_point` runs
#: -- the recorder must not move them by a single picosecond
_LATENCIES = {
    point["id"]: point["latencies_ns"]
    for point in json.loads(
        (Path(__file__).parents[1] / "workloads" / "pinned_grid.json").read_text()
    )
}
PINNED = {
    ("preposted", "baseline"): _LATENCIES[
        "preposted/baseline/queue_length=24_traverse_fraction=1.0"
    ],
    ("preposted", "alpu128"): _LATENCIES[
        "preposted/alpu128/queue_length=24_traverse_fraction=1.0"
    ],
    ("unexpected", "baseline"): _LATENCIES["unexpected/baseline/queue_length=16"],
    ("unexpected", "alpu128"): _LATENCIES["unexpected/alpu128/queue_length=16"],
}


def run_point(workload: str, preset: str, telemetry=None):
    nic = nic_preset(preset)
    if workload == "preposted":
        params = PrepostedParams(queue_length=24, traverse_fraction=1.0, **FAST)
        return run_preposted(nic, params, telemetry=telemetry)
    params = UnexpectedParams(queue_length=16, **FAST)
    return run_unexpected(nic, params, telemetry=telemetry)


@pytest.mark.parametrize("workload,preset", sorted(PINNED))
class TestPinnedLatencies:
    def test_plain_run_matches_pre_recorder_pin(self, workload, preset):
        result = run_point(workload, preset)
        assert result.latencies_ns == PINNED[(workload, preset)]

    def test_record_stream_is_zero_perturbation(self, workload, preset):
        bundle = Telemetry(tracing=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]
        # and it genuinely recorded: the timed pings are all complete
        pings = [
            lc
            for lc in bundle.lifecycles()
            if lc.label == "ping" and lc.meta.get("timed")
        ]
        assert len(pings) == FAST["iterations"]
        assert all(lc.complete for lc in pings)

    def test_profiler_is_zero_perturbation(self, workload, preset):
        bundle = Telemetry(tracing=False, profile=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]
        assert bundle.profiler.events > 0
        assert bundle.profiler.events_per_sec > 0

    def test_timeline_and_watchdogs_are_zero_perturbation(
        self, workload, preset
    ):
        bundle = Telemetry(tracing=False, timeline=True, health=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]
        # and they genuinely ran: the timeline has series, the watchdog
        # battery evaluated the healthy benchmark to zero findings
        assert bundle.timeline.names()
        assert any(
            name.endswith("/depth") for name in bundle.timeline.names()
        )
        assert bundle.health_findings() == []
        assert bundle.health_verdict() == "healthy"

    def test_everything_on_is_zero_perturbation(self, workload, preset):
        bundle = Telemetry(profile=True, timeline=True, health=True)
        result = run_point(workload, preset, telemetry=bundle)
        assert result.latencies_ns == PINNED[(workload, preset)]


class TestLatencyEqualsLifecycleSpan:
    """The recorder's end-to-end span *is* the benchmark's sample."""

    @pytest.mark.parametrize("preset", ["baseline", "alpu128"])
    def test_ping_spans_equal_reported_latencies(self, preset):
        bundle = Telemetry(tracing=True)
        result = run_point("preposted", preset, telemetry=bundle)
        pings = [
            lc
            for lc in bundle.lifecycles()
            if lc.label == "ping" and lc.meta.get("timed")
        ]
        pings.sort(key=lambda lc: lc.meta["iteration"])
        spans_ns = [(lc.end_ps - lc.start_ps) / 1000 for lc in pings]
        assert spans_ns == result.latencies_ns
