"""Record-stream reconciliation and high-water-mark plumbing.

Two queue-churn regressions pinned here:

* every refusal, retransmission, wire drop and unexpected-queue park is
  one record of the instrumentation stream; the first test reconciles
  those records with the tallies the components keep (once, two
  parallel streams disagreed by one on the unexpected-queue depth);
* ``NicQueue.max_length`` was tracked but never surfaced -- it now
  feeds the ``high_water`` of the ``<nic>.<queue>/depth`` snapshot
  collector and the run-report "Queue high-water marks" section.  It
  is a lifetime mark: nothing re-arms it.
"""

import dataclasses

import repro.workloads.preposted as preposted
import repro.workloads.storm as storm
from repro.analysis.report import queue_high_water, render_text, run_report
from repro.nic.nic import NicConfig
from repro.nic.reliability import ReliabilityConfig
from repro.obs import Telemetry
from repro.workloads.unexpected import UnexpectedParams, run_unexpected
from tests.nic.test_reliability_pins import (
    SOUP_COUNTERS,
    SOUP_FAULTS,
    SOUP_PARAMS,
    STORM,
    STORM_COUNTERS,
    scalar_counters,
    storm_nic,
)


def _run_with_telemetry(**telemetry_kwargs):
    telemetry = Telemetry(**telemetry_kwargs)
    result = run_unexpected(
        NicConfig.baseline(),
        UnexpectedParams(queue_length=12, iterations=3, warmup=1),
        telemetry=telemetry,
    )
    return telemetry, result


def _stages(telemetry, stage):
    return [r for r in telemetry.recorder.records if r.stage == stage]


def _total(snapshot, suffix):
    return sum(v for k, v in snapshot.items() if k.endswith(suffix))


def test_record_stream_reconciles_with_the_tallies():
    """Each fact is one record: counts match the components' tallies."""
    # the benchmark's storm-nack shape, scaled down: refusals and
    # retransmits by the thousand
    telemetry = Telemetry(tracing=True)
    storm.run_storm(storm_nic(), STORM, telemetry=telemetry)
    snapshot = telemetry.snapshot()
    # recording on moves no counter off its pin
    assert scalar_counters(snapshot, ".rel/", ".adm/", "fabric/") == STORM_COUNTERS
    refused = _stages(telemetry, "admission_refused")
    assert len(refused) == _total(snapshot, ".adm/refused") == 1960
    retransmits = _stages(telemetry, "retransmit")
    assert len(retransmits) == _total(snapshot, ".rel/retransmits") == 1960

    # the pinned fault soup: every swallowed packet is one wire_drop
    telemetry = Telemetry(tracing=True)
    nic = dataclasses.replace(
        NicConfig.baseline(), reliability=ReliabilityConfig(enabled=True)
    )
    preposted.run_preposted(
        nic, SOUP_PARAMS, telemetry=telemetry, faults=SOUP_FAULTS
    )
    snapshot = telemetry.snapshot()
    assert scalar_counters(snapshot, ".rel/", "fabric/faults_") == SOUP_COUNTERS
    drops = _stages(telemetry, "wire_drop")
    assert len(drops) == snapshot["fabric/faults_dropped"] == 3

    # the unexpected run: one park record per parked header, at the
    # post-append depth (the parked entry counts itself)
    telemetry, _ = _run_with_telemetry(tracing=True)
    depths = [r.detail["depth"] for r in _stages(telemetry, "unexpected_queue")]
    assert len(depths) == _total(telemetry.snapshot(), ".fw/headers_unexpected")
    assert depths[0] == 1
    # the queue really got that deep (fillers stack up before the probe)
    assert max(depths) >= 12


def test_snapshot_surfaces_queue_high_water_marks():
    telemetry, _ = _run_with_telemetry()
    snapshot = telemetry.snapshot()
    assert snapshot["nic1.unexpectedQ/depth"]["high_water"] >= 12
    assert "nic1.postedRecvQ/depth" in snapshot
    assert "nic0.sendQ/depth" in snapshot
    # the depth level is the one definition of the high-water mark
    assert not [name for name in snapshot if name.endswith("/max_depth")]


def test_report_renders_high_water_section():
    telemetry, _ = _run_with_telemetry()
    document = run_report(telemetry, benchmark="unexpected")

    marks = dict(queue_high_water(document))
    assert marks["nic1.unexpectedQ"] >= 12

    text = render_text(document)
    assert "Queue high-water marks" in text
    assert "nic1.unexpectedQ" in text
