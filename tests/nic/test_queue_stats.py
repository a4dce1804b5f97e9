"""Depth-reporting consistency and high-water-mark plumbing.

Two queue-churn regressions pinned here:

* the lifecycle ``unexpected_queue`` mark and the tracer
  ``<nic>.unexpected_enqueue`` instant once disagreed by one (pre- vs
  post-append depth); both now report the post-append depth, and the
  first test fails if either side drifts again;
* ``NicQueue.max_length`` was tracked but never surfaced -- it now
  feeds the ``<nic>.<queue>/max_depth`` and ``<nic>.<queue>/depth``
  snapshot collectors and the run-report "queue high-water marks"
  section.  It is a lifetime mark: nothing re-arms it.
"""

from repro.analysis.report import queue_high_water, render_text
from repro.nic.nic import NicConfig
from repro.obs import Telemetry
from repro.workloads.unexpected import UnexpectedParams, run_unexpected


def _run_with_telemetry(**telemetry_kwargs):
    telemetry = Telemetry(**telemetry_kwargs)
    result = run_unexpected(
        NicConfig.baseline(),
        UnexpectedParams(queue_length=12, iterations=3, warmup=1),
        telemetry=telemetry,
    )
    return telemetry, result


def test_lifecycle_and_tracer_report_the_same_depth():
    """Both observers report the *post-append* unexpected-queue depth."""
    telemetry, _ = _run_with_telemetry(tracing=True, lifecycle=True)

    marks = []
    for lifecycle in telemetry.lifecycles():
        for mark in lifecycle.marks:
            if mark.stage == "unexpected_queue":
                marks.append((mark.time_ps, mark.detail["depth"]))
    # the mark precedes the costed append; the tracer instant follows it,
    # so timestamps differ by the enqueue cost but depths must agree
    lifecycle_depths = [depth for _, depth in sorted(marks)]
    tracer_depths = [
        record.args["depth"]
        for record in telemetry.tracer.records
        if record.name.endswith(".unexpected_enqueue")
    ]

    assert lifecycle_depths, "expected unexpected_queue lifecycle marks"
    assert lifecycle_depths == tracer_depths
    # the queue really got that deep (fillers stack up before the probe)
    assert max(lifecycle_depths) >= 12


def test_snapshot_surfaces_queue_high_water_marks():
    telemetry, _ = _run_with_telemetry()
    snapshot = telemetry.snapshot()
    assert snapshot["nic1.unexpectedQ/max_depth"] >= 12
    assert "nic1.postedRecvQ/max_depth" in snapshot
    assert "nic0.sendQ/max_depth" in snapshot
    # the depth level and the high-water mark read the same tally
    for name in ("nic1.unexpectedQ", "nic1.postedRecvQ", "nic0.sendQ"):
        assert snapshot[f"{name}/depth"]["high_water"] == snapshot[f"{name}/max_depth"]


def test_report_renders_high_water_section():
    telemetry, _ = _run_with_telemetry()
    document = telemetry.report(benchmark="unexpected")

    marks = dict(queue_high_water(document))
    assert marks["nic1.unexpectedQ"] >= 12

    text = render_text(document)
    assert "queue high-water marks" in text
    assert "nic1.unexpectedQ" in text
