"""Unified observability: metrics, structured tracing, Chrome export.

The evaluation of the source paper turns on *why* latency moves -- queue
traversal lengths, ALPU occupancy, unexpected-queue growth -- not just on
end-point latency rows.  This subpackage is the cross-layer telemetry
that makes those quantities visible:

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of pull-style
  collectors over the tallies components already keep, plus log-scale
  histograms;
* :mod:`repro.obs.recorder` -- the one instrumentation stream: typed
  records ``(time_ps, component, stage, uid, detail)`` -- spans,
  instants and counter samples -- and the per-message lifecycles built
  from them, every MPI message an ordered list of stage transitions
  from post to completion, folded into stage-residency budgets by
  :mod:`repro.analysis.attribution` and rendered, with every other
  channel below, by the run report (:mod:`repro.analysis.report`);
* :mod:`repro.obs.chrome` -- export of that stream to Chrome trace-event
  JSON (component tracks plus one track per message), loadable in
  Perfetto or ``chrome://tracing``;
* :mod:`repro.obs.probe` -- periodic sampling of the registered state
  collectors (queue depths, ALPU occupancy, reliability and fabric
  levels) into histograms, timeline series and counter records;
* :mod:`repro.obs.selfprof` -- wall-clock self-profiling of the
  simulator (events/sec, per-handler time) for the committed benchmark
  baseline;
* :mod:`repro.obs.timeline` -- windowed timeseries over simulated time
  with bounded memory (ring + downsampling): the *trajectory* of every
  probed quantity, not just its end-of-run total;
* :mod:`repro.obs.health` -- declarative watchdogs (threshold,
  sustained-derivative, stall) over timelines and metrics, folding runs
  into structured :class:`~repro.obs.health.HealthFinding` verdicts;
* :mod:`repro.obs.telemetry` -- the per-run bundle workloads accept.

Telemetry is opt-in and zero-perturbation: disabled (the default) it
registers nothing and costs one no-op call per histogram site and one
``enabled`` test per record site, and enabled it never charges
simulated time, so latencies are bit-identical either way (pinned by
``tests/obs/test_zero_perturbation.py``).

This package depends on no other layer of :mod:`repro` (the sim engine
imports *it*), so any layer may use it without cycles.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "health": (
            "DerivativeWatchdog",
            "HealthFinding",
            "HealthMonitor",
            "ImbalanceWatchdog",
            "MetricWatchdog",
            "SEVERITIES",
            "StallWatchdog",
            "ThresholdWatchdog",
            "Watchdog",
            "default_watchdogs",
            "has_finding",
            "verdict_of",
        ),
        "timeline": ("Series", "Timeline"),
        "recorder": (
            "MessageLifecycle",
            "NullRecorder",
            "NULL_RECORDER",
            "Record",
            "Recorder",
            "TERMINAL_STAGE",
        ),
        "selfprof": ("SimProfiler",),
        "metrics": ("Histogram", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY"),
        "probe": ("SamplingProbe", "DEFAULT_INTERVAL_PS"),
        "telemetry": ("Telemetry", "TelemetryReuseError"),
        "chrome": ("chrome_trace_events", "to_chrome", "write_chrome"),
    },
)
