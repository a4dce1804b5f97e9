"""Unified observability: metrics, structured tracing, Chrome export.

The evaluation of the source paper turns on *why* latency moves -- queue
traversal lengths, ALPU occupancy, unexpected-queue growth -- not just on
end-point latency rows.  This subpackage is the cross-layer telemetry
that makes those quantities visible:

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of pull-style
  collectors over the tallies components already keep, plus log-scale
  histograms;
* :mod:`repro.obs.tracer` -- typed trace records ``(time_ps, category,
  name, kind, args)`` with spans, instants and counter samples;
* :mod:`repro.obs.chrome` -- export to Chrome trace-event JSON, loadable
  in Perfetto or ``chrome://tracing``;
* :mod:`repro.obs.probe` -- periodic sampling of the registered state
  collectors (queue depths, ALPU occupancy, reliability and fabric
  levels) into histograms, timeline series and counter tracks;
* :mod:`repro.obs.lifecycle` -- the per-message flight recorder: every
  MPI message carries an ordered list of ``(time_ps, stage, detail)``
  transition marks from post to completion, folded into stage-residency
  budgets by :mod:`repro.analysis.attribution`;
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
registers nothing and costs one no-op call per histogram, trace or
lifecycle site, and enabled it never charges
simulated time, so latencies are bit-identical either way (pinned by
``tests/obs/test_zero_perturbation.py``).

This package depends on nothing else in :mod:`repro` (the sim engine
imports *it*), so any layer may use it without cycles.
"""

from repro.obs.chrome import chrome_trace_events, lifecycle_chrome_events, to_chrome
from repro.obs.health import (
    DerivativeWatchdog,
    HealthFinding,
    HealthMonitor,
    ImbalanceWatchdog,
    MetricWatchdog,
    SEVERITIES,
    StallWatchdog,
    ThresholdWatchdog,
    Watchdog,
    default_watchdogs,
    has_finding,
    verdict_of,
)
from repro.obs.lifecycle import (
    LifecycleMark,
    LifecycleRecorder,
    MessageLifecycle,
    NullLifecycleRecorder,
    NULL_LIFECYCLE,
    TERMINAL_STAGE,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.probe import DEFAULT_INTERVAL_PS, SamplingProbe
from repro.obs.selfprof import SimProfiler
from repro.obs.telemetry import REPORT_VERSION, Telemetry, TelemetryReuseError
from repro.obs.timeline import Series, Timeline
from repro.obs.tracer import NullTracer, NULL_TRACER, Tracer, TraceRecord

__all__ = [
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
    "Series",
    "Timeline",
    "REPORT_VERSION",
    "LifecycleMark",
    "LifecycleRecorder",
    "MessageLifecycle",
    "NullLifecycleRecorder",
    "NULL_LIFECYCLE",
    "TERMINAL_STAGE",
    "SimProfiler",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "TraceRecord",
    "NullTracer",
    "NULL_TRACER",
    "SamplingProbe",
    "DEFAULT_INTERVAL_PS",
    "Telemetry",
    "TelemetryReuseError",
    "chrome_trace_events",
    "lifecycle_chrome_events",
    "to_chrome",
]
