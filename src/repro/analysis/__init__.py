"""Analysis helpers: slope fits, knee detection, crossovers, tables.

The paper summarizes its curves with a handful of derived quantities --
nanoseconds per traversed entry (warm and cold), where the cache knee
sits, the ALPU's fixed overhead, and the queue length at which the ALPU
breaks even.  These helpers compute the same quantities from sweep rows
so EXPERIMENTS.md and the benchmark harness can report paper-vs-measured
side by side.

:mod:`repro.analysis.attribution` goes one level deeper: it folds the
flight-recorder lifecycles (:mod:`repro.obs.lifecycle`) into per-message
stage-residency budgets that sum exactly to each message's end-to-end
latency, aggregates percentile breakdowns, and finds the dominant stage
and software/ALPU search crossover.  It is also a CLI
(``python -m repro.analysis.attribution``).

:mod:`repro.analysis.report` folds one run's whole telemetry artifact
(metrics, timeline, health findings, lifecycles, self-profile) into
text/JSON/HTML renderings -- the unified run report
(``python -m repro.analysis.report``).  Its :func:`load_report` is the
one loader for every telemetry dump, sweep dumps included, and its row
helpers filter a sweep dump's rows by metric or health.
"""

from repro.analysis.curves import (
    per_entry_slope_ns,
    detect_knee,
    crossover_length,
    fixed_overhead_ns,
)
from repro.analysis.tables import format_rows, format_curve

# attribution's and report's names resolve lazily so `python -m
# repro.analysis.<mod>` does not re-import the module runpy is about to
# execute
_ATTRIBUTION_NAMES = frozenset(
    {
        "aggregate",
        "attribute_run",
        "budget_rows",
        "crossover_queue_length",
        "dominant_stage",
        "end_to_end_ps",
        "format_report",
        "stage_budget",
        "stage_series",
    }
)

_REPORT_NAMES = frozenset(
    {
        "fold",
        "healthy_rows",
        "histogram_stats",
        "load_report",
        "mean_sampled_depth",
        "metric_across_rows",
        "metric_value",
        "render_html",
        "render_json",
        "render_text",
        "row_findings",
        "row_verdict",
        "rows_with_finding",
        "sparkline",
        "unhealthy_rows",
    }
)


def __getattr__(name):
    if name in _ATTRIBUTION_NAMES:
        from repro.analysis import attribution

        return getattr(attribution, name)
    if name in _REPORT_NAMES:
        from repro.analysis import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "aggregate",
    "attribute_run",
    "budget_rows",
    "crossover_queue_length",
    "dominant_stage",
    "end_to_end_ps",
    "format_report",
    "stage_budget",
    "stage_series",
    "per_entry_slope_ns",
    "detect_knee",
    "crossover_length",
    "fixed_overhead_ns",
    "format_rows",
    "format_curve",
    "histogram_stats",
    "load_report",
    "mean_sampled_depth",
    "metric_across_rows",
    "metric_value",
    "healthy_rows",
    "unhealthy_rows",
    "row_findings",
    "row_verdict",
    "rows_with_finding",
    "fold",
    "render_html",
    "render_json",
    "render_text",
    "sparkline",
]
