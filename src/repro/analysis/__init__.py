"""Analysis helpers: slope fits, knee detection, crossovers, tables.

The paper summarizes its curves with a handful of derived quantities --
nanoseconds per traversed entry (warm and cold), where the cache knee
sits, the ALPU's fixed overhead, and the queue length at which the ALPU
breaks even.  These helpers compute the same quantities from sweep rows
so EXPERIMENTS.md and ``tests/paper`` can report paper-vs-measured
side by side.

:mod:`repro.analysis.attribution` goes one level deeper: it folds the
message lifecycles (:mod:`repro.obs.recorder`) into per-message
stage-residency budgets that sum exactly to each message's end-to-end
latency, and into per-link budgets off the per-hop marks; it
aggregates percentile breakdowns, and finds the dominant stage and
software/ALPU search crossover.

:mod:`repro.analysis.report` builds one run's report document at run
end (metrics, timeline, health findings, fabric, the attribution and
per-link budgets folded from the lifecycles, self-profile) and renders
it as text, JSON or HTML -- the unified run report, and the one
analysis CLI (``python -m repro.analysis.report``).  A sweep row carries
the same document.  Its :func:`load_report` is the one loader for every
telemetry dump, sweep dumps included, and its row helpers read a sweep
dump's rows by metric or health.
"""

from repro._lazy import attach

# lazy, so `python -m repro.analysis.<mod>` does not import the module
# runpy is about to execute, and a run that reads no analysis loads none
__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "attribution": (
            "aggregate",
            "attribute_run",
            "budget_rows",
            "crossover_queue_length",
            "dominant_stage",
            "end_to_end_ps",
            "stage_budget",
            "stage_series",
        ),
        "curves": (
            "per_entry_slope_ns",
            "detect_knee",
            "crossover_length",
            "fixed_overhead_ns",
            "latency_series",
        ),
        "tables": ("format_rows", "format_curve"),
        "report": (
            "REPORT_VERSION",
            "histogram_stats",
            "load_report",
            "mean_sampled_depth",
            "metric_across_rows",
            "metric_value",
            "healthy_rows",
            "row_verdict",
            "run_report",
            "format_report",
            "render_html",
            "render_json",
            "render_text",
            "sparkline",
        ),
    },
)
