"""Load and query the telemetry reports the sweep executor writes.

:func:`repro.workloads.sweep.dump_telemetry` serializes sweep rows plus
their per-run metrics snapshots; these helpers read that JSON back and
pull out the quantities the analysis layer cares about -- a named metric
across the sweep, or the mean of a sampled histogram (queue depth, ALPU
occupancy) per row.

Snapshot value shapes (see :meth:`repro.obs.MetricsRegistry.snapshot`):
counters flatten to a number; gauges to ``{"value", "high_water"}``;
histograms to ``{"count", "sum", "min", "max", "mean", "buckets"}``.

Dumps are versioned: v1 predates the ``version`` field and carries no
health data, v2 rows also hold ``health`` (``{"verdict", "findings"}``)
from the watchdog battery, and v3 rows carry their parameters under
``params`` and benchmark-specific result columns under ``extra``
(v1/v2 rows hold both as top-level keys).  :func:`load_report` stamps
v1 in place so the metric and health helpers (:func:`row_verdict`,
:func:`healthy_rows`, :func:`rows_with_finding`), which read only
``metrics`` and ``health``, work on every vintage.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.health import has_finding

#: the newest dump schema this loader understands
MAX_DUMP_VERSION = 3


def load_report(path: str) -> Dict[str, object]:
    """Read a report written by :func:`repro.workloads.sweep.dump_telemetry`.

    Accepts v1 (no ``version`` key, no health), v2 and v3 dumps;
    anything newer is refused rather than misread.
    """
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "rows" not in report:
        raise ValueError(f"{path} is not a telemetry report (no 'rows' key)")
    version = report.setdefault("version", 1)
    if version > MAX_DUMP_VERSION:
        raise ValueError(
            f"{path} is a v{version} telemetry dump; this loader "
            f"understands up to v{MAX_DUMP_VERSION}"
        )
    return report


# ----------------------------------------------------------------- health
def row_verdict(row: Dict[str, object]) -> str:
    """The watchdog verdict of one row (``"healthy"`` when none rode)."""
    health = row.get("health")
    if not health:
        return "healthy"
    return health.get("verdict", "healthy")


def row_findings(row: Dict[str, object]) -> List[Dict[str, object]]:
    """The finding dicts of one row ([] when none rode)."""
    health = row.get("health")
    if not health:
        return []
    return list(health.get("findings", []))


def healthy_rows(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows whose watchdogs stayed silent."""
    return [row for row in rows if row_verdict(row) == "healthy"]


def unhealthy_rows(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows with at least one finding, in row order."""
    return [row for row in rows if row_verdict(row) != "healthy"]


def rows_with_finding(
    rows: List[Dict[str, object]], code: str
) -> List[Dict[str, object]]:
    """Rows carrying a finding with ``code`` (e.g. ``retransmit_storm``)."""
    return [row for row in rows if has_finding(row_findings(row), code)]


def metric_value(snapshot: Optional[Dict[str, object]], name: str):
    """One metric from a snapshot; None when absent or telemetry was off.

    Counters and collectors come back as plain numbers, gauges as their
    current value, histograms as their mean.
    """
    if not snapshot:
        return None
    entry = snapshot.get(name)
    if isinstance(entry, dict):
        if "mean" in entry:
            return entry["mean"]
        return entry.get("value")
    return entry


def metric_across_rows(rows: List[Dict[str, object]], name: str) -> List[object]:
    """The same metric from every row's snapshot, in row order."""
    return [metric_value(row.get("metrics"), name) for row in rows]


def histogram_stats(
    snapshot: Optional[Dict[str, object]], name: str
) -> Optional[Dict[str, object]]:
    """The full histogram entry for ``name``, or None if not a histogram."""
    if not snapshot:
        return None
    entry = snapshot.get(name)
    if isinstance(entry, dict) and "buckets" in entry:
        return entry
    return None


def mean_sampled_depth(
    snapshot: Optional[Dict[str, object]], queue_name: str
) -> Optional[float]:
    """Mean sampled depth of a NIC queue, e.g. ``"nic1.postedRecvQ"``."""
    stats = histogram_stats(snapshot, f"{queue_name}/depth_samples")
    if stats is None or not stats["count"]:
        return None
    return stats["mean"]
