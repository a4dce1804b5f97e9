"""The unified run report: one document, one CLI, three renderings.

:func:`run_report` builds the document of one finished run from its
:class:`~repro.obs.telemetry.Telemetry` bundle, once, at run end:
metadata, metrics, the windowed timeline, health findings, the fabric
snapshot, the simulator self-profile, and what analysis folds from the
message lifecycles -- the latency attribution and the per-link budgets.
Every section is present, ``None`` when its collector was off; the raw
lifecycles stay out (their one export is the live run's Chrome trace).
A sweep row carries the same document
(:func:`repro.workloads.sweep.run_point`).  :func:`sections` turns a
document into report sections: a title, summary lines and tables of
headers and rows, built once.  Each section then renders as

* **text** (:func:`render_text`) -- a terminal report, tables drawn by
  :func:`repro.analysis.tables.format_rows`;
* **html** (:func:`render_html`) -- a self-contained page (inline
  CSS/SVG, no external assets) suitable for a CI artifact;

and :func:`render_json` emits the document itself.  Sparklines and the
fabric heatmap are the only figures drawn per format.  Every order a
rendering shows comes from the data (stage order, ranks, names), never
from dict order, so a saved document re-renders byte-identical to the
live run.

Run as a CLI::

    python -m repro.analysis.report --benchmark preposted \
        --preset alpu128 --queue-length 50 --html run.html --out run.json
    python -m repro.analysis.report --benchmark halo --preset alpu128 \
        --hotspot 0 --json --chrome trace.json
    python -m repro.analysis.report --input run.json
    python -m repro.analysis.report --input sweep_dump.json --row 3

Without ``--input`` it runs one point of a :data:`repro.workloads.sweep.
BENCHMARKS` workload on a :func:`~repro.workloads.runner.nic_preset` NIC
with every collector on; a point flag left out takes the workload's own
default, and ``--chrome`` writes that run's trace.  ``--input`` reads a
saved report, or one ``--row`` of a sweep dump, through
:func:`load_report`.  :mod:`repro.obs` stays import-free of
:mod:`repro.analysis`: the document is built here.
"""

from __future__ import annotations

import argparse
import dataclasses
import html as html_mod
import json
import math
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.attribution import (
    AttributionError,
    attribute_run,
    link_budgets,
    stage_order,
)
from repro.analysis.tables import format_rows
from repro.obs.health import verdict_of
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import Timeline

#: schema version of every run-report document and sweep dump; bump on
#: shape changes -- :func:`load_report` reads only this version
REPORT_VERSION = 4

#: the sections every run-report document carries (``None`` when off)
SECTIONS = (
    "meta",
    "metrics",
    "timeline",
    "health",
    "fabric",
    "attribution",
    "link_budgets",
    "profile",
)

#: sparkline glyphs, lowest to highest
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
#: sparkline width (windows are resampled down to this many buckets)
_SPARK_WIDTH = 48
#: the busiest-routes table shows at most this many pairs
_ROUTE_LIMIT = 24


class ReportError(ValueError):
    """A run-report artifact was malformed or unrenderable."""


#: the self-profile fields the renderers read
_PROFILE_FIELDS = ("events", "handler_seconds", "events_per_sec")


# ----------------------------------------------------------- build / load
def run_report(telemetry: Telemetry, **meta: object) -> Dict[str, object]:
    """The run-report document of one finished run (schema v4).

    The message lifecycles are folded once, here: ``attribution`` is the
    :func:`~repro.analysis.attribution.attribute_run` report (``None``
    when no complete message rode along) and ``link_budgets`` the
    :func:`~repro.analysis.attribution.link_budgets` of the per-hop
    marks.  Every other section is its collector's end-of-run output.
    A collector that was off leaves its section ``None``; with tracing
    off both folds are ``None``.
    """
    attribution = budgets = None
    if telemetry.recorder is not None:
        lifecycles = telemetry.lifecycles()
        budgets = link_budgets(lifecycles)
        try:
            attribution = attribute_run(lifecycles)
        except AttributionError:
            pass  # no complete message: the section stays empty
    health = None
    if telemetry.health is not None:
        health = {
            "verdict": telemetry.health_verdict(),
            "findings": [f.to_obj() for f in telemetry.health_findings()],
        }
    timeline, profiler = telemetry.timeline, telemetry.profiler
    return {
        "version": REPORT_VERSION,
        "meta": dict(meta),
        "metrics": telemetry.snapshot() if telemetry.metrics is not None else None,
        "timeline": timeline.to_obj() if timeline is not None else None,
        "health": health,
        "fabric": telemetry.fabric_snapshot(),
        "attribution": attribution,
        "link_budgets": budgets,
        "profile": profiler.snapshot() if profiler is not None else None,
    }


def load_report(path: str) -> Dict[str, object]:
    """Load a saved document: a run report or a sweep dump.

    Both kinds share one envelope, checked once: a JSON object whose
    integer ``version`` is :data:`REPORT_VERSION`.  The body is then one
    of:

    * a **run report** (:func:`run_report`): every one of
      :data:`SECTIONS`;
    * a **sweep dump** (:func:`repro.workloads.sweep.dump_telemetry`):
      a ``rows`` list, each row its point's ``preset``, ``params``,
      ``latency_ns`` and ``extra`` beside its run report under
      ``report`` (``None`` when the sweep turned no collector on).

    Anything else -- an older or newer version included -- raises
    :class:`ReportError` rather than being misread.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ReportError(f"{path} is not a telemetry dump (not a JSON object)")
    version = document.get("version")
    if type(version) is not int:
        raise ReportError(f"{path} has a non-integer version {version!r}")
    if version != REPORT_VERSION:
        raise ReportError(
            f"{path} is a v{version} dump; this tool reads only "
            f"v{REPORT_VERSION}"
        )
    if "rows" in document:
        if not isinstance(document["rows"], list):
            raise ReportError(f"{path}: a sweep dump's 'rows' must be a list")
        return document
    return _checked(document, path)


def _checked(document: Dict[str, object], source: str) -> Dict[str, object]:
    """``document``, once it carries every section and a sound profile."""
    missing = [name for name in SECTIONS if name not in document]
    if missing:
        raise ReportError(
            f"{source} is not a run report (no {', '.join(missing)})"
        )
    profile = document["profile"]
    if profile is not None and not (
        isinstance(profile, dict) and all(f in profile for f in _PROFILE_FIELDS)
    ):
        raise ReportError(
            f"{source}: a profile section needs {', '.join(_PROFILE_FIELDS)}"
        )
    return document


# ------------------------------------------------------------ sweep rows
# Snapshot value shapes (see :meth:`repro.obs.MetricsRegistry.snapshot`):
# counts are numbers; levels are ``{"value", "high_water"}``;
# histograms to ``{"count", "sum", "min", "max", "mean", "buckets"}``.
def _row_section(row: Dict[str, object], name: str):
    """One section of a sweep row's run report (None when none rode)."""
    report = row.get("report")
    return report[name] if report else None


def row_verdict(row: Dict[str, object]) -> str:
    """The watchdog verdict of one row (``"healthy"`` when none rode)."""
    health = _row_section(row, "health")
    return health["verdict"] if health else "healthy"


def healthy_rows(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows whose watchdogs stayed silent."""
    return [row for row in rows if row_verdict(row) == "healthy"]


def metric_value(snapshot: Optional[Dict[str, object]], name: str):
    """One metric from a snapshot; None when absent or telemetry was off.

    Counts come back as plain numbers, levels as their current value,
    histograms as their mean.
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
    return [metric_value(_row_section(row, "metrics"), name) for row in rows]


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


def queue_high_water(document: Dict[str, object]) -> List[Tuple[str, int]]:
    """Per-queue high-water marks from the metrics snapshot.

    Every NIC queue registers a ``<nic>.<queue>/depth`` level whose
    ``high_water`` is the deepest the queue got; surfacing the marks
    answers the first capacity question a deep-queue run raises -- "how
    deep did the unexpected queue actually get?" -- without digging
    through the raw JSON.
    """
    metrics = document.get("metrics") or {}
    return sorted(
        (name[: -len("/depth")], int(value["high_water"]))
        for name, value in metrics.items()
        if name.endswith("/depth") and isinstance(value, dict)
    )


# -------------------------------------------------------------- sections
@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A table cell drawn as a sparkline: glyphs in text, SVG in HTML."""

    values: Tuple[float, ...]


class Table(NamedTuple):
    """Headers and rows of cells; a table without rows is not drawn."""

    caption: str
    headers: Tuple[str, ...]
    rows: List[Sequence[object]]


class Section(NamedTuple):
    """One report section, built once and rendered by every format."""

    title: str
    lines: List[str]
    tables: Sequence[Table] = ()
    #: a fabric snapshot to draw as a node heatmap after the lines
    heatmap: Optional[Dict[str, object]] = None


def _health_section(document: Dict[str, object]) -> Section:
    health = document.get("health") or {"verdict": "healthy", "findings": []}
    findings = health.get("findings", [])
    verdict = health.get("verdict", verdict_of(findings))
    rows = [
        (
            finding["severity"],
            finding["code"],
            finding["series"],
            (
                f"{finding['start_ps'] / 1e6:g}-{finding['end_ps'] / 1e6:g} us"
                if finding.get("end_ps")
                else "end of run"
            ),
            finding["message"],
        )
        for finding in findings
    ]
    return Section(
        f"Health: {verdict} ({len(findings)} finding(s))",
        [] if findings else ["No watchdog fired."],
        [Table("", ("severity", "code", "series", "window", "message"), rows)],
    )


def _timeline_section(document: Dict[str, object]) -> Optional[Section]:
    timeline_obj = document.get("timeline")
    if not timeline_obj:
        return None
    timeline = Timeline.from_obj(timeline_obj)
    rows = []
    for name in timeline.names():
        series = timeline.get(name)
        stat = series.default_stat
        values = [value for _, value in series.points(stat)]
        if values:
            rows.append(
                (
                    name,
                    Trajectory(tuple(values)),
                    stat,
                    f"{min(values):g}",
                    f"{max(values):g}",
                    f"{values[-1]:g}",
                    f"{len(series)} x {series.window_ps / 1e6:g} us",
                )
            )
    if not rows:
        return None
    headers = ("series", "trajectory", "stat", "min", "max", "last", "windows")
    return Section(f"Timeline ({len(rows)} series)", [], [Table("", headers, rows)])


def hottest_links(fabric: Dict[str, object]) -> List[Dict[str, object]]:
    """The fabric's channels, busiest first by utilization (ties: by name)."""
    return sorted(
        fabric["links"],
        key=lambda link: (-link["utilization"], link["name"]),
    )


def _fabric_section(document: Dict[str, object]) -> Optional[Section]:
    """Totals, then the per-link, busiest-route and link-budget tables."""
    fabric = document.get("fabric")
    if not fabric:
        return None
    topology = fabric["topology"]
    lines = [
        f"{topology['description']}: "
        f"{fabric['packets_injected']} packets injected, "
        f"{fabric['packets_delivered']} delivered, "
        f"{fabric['hops_forwarded']} forwarded, "
        f"{fabric['wire_bytes']} wire bytes, "
        f"{fabric['in_flight']} in flight"
    ]
    faults = sorted(
        (kind, count) for kind, count in fabric["fault_totals"].items() if count
    )
    if faults:
        lines.append("faults: " + ", ".join(f"{k} {n}" for k, n in faults))
    links = hottest_links(fabric)
    if not links:
        lines.append("no inter-node channels (single-node fabric)")
        return Section("Fabric", lines)
    if links[0]["utilization"] > 0:
        hottest = links[0]
        lines.append(
            f"hottest link: {hottest['name']} "
            f"(utilization {hottest['utilization']:.1%}, "
            f"wait {hottest['wait_ps']} ps, "
            f"peak queue {hottest['peak_queue']})"
        )
    tables = [
        Table(
            "per-link traffic",
            ("link", "util", "msgs", "bytes", "busy ps", "wait ps", "peak q",
             "faults"),
            [
                (
                    link["name"],
                    f"{link['utilization']:.1%}",
                    link["messages"],
                    link["bytes"],
                    link["busy_ps"],
                    link["wait_ps"],
                    link["peak_queue"],
                    sum((link.get("faults") or {}).values()),
                )
                for link in links
            ],
        )
    ]
    pairs = sorted(
        fabric["pairs"],
        key=lambda pair: (-pair["packets"], pair["src"], pair["dst"]),
    )
    if pairs:
        shown = pairs[:_ROUTE_LIMIT]
        tables.append(
            Table(
                f"busiest routes ({len(shown)} of {len(pairs)} pairs)",
                ("route", "packets", "hops", "path"),
                [
                    (
                        f"{pair['src']} -> {pair['dst']}",
                        pair["packets"],
                        pair["hops"],
                        " -> ".join(map(str, [pair["src"], *pair["route"]])),
                    )
                    for pair in shown
                ],
            )
        )
    budgets = document.get("link_budgets")
    if budgets:
        keys = ("packets", "bytes", "wait_ps", "serialize_ps", "transit_ps",
                "fault_delay_ps")
        names = sorted(budgets, key=lambda name: (-budgets[name]["wait_ps"], name))
        rows = [(name, *(budgets[name][key] for key in keys)) for name in names]
        rows.append(
            ("total", *(sum(entry[key] for entry in budgets.values()) for key in keys))
        )
        tables.append(
            Table(
                "per-link attribution (from per-hop lifecycle marks)",
                ("link", "pkts", "bytes", "wait ps", "serialize ps",
                 "transit ps", "fault delay ps"),
                rows,
            )
        )
    return Section("Fabric", lines, tables, fabric if topology.get("dims") else None)


def _attribution_section(attribution: Dict[str, object]) -> Section:
    agg = attribution["aggregate"]
    e2e = agg["end_to_end"]

    def stats(entry, share):
        return (
            f"{entry['mean_ns']:.1f}",
            f"{entry['p50_ns']:.1f}",
            f"{entry['p90_ns']:.1f}",
            f"{entry['max_ns']:.1f}",
            f"{share:.1%}",
        )

    stages = agg["stages"]
    rows = [
        (stage, *stats(stages[stage], stages[stage]["share"]))
        for stage in stage_order(stages)
    ]
    rows.append(("total", *stats(e2e, 1.0)))
    return Section(
        "Latency attribution",
        [
            f"{agg['count']} messages, end-to-end mean {e2e['mean_ns']:.1f} ns"
            f" / p90 {e2e['p90_ns']:.1f} ns (dominant stage: "
            f"{agg['dominant_stage']}); stages sum exactly to end-to-end, "
            "per message"
        ],
        [
            Table(
                "",
                ("stage", "mean ns", "p50 ns", "p90 ns", "max ns", "share"),
                rows,
            )
        ],
    )


def _profile_section(document: Dict[str, object]) -> Optional[Section]:
    profile = document.get("profile")
    if not profile:
        return None
    # ranked here: a saved document's handlers come back name-sorted
    top = sorted(
        profile.get("top_handlers", {}).items(),
        key=lambda item: (-item[1]["seconds"], item[0]),
    )
    return Section(
        "Simulator self-profile",
        [
            f"{profile['events']} events in {profile['handler_seconds']:g} s "
            f"handler time ({profile['events_per_sec']:g} events/sec)"
        ],
        [
            Table(
                "",
                ("handler", "events", "seconds"),
                [
                    (label, entry["events"], f"{entry['seconds']:.6f}")
                    for label, entry in top
                ],
            )
        ],
    )


def sections(document: Dict[str, object]) -> List[Section]:
    """The report's sections, in order, off a run-report document."""
    out = [
        _health_section(document),
        _timeline_section(document),
        _fabric_section(document),
        _attribution_section(document["attribution"])
        if document["attribution"]
        else None,
        _profile_section(document),
    ]
    marks = queue_high_water(document)
    if marks:
        out.append(
            Section(
                f"Queue high-water marks ({len(marks)} queues)",
                [],
                [Table("", ("queue", "max depth"), marks)],
            )
        )
    metrics = document.get("metrics") or {}
    out.append(
        Section(
            "Metrics",
            [f"{len(metrics)} snapshot entries (full values in the JSON artifact)"],
        )
    )
    return [section for section in out if section is not None]


def _meta_line(document: Dict[str, object]) -> str:
    meta = document.get("meta") or {}
    return ", ".join(f"{key}={value}" for key, value in sorted(meta.items()))


# ------------------------------------------------------------- figures
def _resample(values: Sequence[float], width: int) -> List[float]:
    """Bucket-maximum resample down to at most ``width`` values."""
    if len(values) <= width:
        return list(values)
    out = []
    for bucket in range(width):
        lo = bucket * len(values) // width
        hi = max(lo + 1, (bucket + 1) * len(values) // width)
        out.append(max(values[lo:hi]))
    return out


def sparkline(values: Sequence[float], width: int = _SPARK_WIDTH) -> str:
    """A unicode block-glyph sparkline of a value sequence."""
    if not values:
        return ""
    values = _resample(values, width)
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_GLYPHS[0] * len(values)
    scale = (len(_SPARK_GLYPHS) - 1) / (high - low)
    return "".join(
        _SPARK_GLYPHS[round((value - low) * scale)] for value in values
    )


def _spark_svg(values: Sequence[float], width=160, height=28) -> str:
    """An inline-SVG sparkline polyline (self-contained, no scripts)."""
    values = _resample(values, _SPARK_WIDTH)
    if not values:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / max(len(values) - 1, 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (v - low) / span * (height - 4):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="#3182ce" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def _grid_shape(dims: Sequence[int]) -> Tuple[int, int, int]:
    """``(extent_x, extent_y, planes)``: dims past the second are planes."""
    return dims[0], dims[1] if len(dims) > 1 else 1, math.prod(dims[2:])


def node_heat(fabric: Dict[str, object]) -> Dict[int, float]:
    """Per-node heat: the hottest utilization of any incident channel.

    The quantity both heatmap renderings (text glyph grid, SVG node
    fill) color by, computed once here so they cannot disagree.
    """
    heat: Dict[int, float] = {
        node: 0.0 for node in range(fabric["topology"]["num_nodes"])
    }
    for link in fabric["links"]:
        for node in (link["src"], link["dst"]):
            if link["utilization"] > heat[node]:
                heat[node] = link["utilization"]
    return heat


def _heat_glyph(value: float, top: float) -> str:
    if top <= 0:
        return _SPARK_GLYPHS[0]
    scale = (len(_SPARK_GLYPHS) - 1) / top
    return _SPARK_GLYPHS[round(value * scale)]


def _heat_color(value: float, top: float) -> str:
    """Cold slate-blue to hot red, linear in ``value / top``."""
    fraction = 0.0 if top <= 0 else min(value / top, 1.0)
    red = round(74 + fraction * (197 - 74))
    green = round(85 + fraction * (48 - 85))
    blue = round(104 + fraction * (48 - 104))
    return f"#{red:02x}{green:02x}{blue:02x}"


def _heatmap_text(fabric: Dict[str, object]) -> List[str]:
    """The node heatmap as a glyph grid, one block per plane."""
    heat = node_heat(fabric)
    peak = max(heat.values())
    extent_x, extent_y, planes = _grid_shape(fabric["topology"]["dims"])
    lines = [f"node heatmap (glyph = hottest incident link, peak {peak:.1%}):"]
    for plane in range(planes):
        if planes > 1:
            lines.append(f"  z={plane}")
        for y in range(extent_y):
            lines.append(
                "  "
                + " ".join(
                    _heat_glyph(heat[x + extent_x * (y + extent_y * plane)], peak)
                    for x in range(extent_x)
                )
            )
    return lines


_FABRIC_SVG_CELL = 72
_FABRIC_SVG_PAD = 40


def _heatmap_svg(fabric: Dict[str, object]) -> str:
    """An inline-SVG topology heatmap (grid presets only).

    Planes of the (up to 3-D) grid render side by side; intra-plane
    channels draw as lines colored by utilization, nodes as circles
    filled by their hottest incident link; every element carries a
    ``<title>`` tooltip with the exact numbers, so the picture and the
    tables cannot disagree.
    """
    topology = fabric["topology"]
    extent_x, extent_y, planes = _grid_shape(topology["dims"])
    cell, pad = _FABRIC_SVG_CELL, _FABRIC_SVG_PAD

    def position(node: int) -> Tuple[float, float]:
        # dim 0 fastest, as in Topology; dims past the second are planes
        x, y = node % extent_x, node // extent_x % extent_y
        plane = node // (extent_x * extent_y)
        return (
            pad + (x + plane * (extent_x + 1)) * cell,
            pad + y * cell,
        )

    width = pad * 2 + cell * (planes * (extent_x + 1) - 1)
    height = pad * 2 + cell * extent_y
    heat = node_heat(fabric)
    peak_util = max((link["utilization"] for link in fabric["links"]), default=0.0)
    parts = [
        f'<svg width="{width}" height="{height}" '
        'font-family="ui-monospace, monospace" font-size="11">'
    ]
    # channels first (under the nodes); wraparound and inter-plane links
    # would cross the picture, so only unit-distance intra-plane pairs
    # draw -- their numbers still appear in the per-link table
    for link in fabric["links"]:
        ax, ay = position(link["src"])
        bx, by = position(link["dst"])
        if abs(ax - bx) > cell or abs(ay - by) > cell or (ax, ay) == (bx, by):
            continue
        # offset the two directions of a pair so both stay visible
        dx, dy = (by - ay) / cell * 3, (bx - ax) / cell * 3
        color = _heat_color(link["utilization"], peak_util)
        stroke = 1.5 + (
            4.5 * link["utilization"] / peak_util if peak_util else 0.0
        )
        title = html_mod.escape(
            f"{link['name']}: utilization {link['utilization']:.1%}, "
            f"{link['messages']} msgs, {link['bytes']} bytes, "
            f"wait {link['wait_ps']} ps, peak queue {link['peak_queue']}"
        )
        parts.append(
            f'<line x1="{ax + dx:.0f}" y1="{ay + dy:.0f}" '
            f'x2="{bx + dx:.0f}" y2="{by + dy:.0f}" '
            f'stroke="{color}" stroke-width="{stroke:.1f}">'
            f"<title>{title}</title></line>"
        )
    peak_heat = max(heat.values(), default=0.0)
    for node in range(topology["num_nodes"]):
        x, y = position(node)
        color = _heat_color(heat[node], peak_heat)
        parts.append(
            f'<circle cx="{x:.0f}" cy="{y:.0f}" r="12" fill="{color}">'
            f"<title>node {node}: hottest incident link "
            f"{heat[node]:.1%}</title></circle>"
        )
        parts.append(
            f'<text x="{x:.0f}" y="{y + 4:.0f}" text-anchor="middle" '
            f'fill="#fff">{node}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# ------------------------------------------------------------- renderers
def _text_table(table: Table) -> str:
    rows = [
        [sparkline(cell.values) if isinstance(cell, Trajectory) else cell
         for cell in row]
        for row in table.rows
    ]
    return format_rows(table.headers, rows)


def _text_section(section: Section) -> str:
    lines = [section.title, "-" * len(section.title)]
    lines.extend(section.lines)
    if section.heatmap is not None:
        lines.extend(_heatmap_text(section.heatmap))
    for table in section.tables:
        if table.rows:
            if table.caption:
                lines.extend(["", table.caption])
            lines.append(_text_table(table))
    return "\n".join(lines)


def format_report(attribution: Dict[str, object]) -> str:
    """An :func:`~repro.analysis.attribution.attribute_run` report as the
    report's text "Latency attribution" section."""
    return _text_section(_attribution_section(attribution))


def render_text(document: Dict[str, object]) -> str:
    """The terminal rendering of one run-report document."""
    title = "run report"
    if document.get("meta"):
        title += " -- " + _meta_line(document)
    parts = [title + "\n" + "=" * min(len(title), 78)]
    parts.extend(_text_section(section) for section in sections(document))
    return "\n\n".join(parts)


_VERDICT_COLORS = {
    "healthy": "#2f855a",
    "info": "#2b6cb0",
    "warning": "#b7791f",
    "critical": "#c53030",
}

_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 70em;
       color: #1a202c; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; margin-bottom: 1em; }
caption { text-align: left; font-weight: 600; padding: .3em 0; }
th, td { text-align: left; padding: .3em .6em; border-bottom: 1px solid #e2e8f0;
         font-variant-numeric: tabular-nums; }
th { background: #f7fafc; }
td:first-child, .mono { font-family: ui-monospace, monospace; font-size: .95em; }
.verdict { display: inline-block; padding: .1em .6em; border-radius: 1em;
           color: #fff; font-weight: 600; }
svg.spark { vertical-align: middle; }
"""


def _html_table(table: Table) -> str:
    esc = html_mod.escape

    def cell(value) -> str:
        if isinstance(value, Trajectory):
            return _spark_svg(value.values)
        return esc(str(value))

    caption = f"<caption>{esc(table.caption)}</caption>" if table.caption else ""
    head = "".join(f"<th>{esc(header)}</th>" for header in table.headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell(value)}</td>" for value in row) + "</tr>"
        for row in table.rows
    )
    return (
        f"<table>{caption}<thead><tr>{head}</tr></thead>"
        f"<tbody>{body}</tbody></table>"
    )


def render_html(document: Dict[str, object]) -> str:
    """A self-contained HTML page for one run-report document."""
    esc = html_mod.escape
    health = document.get("health") or {}
    verdict = health.get("verdict", verdict_of(health.get("findings", [])))
    color = _VERDICT_COLORS.get(verdict, "#4a5568")
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>run report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Run report "
        f"<span class='verdict' style='background:{color}'>{esc(verdict)}"
        "</span></h1>",
    ]
    if document.get("meta"):
        parts.append(f"<p class='mono'>{esc(_meta_line(document))}</p>")
    for section in sections(document):
        parts.append(f"<h2>{esc(section.title)}</h2>")
        parts.extend(f"<p>{esc(line)}</p>" for line in section.lines)
        if section.heatmap is not None:
            parts.append(_heatmap_svg(section.heatmap))
        parts.extend(_html_table(table) for table in section.tables if table.rows)
    parts.append("</body></html>")
    return "\n".join(parts)


def render_json(document: Dict[str, object]) -> str:
    """The run-report document as indented JSON."""
    return json.dumps(document, indent=1, sort_keys=True)


# --------------------------------------------------------------- the CLI
def _run_point(args: argparse.Namespace) -> Dict[str, object]:
    """One benchmark point with every collector on, as its run report.

    Only the point flags the user passed reach the params class (a name
    it lacks is ignored: ``--fraction`` means nothing to ``halo``), so
    every other field keeps the workload's own default.  ``--chrome``
    writes the run's trace.
    """
    from repro.workloads.sweep import BENCHMARKS, nic_preset

    bench = BENCHMARKS[args.benchmark]
    fields = {field.name for field in dataclasses.fields(bench.params_cls)}
    point = bench.params_cls(
        **{name: value for name, value in vars(args).items() if name in fields}
    )
    telemetry = Telemetry(
        tracing=True, timeline=True, health=True, fabric=True, profile=True
    )
    result = bench.runner(nic_preset(args.preset), point, telemetry=telemetry)
    if args.chrome:
        telemetry.write_chrome_trace(args.chrome)
    return run_report(
        telemetry,
        benchmark=args.benchmark,
        preset=args.preset,
        **dataclasses.asdict(point),
        mean_latency_ns=round(result.mean_ns, 3),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the workloads load the whole simulator: import them only to run
    from repro.workloads.runner import PRESETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Run one benchmark point, or read a saved report, and "
        "render the unified run report (text, JSON, HTML)",
    )
    parser.add_argument(
        "--input",
        metavar="PATH",
        help="a saved run report or sweep dump; omit to run one point "
        "with every collector on",
    )
    parser.add_argument(
        "--row", type=int, metavar="N", help="render row N of a sweep dump"
    )
    parser.add_argument(
        "--benchmark", choices=("preposted", "unexpected", "halo"),
        default="preposted",
    )
    parser.add_argument(
        "--preset", choices=PRESETS + ("hash",), default="baseline",
        help="receiver NIC (default baseline: the software list)",
    )
    # point flags: left out, they keep the params class's own default
    point = dict(default=argparse.SUPPRESS)
    parser.add_argument("--queue-length", type=int, **point)
    parser.add_argument(
        "--fraction", dest="traverse_fraction", type=float,
        help="preposted traverse fraction", **point,
    )
    parser.add_argument(
        "--size", dest="message_size", type=int, help="message bytes", **point
    )
    parser.add_argument("--iterations", type=int, **point)
    parser.add_argument("--warmup", type=int, **point)
    parser.add_argument("--ranks", type=int, help="halo ranks", **point)
    parser.add_argument("--topology", help="halo topology preset", **point)
    parser.add_argument(
        "--hotspot", dest="hotspot_rank", type=int, metavar="RANK",
        help="halo: inject incast contention toward this rank", **point,
    )
    parser.add_argument(
        "--json", action="store_true", help="print JSON instead of text"
    )
    parser.add_argument("--html", metavar="PATH", help="also write the HTML page")
    parser.add_argument(
        "--out", metavar="PATH", help="also write the JSON report"
    )
    parser.add_argument(
        "--chrome", metavar="PATH",
        help="also write the run's Chrome trace (component tracks and "
        "one track per message); live runs only",
    )
    args = parser.parse_args(argv)

    if args.input and args.chrome:
        parser.error("--chrome traces a live run: a saved report keeps no records")
    document = load_report(args.input) if args.input else _run_point(args)
    rows = document.get("rows")
    if rows is None:
        if args.row is not None:
            parser.error("--row N picks a row of a sweep dump given as --input")
    elif args.row is None:
        raise ReportError(
            f"{args.input} is a sweep dump: its rows are not one run; "
            "pick one with --row N"
        )
    elif not 0 <= args.row < len(rows):
        parser.error(
            f"--row {args.row} out of range ({len(rows)} rows in {args.input})"
        )
    else:
        source = f"row {args.row} of {args.input}"
        document = rows[args.row].get("report")
        if document is None:
            raise ReportError(
                f"{source} carries no run report: its sweep turned no "
                "collector on"
            )
        _checked(document, source)
    for path, render in ((args.html, render_html), (args.out, render_json)):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render(document) + "\n")
    print(render_json(document) if args.json else render_text(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
