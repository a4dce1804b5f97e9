"""The unified run report: one artifact, three renderings.

:meth:`repro.obs.telemetry.Telemetry.report` captures everything one run
observed -- metadata, metrics, the windowed timeline, health findings,
raw lifecycles, simulator self-profile -- as a single versioned JSON
document.  This module folds that artifact into human-facing renderings:

* **text** -- a terminal report: verdict and findings up top, per-series
  timeline sparklines, latency attribution (when lifecycles rode along),
  simulator hotspots;
* **json** -- the artifact enriched with the folded attribution, for
  downstream tooling;
* **html** -- a self-contained page (inline CSS/SVG, no external assets)
  suitable for a CI artifact.

Run as a CLI::

    python -m repro.analysis.report --input run.json --html run.html

renders a saved artifact; without ``--input`` it runs one benchmark
point with every collector on (like :mod:`repro.analysis.attribution`)
and reports on that.  Attribution folding happens here, at render time:
:mod:`repro.obs` stays import-free of :mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import html as html_mod
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.attribution import (
    AttributionError,
    attribute_run,
    format_report,
    run_benchmark,
)
from repro.obs.health import has_finding, verdict_of
from repro.obs.recorder import MessageLifecycle
from repro.obs.telemetry import REPORT_VERSION
from repro.obs.timeline import Timeline

#: sparkline glyphs, lowest to highest
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
#: sparkline width (windows are resampled down to this many buckets)
_SPARK_WIDTH = 48


class ReportError(ValueError):
    """A run-report artifact was malformed or unrenderable."""


#: the self-profile fields the renderers read
_PROFILE_FIELDS = ("events", "handler_seconds", "events_per_sec")


# ------------------------------------------------------------ load / fold
def load_report(path: str) -> Dict[str, object]:
    """Load a telemetry dump: a sweep dump or a run report.

    Both kinds share one envelope, checked once: a JSON object whose
    integer ``version`` is at most :data:`REPORT_VERSION` (a document
    without one predates the field and reads as v1).  The body is then
    one of:

    * a **sweep dump** (:func:`repro.workloads.sweep.dump_telemetry`):
      a ``rows`` list.  v1 and v2 rows hold their parameters and result
      columns as top-level keys, v2 rows add ``health``, and v3 rows nest
      them under ``params``/``extra``.  The row helpers below read only
      ``metrics`` and ``health``, so they work on every vintage;
    * a **run report** (:meth:`repro.obs.telemetry.Telemetry.report`):
      a ``metrics`` section.  Sections newer than the document's version
      are filled in empty so every renderer handles older reports.

    Anything else -- or anything newer -- raises :class:`ReportError`
    rather than being misread.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ReportError(f"{path} is not a telemetry dump (not a JSON object)")
    version = document.setdefault("version", 1)
    if type(version) is not int:
        raise ReportError(f"{path} has a non-integer version {version!r}")
    if version > REPORT_VERSION:
        raise ReportError(
            f"{path} is a v{version} dump; this tool understands "
            f"up to v{REPORT_VERSION}"
        )
    if "rows" in document:
        if not isinstance(document["rows"], list):
            raise ReportError(f"{path}: a sweep dump's 'rows' must be a list")
        return document
    if "metrics" not in document:
        raise ReportError(
            f"{path} is not a telemetry dump (no 'rows' or 'metrics' key)"
        )
    document.setdefault("meta", {})
    document.setdefault("timeline", None)
    document.setdefault("health", {"verdict": "healthy", "findings": []})
    document.setdefault("lifecycles", None)
    document.setdefault("profile", None)
    document.setdefault("fabric", None)
    profile = document["profile"]
    if profile is not None and not (
        isinstance(profile, dict) and all(f in profile for f in _PROFILE_FIELDS)
    ):
        raise ReportError(
            f"{path}: a profile section needs {', '.join(_PROFILE_FIELDS)}"
        )
    return document


# ------------------------------------------------------------ sweep rows
# Snapshot value shapes (see :meth:`repro.obs.MetricsRegistry.snapshot`):
# counts are numbers; levels are ``{"value", "high_water"}``;
# histograms to ``{"count", "sum", "min", "max", "mean", "buckets"}``.
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


def fold(document: Dict[str, object]) -> Dict[str, object]:
    """The artifact plus the render-time attribution fold.

    Adds an ``attribution`` key: the :func:`~repro.analysis.attribution.
    attribute_run` report when complete lifecycles rode along, else
    ``None``.  Leaves the input untouched.
    """
    enriched = dict(document)
    enriched["attribution"] = None
    lifecycles_obj = document.get("lifecycles")
    if lifecycles_obj:
        lifecycles = [MessageLifecycle.from_obj(o) for o in lifecycles_obj]
        try:
            enriched["attribution"] = attribute_run(lifecycles)
        except AttributionError:
            pass  # no complete messages: the section just stays empty
    return enriched


# -------------------------------------------------------------- sparklines
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


def _series_rows(document: Dict[str, object]) -> List[Dict[str, object]]:
    """Per-series summary rows off the artifact's timeline section."""
    timeline_obj = document.get("timeline")
    if not timeline_obj:
        return []
    timeline = Timeline.from_obj(timeline_obj)
    rows = []
    for name in timeline.names():
        series = timeline.get(name)
        stat = series.default_stat
        values = [value for _, value in series.points(stat)]
        if not values:
            continue
        rows.append(
            {
                "name": name,
                "mode": series.mode,
                "stat": stat,
                "windows": len(series),
                "window_us": series.window_ps / 1e6,
                "span_us": series.span_ps() / 1e6,
                "min": min(values),
                "max": max(values),
                "last": values[-1],
                "values": values,
            }
        )
    return rows


# ---------------------------------------------------------- fabric render
def _node_coords(node: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Grid coordinates of ``node`` (dim 0 fastest, as in Topology)."""
    out = []
    for extent in dims:
        out.append(node % extent)
        node //= extent
    return tuple(out)


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


def hottest_links(
    fabric: Dict[str, object], count: int = 8
) -> List[Dict[str, object]]:
    """The ``count`` busiest channels by utilization (ties: by name)."""
    return sorted(
        fabric["links"],
        key=lambda link: (-link["utilization"], link["name"]),
    )[:count]


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


def _fabric_text_lines(fabric: Dict[str, object]) -> List[str]:
    """The terminal fabric section: totals, hottest links, glyph grid."""
    topology = fabric["topology"]
    lines = [
        f"fabric: {topology['description']}",
        (
            f"  {fabric['packets_injected']} packets injected, "
            f"{fabric['packets_delivered']} delivered, "
            f"{fabric['hops_forwarded']} forwarded, "
            f"{fabric['wire_bytes']} wire bytes"
        ),
    ]
    if any(fabric["fault_totals"].values()):
        lines.append(
            "  faults: "
            + ", ".join(
                f"{kind} {count}"
                for kind, count in sorted(fabric["fault_totals"].items())
                if count
            )
        )
    links = fabric["links"]
    if not links:
        return lines
    top = hottest_links(fabric)
    hottest = top[0]
    if hottest["utilization"] > 0:
        lines.append(
            f"  hottest link: {hottest['name']} "
            f"(utilization {hottest['utilization']:.1%}, "
            f"wait {hottest['wait_ps']} ps, "
            f"peak queue {hottest['peak_queue']})"
        )
    name_width = max(len(link["name"]) for link in top)
    header = (
        f"  {'link':<{name_width}} {'util':>6} {'msgs':>6} "
        f"{'bytes':>9} {'wait ps':>10} {'peak q':>6} {'faults':>6}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for link in top:
        faults = sum((link.get("faults") or {}).values())
        lines.append(
            f"  {link['name']:<{name_width}} {link['utilization']:>6.1%} "
            f"{link['messages']:>6} {link['bytes']:>9} "
            f"{link['wait_ps']:>10} {link['peak_queue']:>6} "
            f"{faults:>6}"
        )
    dims = topology.get("dims")
    if dims:
        heat = node_heat(fabric)
        peak = max(heat.values())
        extent_x = dims[0]
        extent_y = dims[1] if len(dims) > 1 else 1
        planes = 1
        for extent in dims[2:]:
            planes *= extent
        lines.append(
            f"  node heatmap (glyph = hottest incident link, "
            f"peak {peak:.1%}):"
        )
        for plane in range(planes):
            if planes > 1:
                lines.append(f"    z={plane}")
            for y in range(extent_y):
                row = []
                for x in range(extent_x):
                    node = x + extent_x * (y + extent_y * plane)
                    row.append(_heat_glyph(heat[node], peak))
                lines.append("    " + " ".join(row))
    return lines


_FABRIC_SVG_CELL = 72
_FABRIC_SVG_PAD = 40


def _fabric_svg(fabric: Dict[str, object]) -> str:
    """An inline-SVG topology heatmap (grid presets only).

    Planes of the (up to 3-D) grid render side by side; intra-plane
    channels draw as lines colored by utilization, nodes as circles
    filled by their hottest incident link; every element carries a
    ``<title>`` tooltip with the exact numbers, so the picture and the
    tables cannot disagree.
    """
    topology = fabric["topology"]
    dims = topology.get("dims")
    if not dims:
        return ""
    extent_x = dims[0]
    extent_y = dims[1] if len(dims) > 1 else 1
    planes = 1
    for extent in dims[2:]:
        planes *= extent
    cell, pad = _FABRIC_SVG_CELL, _FABRIC_SVG_PAD

    def position(node: int) -> Tuple[float, float]:
        coords = _node_coords(node, dims)
        x = coords[0]
        y = coords[1] if len(coords) > 1 else 0
        plane = 0
        stride = 1
        for c, extent in zip(coords[2:], dims[2:]):
            plane += c * stride
            stride *= extent
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


def _fabric_html_parts(fabric: Dict[str, object]) -> List[str]:
    """The HTML fabric section: totals, SVG heatmap, per-link table."""
    esc = html_mod.escape
    topology = fabric["topology"]
    parts = [
        "<h2>Fabric</h2>",
        f"<p>{esc(topology['description'])}: "
        f"{fabric['packets_injected']} packets injected, "
        f"{fabric['packets_delivered']} delivered, "
        f"{fabric['hops_forwarded']} forwarded, "
        f"{fabric['wire_bytes']} wire bytes.</p>",
    ]
    if any(fabric["fault_totals"].values()):
        parts.append(
            "<p>faults: "
            + ", ".join(
                f"{esc(kind)} {count}"
                for kind, count in sorted(fabric["fault_totals"].items())
                if count
            )
            + "</p>"
        )
    links = fabric["links"]
    if not links:
        return parts
    svg = _fabric_svg(fabric)
    if svg:
        parts.append(svg)
    top = hottest_links(fabric)
    if top[0]["utilization"] > 0:
        parts.append(
            f"<p>hottest link <span class='mono'>{esc(top[0]['name'])}"
            f"</span> at {top[0]['utilization']:.1%} utilization.</p>"
        )
    parts.append(
        "<table><thead><tr><th>link</th><th>util</th><th>msgs</th>"
        "<th>bytes</th><th>wait ps</th><th>peak queue</th><th>faults</th>"
        "</tr></thead><tbody>"
    )
    for link in top:
        faults = sum((link.get("faults") or {}).values())
        parts.append(
            f"<tr><td class='mono'>{esc(link['name'])}</td>"
            f"<td>{link['utilization']:.1%}</td>"
            f"<td>{link['messages']}</td><td>{link['bytes']}</td>"
            f"<td>{link['wait_ps']}</td><td>{link['peak_queue']}</td>"
            f"<td>{faults}</td></tr>"
        )
    parts.append("</tbody></table>")
    return parts


# ------------------------------------------------------------ text render
def queue_high_water(document: Dict[str, object]) -> List[Tuple[str, int]]:
    """Per-queue high-water marks from the metrics snapshot.

    Every NIC queue registers a ``<nic>.<queue>/max_depth`` collector;
    surfacing the marks answers the first capacity question a deep-queue
    run raises -- "how deep did the unexpected queue actually get?" --
    without digging through the raw JSON.
    """
    metrics = document.get("metrics") or {}
    marks = []
    for name, value in metrics.items():
        if name.endswith("/max_depth") and isinstance(value, (int, float)):
            marks.append((name[: -len("/max_depth")], int(value)))
    return sorted(marks)


def render_text(document: Dict[str, object]) -> str:
    """The terminal rendering of one (folded or raw) artifact."""
    document = (
        document if "attribution" in document else fold(document)
    )
    meta = document.get("meta") or {}
    health = document.get("health") or {"verdict": "healthy", "findings": []}
    findings = health.get("findings", [])
    lines: List[str] = []
    title = "run report"
    if meta:
        title += " -- " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    lines.append(title)
    lines.append("=" * min(len(title), 78))
    verdict = health.get("verdict", verdict_of(findings))
    lines.append(f"health: {verdict} ({len(findings)} finding(s))")
    for finding in findings:
        lines.append(
            f"  [{finding['severity']:>8}] {finding['code']}: "
            f"{finding['message']}"
        )
    rows = _series_rows(document)
    if rows:
        lines.append("")
        lines.append(f"timeline ({len(rows)} series)")
        name_width = max(len(row["name"]) for row in rows)
        for row in rows:
            lines.append(
                f"  {row['name']:<{name_width}} "
                f"{sparkline(row['values']):<{_SPARK_WIDTH}} "
                f"{row['stat']}: min {row['min']:g} max {row['max']:g} "
                f"last {row['last']:g} "
                f"({row['windows']} x {row['window_us']:g} us)"
            )
    fabric = document.get("fabric")
    if fabric:
        lines.append("")
        lines.extend(_fabric_text_lines(fabric))
    attribution = document.get("attribution")
    if attribution:
        lines.append("")
        lines.append(format_report(attribution, title="latency attribution"))
    profile = document.get("profile")
    if profile:
        lines.append("")
        lines.append(
            f"simulator: {profile['events']} events in "
            f"{profile['handler_seconds']:g} s handler time "
            f"({profile['events_per_sec']:g} events/sec)"
        )
        for label, entry in profile.get("top_handlers", {}).items():
            lines.append(
                f"  {label:<40} {entry['events']:>8} events "
                f"{entry['seconds']:>10.6f} s"
            )
    marks = queue_high_water(document)
    if marks:
        lines.append("")
        lines.append(f"queue high-water marks ({len(marks)} queues)")
        name_width = max(len(name) for name, _ in marks)
        for name, value in marks:
            lines.append(f"  {name:<{name_width}} max depth {value}")
    metrics = document.get("metrics") or {}
    lines.append("")
    lines.append(f"metrics snapshot: {len(metrics)} entries (see JSON)")
    return "\n".join(lines)


# ------------------------------------------------------------ html render
_SEVERITY_COLORS = {"info": "#2b6cb0", "warning": "#b7791f", "critical": "#c53030"}
_VERDICT_COLORS = {"healthy": "#2f855a", **_SEVERITY_COLORS}

_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 70em;
       color: #1a202c; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: .3em .6em; border-bottom: 1px solid #e2e8f0;
         font-variant-numeric: tabular-nums; }
th { background: #f7fafc; }
.verdict { display: inline-block; padding: .1em .6em; border-radius: 1em;
           color: #fff; font-weight: 600; }
.mono { font-family: ui-monospace, monospace; font-size: .95em; }
svg.spark { vertical-align: middle; }
"""


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


def render_html(document: Dict[str, object]) -> str:
    """A self-contained HTML page for one (folded or raw) artifact."""
    document = (
        document if "attribution" in document else fold(document)
    )
    esc = html_mod.escape
    meta = document.get("meta") or {}
    health = document.get("health") or {"verdict": "healthy", "findings": []}
    findings = health.get("findings", [])
    verdict = health.get("verdict", verdict_of(findings))
    color = _VERDICT_COLORS.get(verdict, "#4a5568")
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>run report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Run report "
        f"<span class='verdict' style='background:{color}'>{esc(verdict)}"
        "</span></h1>",
    ]
    if meta:
        parts.append("<table><tbody>")
        for key in sorted(meta):
            parts.append(
                f"<tr><th>{esc(str(key))}</th>"
                f"<td class='mono'>{esc(str(meta[key]))}</td></tr>"
            )
        parts.append("</tbody></table>")

    parts.append(f"<h2>Health findings ({len(findings)})</h2>")
    if findings:
        parts.append(
            "<table><thead><tr><th>severity</th><th>code</th><th>series</th>"
            "<th>window</th><th>message</th></tr></thead><tbody>"
        )
        for finding in findings:
            sev = finding["severity"]
            sev_color = _SEVERITY_COLORS.get(sev, "#4a5568")
            window = (
                f"{finding['start_ps'] / 1e6:g}-{finding['end_ps'] / 1e6:g} us"
                if finding.get("end_ps")
                else "end of run"
            )
            parts.append(
                f"<tr><td style='color:{sev_color};font-weight:600'>"
                f"{esc(sev)}</td>"
                f"<td class='mono'>{esc(finding['code'])}</td>"
                f"<td class='mono'>{esc(finding['series'])}</td>"
                f"<td>{esc(window)}</td>"
                f"<td>{esc(finding['message'])}</td></tr>"
            )
        parts.append("</tbody></table>")
    else:
        parts.append("<p>No watchdog fired.</p>")

    rows = _series_rows(document)
    if rows:
        parts.append(f"<h2>Timeline ({len(rows)} series)</h2>")
        parts.append(
            "<table><thead><tr><th>series</th><th>trajectory</th>"
            "<th>stat</th><th>min</th><th>max</th><th>last</th>"
            "<th>windows</th></tr></thead><tbody>"
        )
        for row in rows:
            parts.append(
                f"<tr><td class='mono'>{esc(row['name'])}</td>"
                f"<td>{_spark_svg(row['values'])}</td>"
                f"<td>{esc(row['stat'])}</td>"
                f"<td>{row['min']:g}</td><td>{row['max']:g}</td>"
                f"<td>{row['last']:g}</td>"
                f"<td>{row['windows']} &times; {row['window_us']:g} us</td>"
                "</tr>"
            )
        parts.append("</tbody></table>")

    fabric = document.get("fabric")
    if fabric:
        parts.extend(_fabric_html_parts(fabric))

    attribution = document.get("attribution")
    if attribution:
        agg = attribution["aggregate"]
        parts.append("<h2>Latency attribution</h2>")
        parts.append(
            f"<p>{agg['count']} messages, end-to-end mean "
            f"{agg['end_to_end']['mean_ns']:.1f} ns / p90 "
            f"{agg['end_to_end']['p90_ns']:.1f} ns; dominant stage "
            f"<span class='mono'>{esc(agg['dominant_stage'])}</span>.</p>"
        )
        parts.append(
            "<table><thead><tr><th>stage</th><th>mean ns</th><th>p50 ns</th>"
            "<th>p90 ns</th><th>max ns</th><th>share</th></tr></thead><tbody>"
        )
        for stage, entry in agg["stages"].items():
            parts.append(
                f"<tr><td class='mono'>{esc(stage)}</td>"
                f"<td>{entry['mean_ns']:.1f}</td><td>{entry['p50_ns']:.1f}</td>"
                f"<td>{entry['p90_ns']:.1f}</td><td>{entry['max_ns']:.1f}</td>"
                f"<td>{entry['share']:.1%}</td></tr>"
            )
        parts.append("</tbody></table>")

    profile = document.get("profile")
    if profile:
        parts.append("<h2>Simulator self-profile</h2>")
        parts.append(
            f"<p>{profile['events']} events in "
            f"{profile['handler_seconds']:g} s of handler time "
            f"({profile['events_per_sec']:g} events/sec).</p>"
        )
        top = profile.get("top_handlers", {})
        if top:
            parts.append(
                "<table><thead><tr><th>handler</th><th>events</th>"
                "<th>seconds</th></tr></thead><tbody>"
            )
            for label, entry in top.items():
                parts.append(
                    f"<tr><td class='mono'>{esc(label)}</td>"
                    f"<td>{entry['events']}</td>"
                    f"<td>{entry['seconds']:.6f}</td></tr>"
                )
            parts.append("</tbody></table>")

    marks = queue_high_water(document)
    if marks:
        parts.append(f"<h2>Queue high-water marks ({len(marks)})</h2>")
        parts.append(
            "<table><thead><tr><th>queue</th><th>max depth</th>"
            "</tr></thead><tbody>"
        )
        for name, value in marks:
            parts.append(
                f"<tr><td class='mono'>{esc(name)}</td>"
                f"<td>{value}</td></tr>"
            )
        parts.append("</tbody></table>")

    metrics = document.get("metrics") or {}
    parts.append(
        f"<h2>Metrics</h2><p>{len(metrics)} snapshot entries "
        "(full values in the JSON artifact).</p>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)


def render_json(document: Dict[str, object]) -> str:
    """The folded artifact as indented JSON."""
    document = (
        document if "attribution" in document else fold(document)
    )
    return json.dumps(document, indent=1, sort_keys=True)


# --------------------------------------------------------------- the CLI
def _run_benchmark(args) -> Dict[str, object]:
    """One benchmark point with every collector on; returns the report."""
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry(
        tracing=True, timeline=True, health=True, profile=True
    )
    result = run_benchmark(args, telemetry)
    return telemetry.report(
        benchmark=args.benchmark,
        backend=args.backend,
        queue_length=args.queue_length,
        iterations=args.iterations,
        mean_latency_ns=round(result.mean_ns, 3),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Render a unified run report (text/JSON/HTML)",
    )
    parser.add_argument(
        "--input",
        metavar="PATH",
        help="a saved Telemetry.report() JSON artifact; omit to run one "
        "benchmark point with all collectors on",
    )
    parser.add_argument(
        "--benchmark",
        choices=("preposted", "unexpected"),
        default="preposted",
    )
    parser.add_argument("--backend", default="list")
    parser.add_argument("--queue-length", type=int, default=50)
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument(
        "--alpu-cells", type=int, default=256, help="ALPU size for --backend alpu"
    )
    parser.add_argument(
        "--json", action="store_true", help="print JSON instead of text"
    )
    parser.add_argument(
        "--html", metavar="PATH", help="also write the HTML rendering"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="also write the JSON artifact"
    )
    args = parser.parse_args(argv)

    if args.input:
        document = load_report(args.input)
        if "rows" in document:
            raise ReportError(
                f"{args.input} is a sweep dump: its rows are not one run; "
                "load it with repro.analysis.load_report instead"
            )
    else:
        document = _run_benchmark(args)
    folded = fold(document)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(folded))
            handle.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_json(folded))
            handle.write("\n")
    print(render_json(folded) if args.json else render_text(folded))
    return 0


if __name__ == "__main__":
    sys.exit(main())
