"""End-to-end latency attribution from per-message lifecycles.

Folds the flight-recorder output (:mod:`repro.obs.lifecycle`) into
per-message **stage-residency budgets** and aggregates them into the
percentile breakdowns the paper's argument needs: which stage dominates
a configuration's latency, and where the software search term crosses
over as the queue grows.

The fold is the telescoping invariant: residency of stage ``i`` is
``marks[i+1].time_ps - marks[i].time_ps``, repeated stage names (the
rendezvous round trips) summing, so every budget adds up *exactly* to the
message's end-to-end latency -- asserted here, not merely hoped.

Run as a CLI::

    python -m repro.analysis.attribution --benchmark preposted \
        --backend list --queue-length 50 --iterations 8

runs one benchmark point with the recorder on and prints the budget
table (``--json`` for machine-readable output, ``--chrome trace.json``
for a per-message Perfetto track file, ``--dump lifecycles.json`` to
save the raw lifecycles; ``--input lifecycles.json`` analyzes a prior
dump instead of running the simulator).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.chrome import lifecycle_chrome_events
from repro.obs.lifecycle import MessageLifecycle
from repro.sim.units import ps_to_ns

#: rendering order for known stages (unknown ones append in first-seen
#: order); roughly the journey order of an eager message
STAGE_ORDER: Tuple[str, ...] = (
    "api_post",
    "host_issue",
    "nic_post",
    "tx_dma",
    "rndv_cts",
    "rndv_data_dma",
    "wire",
    "hop_fault_delay",
    "hop_wait",
    "hop_serialize",
    "hop_transit",
    "wire_drop",
    "retransmit",
    "admission_refused",
    "backend_degraded",
    "rx_queue",
    "nic_rx",
    "match_search",
    "unexpected_queue",
    "unexpected_search",
    "posted_wait",
    "matched",
    "deliver",
    "rx_dma",
    "completion",
)


#: the per-hop decomposition stages fabric observability adds inside a
#: ``wire`` segment (see repro.network.fabric); with observability on
#: the ``wire`` mark's own residency collapses to zero and these carry
#: the decomposed budget
HOP_STAGES: Tuple[str, ...] = (
    "hop_fault_delay",
    "hop_wait",
    "hop_serialize",
    "hop_transit",
)


class AttributionError(ValueError):
    """A lifecycle violated the invariants attribution relies on."""


# ----------------------------------------------------------- per message
def end_to_end_ps(lifecycle: MessageLifecycle) -> int:
    """Terminal time minus first-mark time of a complete lifecycle."""
    if not lifecycle.complete:
        raise AttributionError(
            f"lifecycle mid={lifecycle.mid} is incomplete "
            f"(last stage {lifecycle.marks[-1].stage if lifecycle.marks else None!r})"
        )
    return lifecycle.end_ps - lifecycle.start_ps


def stage_budget(lifecycle: MessageLifecycle) -> Dict[str, int]:
    """Fold one complete lifecycle into ``{stage: residency_ps}``.

    Residency of stage ``i`` runs until mark ``i+1``; repeated stage
    names sum.  The budget's total equals :func:`end_to_end_ps` by
    construction -- asserted anyway so a broken recorder cannot produce
    a quietly wrong decomposition.
    """
    if not lifecycle.complete:
        raise AttributionError(
            f"lifecycle mid={lifecycle.mid} is incomplete"
        )
    budget: Dict[str, int] = {}
    marks = lifecycle.marks
    previous = marks[0]
    for mark in marks[1:]:
        if mark.time_ps < previous.time_ps:
            raise AttributionError(
                f"lifecycle mid={lifecycle.mid} is non-monotone at "
                f"{mark.stage} ({mark.time_ps} < {previous.time_ps})"
            )
        budget[previous.stage] = (
            budget.get(previous.stage, 0) + mark.time_ps - previous.time_ps
        )
        previous = mark
    total = sum(budget.values())
    span = end_to_end_ps(lifecycle)
    if total != span:  # pragma: no cover - telescoping identity
        raise AttributionError(
            f"budget of mid={lifecycle.mid} sums to {total} ps, "
            f"span is {span} ps"
        )
    return budget


def select(
    lifecycles: Iterable[MessageLifecycle],
    *,
    kind: Optional[str] = "send",
    label: Optional[str] = None,
    timed_only: bool = False,
) -> List[MessageLifecycle]:
    """Filter lifecycles by kind / workload label / the ``timed`` flag."""
    picked = []
    for lifecycle in lifecycles:
        if kind is not None and lifecycle.kind != kind:
            continue
        if label is not None and lifecycle.label != label:
            continue
        if timed_only and not lifecycle.meta.get("timed"):
            continue
        picked.append(lifecycle)
    return picked


def budget_rows(
    lifecycles: Sequence[MessageLifecycle],
) -> List[Dict[str, object]]:
    """Per-message budget records (the ``messages`` part of a report)."""
    rows = []
    for lifecycle in lifecycles:
        budget = stage_budget(lifecycle)
        rows.append(
            {
                "mid": lifecycle.mid,
                "label": lifecycle.label,
                "meta": dict(lifecycle.meta),
                "stages_ps": budget,
                "end_to_end_ps": end_to_end_ps(lifecycle),
                "end_to_end_ns": ps_to_ns(end_to_end_ps(lifecycle)),
            }
        )
    return rows


# ---------------------------------------------------------- fabric hops
def wire_segments(lifecycle: MessageLifecycle) -> List[Dict[str, object]]:
    """Per wire traversal: the segment span and its per-hop budget.

    A *segment* runs from a ``wire`` mark to the first following mark
    that is neither ``wire`` nor a hop stage.  Each segment reports

    - ``span_ps``: wall time of the whole traversal (injection to exit),
    - ``wire_ps``: the ``wire`` mark's own residency (zero with fabric
      observability on -- the hops carry the budget),
    - ``hops_ps``: summed residency of all hop marks inside the segment,
    - ``hops``: per-hop-mark rows ``{stage, link, residency_ps}``.

    The telescoping decomposition invariant is ``wire_ps + hops_ps ==
    span_ps`` for every segment -- residencies are consecutive mark
    deltas, so it holds by construction; asserted anyway (and property-
    tested) so a reordered recorder cannot decompose quietly wrong.
    """
    if not lifecycle.complete:
        raise AttributionError(
            f"lifecycle mid={lifecycle.mid} is incomplete"
        )
    marks = lifecycle.marks
    hop_stages = set(HOP_STAGES)
    segments: List[Dict[str, object]] = []
    i = 0
    while i < len(marks) - 1:
        if marks[i].stage != "wire":
            i += 1
            continue
        start = marks[i].time_ps
        wire_ps = marks[i + 1].time_ps - start
        hops: List[Dict[str, object]] = []
        hops_ps = 0
        j = i + 1
        while j < len(marks) - 1 and marks[j].stage in hop_stages:
            residency = marks[j + 1].time_ps - marks[j].time_ps
            detail = marks[j].detail or {}
            hops.append(
                {
                    "stage": marks[j].stage,
                    "link": detail.get("link"),
                    "residency_ps": residency,
                }
            )
            hops_ps += residency
            j += 1
        span_ps = marks[j].time_ps - start
        if wire_ps + hops_ps != span_ps:  # pragma: no cover - telescoping
            raise AttributionError(
                f"wire segment of mid={lifecycle.mid} decomposes to "
                f"{wire_ps} + {hops_ps} ps, span is {span_ps} ps"
            )
        segments.append(
            {
                "start_ps": start,
                "end_ps": marks[j].time_ps,
                "span_ps": span_ps,
                "wire_ps": wire_ps,
                "hops_ps": hops_ps,
                "hops": hops,
            }
        )
        i = j
    return segments


def link_budgets(
    lifecycles: Iterable[MessageLifecycle],
) -> Dict[str, Dict[str, int]]:
    """Fold hop marks into ``{link name: per-link budget}``.

    Each budget carries ``packets`` (hop traversals, counted at the
    serialize mark), ``bytes``, and the summed ``wait_ps`` /
    ``serialize_ps`` / ``transit_ps`` / ``fault_delay_ps`` residencies
    -- the congestion-attribution table the fabric CLI and the heatmap
    caption print.  Residencies come from mark deltas, so the table's
    grand total telescopes into the runs' end-to-end budgets.
    """
    field = {
        "hop_wait": "wait_ps",
        "hop_serialize": "serialize_ps",
        "hop_transit": "transit_ps",
        "hop_fault_delay": "fault_delay_ps",
    }
    budgets: Dict[str, Dict[str, int]] = {}
    for lifecycle in lifecycles:
        marks = lifecycle.marks
        for index, mark in enumerate(marks[:-1]):
            key = field.get(mark.stage)
            if key is None:
                continue
            detail = mark.detail or {}
            link = detail.get("link")
            if link is None:
                continue
            entry = budgets.get(link)
            if entry is None:
                entry = budgets[link] = {
                    "packets": 0,
                    "bytes": 0,
                    "wait_ps": 0,
                    "serialize_ps": 0,
                    "transit_ps": 0,
                    "fault_delay_ps": 0,
                }
            entry[key] += marks[index + 1].time_ps - mark.time_ps
            if mark.stage == "hop_serialize":
                entry["packets"] += 1
                entry["bytes"] += detail.get("bytes", 0)
    return budgets


# ------------------------------------------------------------- aggregate
def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        raise AttributionError("percentile of an empty sequence")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (
        sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction
    )


def _stats_ns(values_ps: Sequence[int]) -> Dict[str, float]:
    ordered = sorted(values_ps)
    return {
        "mean_ns": ps_to_ns(statistics.fmean(ordered)),
        "p50_ns": ps_to_ns(_percentile(ordered, 0.50)),
        "p90_ns": ps_to_ns(_percentile(ordered, 0.90)),
        "max_ns": ps_to_ns(ordered[-1]),
    }


def aggregate(lifecycles: Sequence[MessageLifecycle]) -> Dict[str, object]:
    """Percentile breakdown per stage over a set of complete lifecycles.

    Returns ``{"count", "stages", "end_to_end", "dominant_stage"}``;
    ``stages`` maps stage name to mean/p50/p90/max residency in ns plus
    its mean ``share`` of end-to-end latency.  A stage absent from some
    message counts as zero there, so shares sum to 1 across stages.
    """
    if not lifecycles:
        raise AttributionError("no lifecycles to aggregate")
    budgets = [stage_budget(lifecycle) for lifecycle in lifecycles]
    spans = [end_to_end_ps(lifecycle) for lifecycle in lifecycles]
    stages: List[str] = []
    for budget in budgets:
        for stage in budget:
            if stage not in stages:
                stages.append(stage)
    ordered = [s for s in STAGE_ORDER if s in stages]
    ordered += [s for s in stages if s not in ordered]
    total_span = sum(spans)
    report_stages: Dict[str, Dict[str, float]] = {}
    for stage in ordered:
        values = [budget.get(stage, 0) for budget in budgets]
        entry = _stats_ns(values)
        entry["share"] = (sum(values) / total_span) if total_span else 0.0
        report_stages[stage] = entry
    dominant = max(
        report_stages, key=lambda stage: report_stages[stage]["mean_ns"]
    )
    return {
        "count": len(lifecycles),
        "stages": report_stages,
        "end_to_end": _stats_ns(spans),
        "dominant_stage": dominant,
    }


def dominant_stage(lifecycles: Sequence[MessageLifecycle]) -> str:
    """The stage with the largest mean residency."""
    return aggregate(lifecycles)["dominant_stage"]


def attribute_run(
    lifecycles: Iterable[MessageLifecycle],
    *,
    label: Optional[str] = "ping",
    timed_only: bool = True,
) -> Dict[str, object]:
    """The full report for one run: per-message rows + the aggregate.

    This is what sweep rows carry when lifecycle recording is on, and
    what the CLI renders.
    """
    picked = select(lifecycles, label=label, timed_only=timed_only)
    if not picked:
        # benchmarks that label nothing still get the message journeys
        picked = [
            lifecycle
            for lifecycle in select(lifecycles, label=None, timed_only=False)
            if lifecycle.complete
        ]
    return {
        "messages": budget_rows(picked),
        "aggregate": aggregate(picked),
    }


# ------------------------------------------------------------- crossover
def stage_series(
    points: Sequence[Tuple[int, Dict[str, object]]], stage: str
) -> List[Tuple[int, float]]:
    """``(queue_length, mean stage residency ns)`` from aggregate reports."""
    series = []
    for queue_length, report in points:
        stages = report["stages"]
        mean = stages[stage]["mean_ns"] if stage in stages else 0.0
        series.append((queue_length, mean))
    return series


def crossover_queue_length(
    software: Sequence[Tuple[int, float]],
    accelerated: Sequence[Tuple[int, float]],
) -> Optional[int]:
    """First queue length where the software residency exceeds the
    accelerated one -- the attribution-level version of the paper's
    break-even point.  Both series must share their queue-length axis;
    returns None when the software curve never crosses above.
    """
    accelerated_at = dict(accelerated)
    for queue_length, value in sorted(software):
        other = accelerated_at.get(queue_length)
        if other is not None and value > other:
            return queue_length
    return None


# -------------------------------------------------------------- rendering
def format_report(
    report: Dict[str, object], *, title: Optional[str] = None
) -> str:
    """Fixed-width text table of an :func:`attribute_run` report."""
    lines: List[str] = []
    if title:
        lines.append(title)
    agg = report["aggregate"]
    lines.append(
        f"{agg['count']} messages, end-to-end "
        f"mean {agg['end_to_end']['mean_ns']:.1f} ns / "
        f"p90 {agg['end_to_end']['p90_ns']:.1f} ns "
        f"(dominant stage: {agg['dominant_stage']})"
    )
    header = (
        f"{'stage':<18} {'mean ns':>9} {'p50 ns':>9} "
        f"{'p90 ns':>9} {'max ns':>9} {'share':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for stage, entry in agg["stages"].items():
        lines.append(
            f"{stage:<18} {entry['mean_ns']:>9.1f} {entry['p50_ns']:>9.1f} "
            f"{entry['p90_ns']:>9.1f} {entry['max_ns']:>9.1f} "
            f"{entry['share']:>6.1%}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<18} {agg['end_to_end']['mean_ns']:>9.1f}"
        "  (stages sum exactly to end-to-end, per message)"
    )
    return "\n".join(lines)


# --------------------------------------------------------------- the CLI
def _load_lifecycles(path: str) -> List[MessageLifecycle]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [MessageLifecycle.from_obj(obj) for obj in payload["lifecycles"]]


def _run_benchmark(args) -> "object":
    """Run one benchmark point with the recorder on; returns Telemetry."""
    # workloads import repro.analysis consumers; keep the dependency lazy
    from repro.nic.nic import NicConfig
    from repro.obs.telemetry import Telemetry
    from repro.workloads.preposted import PrepostedParams, run_preposted
    from repro.workloads.unexpected import UnexpectedParams, run_unexpected

    if args.backend == "alpu":
        nic = NicConfig.with_alpu(total_cells=args.alpu_cells)
    elif args.backend == "list":
        nic = NicConfig.baseline()
    else:
        nic = NicConfig.with_backend(args.backend)
    telemetry = Telemetry(tracing=False, lifecycle=True)
    if args.benchmark == "preposted":
        run_preposted(
            nic,
            PrepostedParams(
                queue_length=args.queue_length,
                traverse_fraction=args.fraction,
                message_size=args.size,
                iterations=args.iterations,
                warmup=args.warmup,
            ),
            telemetry=telemetry,
        )
    else:
        run_unexpected(
            nic,
            UnexpectedParams(
                queue_length=args.queue_length,
                message_size=args.size,
                iterations=args.iterations,
                warmup=args.warmup,
            ),
            telemetry=telemetry,
        )
    return telemetry


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.attribution",
        description="Per-message latency attribution for one benchmark point",
    )
    parser.add_argument(
        "--benchmark",
        choices=("preposted", "unexpected"),
        default="preposted",
        help="which Section V-A benchmark to run (default preposted)",
    )
    parser.add_argument(
        "--backend",
        default="list",
        help="matching backend: list, hash, alpu, or any registered name",
    )
    parser.add_argument("--queue-length", type=int, default=50)
    parser.add_argument(
        "--fraction",
        type=float,
        default=1.0,
        help="preposted traverse fraction (ignored for unexpected)",
    )
    parser.add_argument("--size", type=int, default=0, help="message bytes")
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument(
        "--alpu-cells", type=int, default=256, help="ALPU size for --backend alpu"
    )
    parser.add_argument(
        "--input",
        metavar="PATH",
        help="analyze a lifecycle JSON dump instead of running the simulator",
    )
    parser.add_argument(
        "--all-messages",
        action="store_true",
        help="include warmup/control messages, not just timed pings",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--dump", metavar="PATH", help="also write the raw lifecycles as JSON"
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        help="also write a per-message-track Chrome trace",
    )
    args = parser.parse_args(argv)

    if args.input:
        lifecycles = _load_lifecycles(args.input)
        title = f"attribution of {args.input}"
    else:
        telemetry = _run_benchmark(args)
        lifecycles = telemetry.lifecycles()
        title = (
            f"{args.benchmark} / {args.backend} backend, "
            f"queue_length={args.queue_length}"
        )
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as handle:
            json.dump(
                {"lifecycles": [lc.to_obj() for lc in lifecycles]},
                handle,
                indent=1,
            )
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": lifecycle_chrome_events(lifecycles)}, handle
            )
    if args.all_messages:
        report = attribute_run(lifecycles, label=None, timed_only=False)
    else:
        report = attribute_run(lifecycles)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(format_report(report, title=title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
