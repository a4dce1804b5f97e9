"""End-to-end latency attribution from per-message lifecycles.

Folds the message lifecycles of the record stream
(:mod:`repro.obs.recorder`) into per-message **stage-residency
budgets** and aggregates them into the percentile breakdowns the
paper's argument needs: which stage dominates a configuration's latency,
and where the software search term crosses over as the queue grows.

The fold is the telescoping invariant: residency of stage ``i`` is
``marks[i+1].time_ps - marks[i].time_ps``, repeated stage names (the
rendezvous round trips) summing, so every budget adds up *exactly* to the
message's end-to-end latency -- asserted here, not merely hoped.

The run report (:mod:`repro.analysis.report`, also the CLI) renders
these folds as its "Latency attribution" section and the per-link
budgets of its "Fabric" section.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.recorder import MessageLifecycle
from repro.sim.units import ps_to_ns

#: rendering order for known stages (see :func:`stage_order`); roughly
#: the journey order of an eager message
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


def stage_order(stages: Iterable[str]) -> List[str]:
    """``stages`` in :data:`STAGE_ORDER`, unknown ones after it by name.

    The one stage order: the aggregate builds with it and the report
    renders with it, so a saved report reads back in the same order.
    """
    present = set(stages)
    known = [stage for stage in STAGE_ORDER if stage in present]
    return known + sorted(present.difference(known))


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
def link_budgets(
    lifecycles: Iterable[MessageLifecycle],
) -> Dict[str, Dict[str, int]]:
    """Fold hop marks into ``{link name: per-link budget}``.

    Each budget carries ``packets`` (hop traversals, counted at the
    serialize mark), ``bytes``, and the summed ``wait_ps`` /
    ``serialize_ps`` / ``transit_ps`` / ``fault_delay_ps`` residencies
    -- the per-link attribution table of the run report's fabric
    section.  Residencies come from mark deltas, so the table's
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
    total_span = sum(spans)
    report_stages: Dict[str, Dict[str, float]] = {}
    for stage in stage_order(stage for budget in budgets for stage in budget):
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
    what the run report renders.
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
