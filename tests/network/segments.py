"""Per-hop telescoping oracle: a lifecycle's wire traversals, decomposed.

With fabric observability on, every wire traversal of a message carries
per-hop marks (contention wait, serialization, transit, fault delay).
:func:`wire_segments` cuts a lifecycle into those traversals and checks
that each one's per-hop budget telescopes exactly onto its span.  The
run report folds hop marks per link
(:func:`repro.analysis.attribution.link_budgets`); nothing in the
simulator cuts segments, so this check lives with the tests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.attribution import AttributionError
from repro.obs.recorder import MessageLifecycle

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
