"""Chrome trace-event export of the instrumentation stream.

Renders a :class:`~repro.obs.recorder.Recorder`'s records into the
Chrome trace-event JSON format (the "JSON Array Format" with a
``traceEvents`` envelope), loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.  :func:`write_chrome` is the one writer: the
telemetry bundle and the run report CLI both go through it.

Every record is rendered once, on one of two kinds of track:

* **message tracks** (a second "process"): one track per lifecycle, each
  stage a ``B``/``E`` pair spanning its residency; the terminal stage
  closes the last span, and an incomplete lifecycle's last span stays
  open;
* **component tracks**: every record no lifecycle holds -- the ALPU and
  search spans, probe counters, and any fact about an unbound uid.  Span
  ``begin``/``end`` map to phases ``"B"``/``"E"``, instants to ``"i"``
  (thread-scoped) and counters to ``"C"`` (named
  ``<component>/<stage>``, so each probed signal keeps its own counter
  track).

Timestamps are exported in microseconds (the format's unit) as floats, so
picosecond resolution survives (1 ps = 1e-6 us); ``displayTimeUnit`` is
``"ns"`` for sane zoom levels.  Instants share one track per component,
while every (component, stage) span pair gets its own track (named via
``thread_name`` metadata events): B/E events nest by time order within a
tid, so concurrent spans -- the two ALPU devices, two NICs' searches --
must not share one.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

from repro.obs.recorder import (
    KIND_BEGIN,
    KIND_COUNTER,
    KIND_END,
    KIND_INSTANT,
    TERMINAL_STAGE,
    MessageLifecycle,
    Record,
)

_PHASES = {
    KIND_BEGIN: "B",
    KIND_END: "E",
    KIND_INSTANT: "i",
    KIND_COUNTER: "C",
}

#: component tracks' process id (one simulated system = one "process")
PID = 1
#: message tracks render in their own "process"
LIFECYCLE_PID = 2


def _thread_name(pid: int, tid: int, label: str) -> dict:
    """The metadata event that names track ``tid`` of process ``pid``."""
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": label},
    }


def _component_events(records: Iterable[Record]) -> List[dict]:
    events: List[dict] = []
    tids: Dict[tuple, int] = {}
    for record in records:
        component, stage, kind = record.component, record.stage, record.kind
        # spans get a track per (component, stage); points share the
        # component's track -- see the module docstring for why
        if kind in (KIND_BEGIN, KIND_END):
            key = (component, stage)
            label = f"{component}.{stage}"
        else:
            key = (component, None)
            label = component
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            events.append(_thread_name(PID, tid, label))
        event = {
            "name": f"{component}/{stage}" if kind == KIND_COUNTER else stage,
            "cat": component,
            "ph": _PHASES[kind],
            "ts": record.time_ps / 1_000_000,
            "pid": PID,
            "tid": tid,
        }
        if kind == KIND_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if record.detail:
            event["args"] = dict(record.detail)
        events.append(event)
    return events


def _message_events(lifecycles: Iterable[MessageLifecycle]) -> List[dict]:
    events: List[dict] = []
    for tid, lifecycle in enumerate(lifecycles, start=1):
        label = lifecycle.label or lifecycle.kind
        events.append(
            _thread_name(
                LIFECYCLE_PID,
                tid,
                f"{label} r{lifecycle.rank}#{lifecycle.req_id} ({lifecycle.kind})",
            )
        )
        marks = lifecycle.marks
        for index, mark in enumerate(marks):
            if mark.stage == TERMINAL_STAGE:
                continue
            event = {
                "name": mark.stage,
                "cat": "lifecycle",
                "ph": "B",
                "ts": mark.time_ps / 1_000_000,
                "pid": LIFECYCLE_PID,
                "tid": tid,
            }
            if mark.detail:
                event["args"] = dict(mark.detail)
            events.append(event)
            if index + 1 < len(marks):
                events.append(
                    {
                        "name": mark.stage,
                        "cat": "lifecycle",
                        "ph": "E",
                        "ts": marks[index + 1].time_ps / 1_000_000,
                        "pid": LIFECYCLE_PID,
                        "tid": tid,
                    }
                )
    return events


def chrome_trace_events(
    records: Iterable[Record], lifecycles: Sequence[MessageLifecycle] = ()
) -> List[dict]:
    """The ``traceEvents`` array: component tracks for the records no
    lifecycle holds, then one track per lifecycle."""
    owned = {id(mark) for lifecycle in lifecycles for mark in lifecycle.marks}
    events = _component_events(r for r in records if id(r) not in owned)
    events.extend(_message_events(lifecycles))
    return events


def to_chrome(
    records: Iterable[Record], lifecycles: Sequence[MessageLifecycle] = ()
) -> dict:
    """The full Chrome trace document."""
    return {
        "traceEvents": chrome_trace_events(records, lifecycles),
        "displayTimeUnit": "ns",
    }


def write_chrome(
    path, records: Iterable[Record], lifecycles: Sequence[MessageLifecycle] = ()
) -> dict:
    """Write :func:`to_chrome`'s document to ``path``; returns it."""
    document = to_chrome(records, lifecycles)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document
