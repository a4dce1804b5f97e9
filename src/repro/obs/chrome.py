"""Chrome trace-event export.

Converts a :class:`~repro.obs.tracer.Tracer`'s records, and the flight
recorder's message lifecycles, into the Chrome trace-event JSON format
(the "JSON Array Format" with a ``traceEvents`` envelope), loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  The one
writer is :meth:`repro.obs.telemetry.Telemetry.write_chrome_trace`.

Mapping:

* span ``begin``/``end``  -> phases ``"B"``/``"E"``
* ``instant``             -> phase ``"i"`` (thread-scoped)
* ``counter``             -> phase ``"C"`` (rendered as a stacked area)

Timestamps are exported in microseconds (the format's unit) as floats, so
picosecond resolution survives (1 ps = 1e-6 us); ``displayTimeUnit`` is
set to ``"ns"`` for sane zoom levels.  Track assignment: instants and
counters share one "thread" per category, while every distinct span name
gets its own track (named via ``thread_name`` metadata events) -- B/E
events nest by time order within a tid, so concurrent spans from
different components (the two ALPU devices, two NICs' firmware) must not
share one.  Lifecycles render in a second "process", one track per
message, each stage a B/E pair spanning its residency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.lifecycle import TERMINAL_STAGE
from repro.obs.tracer import (
    KIND_BEGIN,
    KIND_COUNTER,
    KIND_END,
    KIND_INSTANT,
    TraceRecord,
)

_PHASES = {
    KIND_BEGIN: "B",
    KIND_END: "E",
    KIND_INSTANT: "i",
    KIND_COUNTER: "C",
}

#: exported process id (one simulated system = one "process")
PID = 1
#: lifecycles render in their own "process"
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


def chrome_trace_events(records: Iterable[TraceRecord]) -> List[dict]:
    """The ``traceEvents`` array for a record stream."""
    events: List[dict] = []
    tids: Dict[tuple, int] = {}
    for record in records:
        # spans get a track per (category, name); points share the
        # category track -- see the module docstring for why
        if record.kind in (KIND_BEGIN, KIND_END):
            key = (record.category, record.name)
            label = f"{record.category}: {record.name}"
        else:
            key = (record.category, None)
            label = record.category
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            events.append(_thread_name(PID, tid, label))
        event = {
            "name": record.name,
            "cat": record.category,
            "ph": _PHASES[record.kind],
            "ts": record.time_ps / 1_000_000,
            "pid": PID,
            "tid": tid,
        }
        if record.kind == KIND_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if record.args:
            event["args"] = dict(record.args)
        events.append(event)
    return events


def to_chrome(records: Iterable[TraceRecord]) -> dict:
    """The full Chrome trace document."""
    return {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ns",
    }


def lifecycle_chrome_events(lifecycles) -> List[dict]:
    """Per-message-track Chrome events for an iterable of lifecycles.

    The terminal stage closes the last span; an incomplete lifecycle's
    last span stays open.
    """
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
