"""Chrome trace-event export: schema and track assignment."""

import json

from repro.obs.chrome import PID, chrome_trace_events, to_chrome
from repro.obs.tracer import Tracer


def build_tracer():
    t = Tracer()
    times = iter(range(0, 10_000_000, 1_000_000))
    t.attach_clock(lambda: next(times))
    t.begin("alpu", "dev0.match")
    t.begin("alpu", "dev1.match")  # concurrent span, different component
    t.end("alpu", "dev0.match", {"resolved": 1})
    t.end("alpu", "dev1.match")
    t.instant("network", "fabric.inject", {"bytes": 32})
    t.counter("nic", "postedRecvQ.depth", {"value": 3})
    return t


def test_document_envelope():
    doc = to_chrome(build_tracer().records)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ns"
    json.dumps(doc)  # serializable as-is


def test_event_schema():
    events = chrome_trace_events(build_tracer().records)
    for ev in events:
        assert ev["pid"] == PID
        assert isinstance(ev["tid"], int)
        if ev["ph"] == "M":
            assert ev["name"] == "thread_name"
            assert "name" in ev["args"]
        else:
            assert ev["ph"] in ("B", "E", "i", "C")
            assert isinstance(ev["ts"], float)
            assert "cat" in ev and "name" in ev
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "t" for e in instants)


def test_timestamps_are_microseconds():
    events = chrome_trace_events(build_tracer().records)
    spans = [e for e in events if e["ph"] in ("B", "E")]
    # the fake clock ticks 1 us (1_000_000 ps) per record
    assert [e["ts"] for e in spans] == [0.0, 1.0, 2.0, 3.0]


def test_concurrent_spans_get_distinct_tracks():
    events = chrome_trace_events(build_tracer().records)
    by_name = {}
    for ev in events:
        if ev["ph"] in ("B", "E"):
            by_name.setdefault(ev["name"], set()).add(ev["tid"])
    # each span name stays on one track; the two devices' tracks differ
    assert all(len(tids) == 1 for tids in by_name.values())
    assert by_name["dev0.match"] != by_name["dev1.match"]


def test_begin_end_balance_per_track():
    events = chrome_trace_events(build_tracer().records)
    depth = {}
    for ev in events:
        if ev["ph"] == "B":
            depth[ev["tid"]] = depth.get(ev["tid"], 0) + 1
        elif ev["ph"] == "E":
            depth[ev["tid"]] = depth.get(ev["tid"], 0) - 1
            assert depth[ev["tid"]] >= 0, "E without matching B on its track"
    assert all(d == 0 for d in depth.values())


def test_points_share_category_track_with_metadata_name():
    events = chrome_trace_events(build_tracer().records)
    meta = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    instant = next(e for e in events if e["ph"] == "i")
    counter = next(e for e in events if e["ph"] == "C")
    assert meta[instant["tid"]] == "network"
    assert meta[counter["tid"]] == "nic"
    span = next(e for e in events if e["ph"] == "B")
    assert meta[span["tid"]] == "alpu: dev0.match"
