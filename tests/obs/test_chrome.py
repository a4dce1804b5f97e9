"""Chrome trace-event export: schema and track assignment."""

import json

import pytest

from repro.obs import Telemetry
from repro.obs.chrome import LIFECYCLE_PID, PID, chrome_trace_events, to_chrome
from repro.obs.recorder import KIND_BEGIN, KIND_COUNTER, KIND_END, Recorder
from repro.workloads import nic_preset
from repro.workloads.pingpong import PingPongParams, run_pingpong


def build_recorder():
    r = Recorder()
    times = iter(range(0, 10_000_000, 1_000_000))
    r.attach_clock(lambda: next(times))
    r.record("dev0", "match", kind=KIND_BEGIN)
    r.record("dev1", "match", kind=KIND_BEGIN)  # concurrent span, other device
    r.record("dev0", "match", detail={"resolved": 1}, kind=KIND_END)
    r.record("dev1", "match", kind=KIND_END)
    r.record("fabric", "inject", detail={"bytes": 32})
    r.record("nic0.postedRecvQ", "depth", detail={"value": 3}, kind=KIND_COUNTER)
    return r


def test_document_envelope():
    doc = to_chrome(build_recorder().records)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ns"
    json.dumps(doc)  # serializable as-is


def test_event_schema():
    events = chrome_trace_events(build_recorder().records)
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
    events = chrome_trace_events(build_recorder().records)
    spans = [e for e in events if e["ph"] in ("B", "E")]
    # the fake clock ticks 1 us (1_000_000 ps) per record
    assert [e["ts"] for e in spans] == [0.0, 1.0, 2.0, 3.0]


def test_concurrent_spans_get_distinct_tracks():
    events = chrome_trace_events(build_recorder().records)
    by_span = {}
    for ev in events:
        if ev["ph"] in ("B", "E"):
            by_span.setdefault((ev["cat"], ev["name"]), set()).add(ev["tid"])
    # each span stays on one track; the two devices' tracks differ
    assert all(len(tids) == 1 for tids in by_span.values())
    assert by_span[("dev0", "match")] != by_span[("dev1", "match")]


def test_begin_end_balance_per_track():
    assert_balanced(chrome_trace_events(build_recorder().records))


def test_points_share_component_track_with_metadata_name():
    events = chrome_trace_events(build_recorder().records)
    meta = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    instant = next(e for e in events if e["ph"] == "i")
    counter = next(e for e in events if e["ph"] == "C")
    assert meta[instant["tid"]] == "fabric"
    assert meta[counter["tid"]] == "nic0.postedRecvQ"
    # a counter keeps its probed signal's full name as its track
    assert counter["name"] == "nic0.postedRecvQ/depth"
    span = next(e for e in events if e["ph"] == "B")
    assert meta[span["tid"]] == "dev0.match"


def assert_balanced(events):
    """B/E nest on every (process, track): in time order, never an E
    before its B.  Returns each track's final depth."""
    depth, last_ts = {}, {}
    for ev in events:
        if ev["ph"] not in ("B", "E"):
            continue
        track = (ev["pid"], ev["tid"])
        assert ev["ts"] >= last_ts.get(track, 0.0), f"time runs back on {track}"
        last_ts[track] = ev["ts"]
        depth[track] = depth.get(track, 0) + (1 if ev["ph"] == "B" else -1)
        assert depth[track] >= 0, f"E without matching B on track {track}"
    return depth


class TestRealDocument:
    """The ping-pong's document: every fact on exactly one track."""

    @pytest.fixture(scope="class")
    def run(self):
        telemetry = Telemetry()
        run_pingpong(
            nic_preset("alpu256"),
            PingPongParams(message_size=0, iterations=4, warmup=1),
            telemetry=telemetry,
        )
        return telemetry, to_chrome(
            telemetry.recorder.records, telemetry.lifecycles()
        )

    def test_each_record_renders_exactly_once(self, run):
        telemetry, doc = run
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        lifecycles = telemetry.lifecycles()
        owned = {id(m) for lc in lifecycles for m in lc.marks}
        components = [r for r in telemetry.recorder.records if id(r) not in owned]
        assert len([e for e in events if e["pid"] == PID]) == len(components)
        # a message track renders a B per non-terminal mark, and an E
        # closing every span that has a successor
        marks = sum(len(lc.marks) for lc in lifecycles)
        terminals = sum(1 for lc in lifecycles if lc.complete)
        open_spans = sum(1 for lc in lifecycles if not lc.complete)
        message_events = [e for e in events if e["pid"] == LIFECYCLE_PID]
        assert len(message_events) == 2 * (marks - terminals) - open_spans
        # every record is in the stream once, and lifecycles hold records
        # of that stream, not copies
        ids = [id(r) for r in telemetry.recorder.records]
        assert len(ids) == len(set(ids))
        assert owned <= set(ids)

    def test_balanced_tracks_distinct_spans_and_microseconds(self, run):
        telemetry, doc = run
        events = doc["traceEvents"]
        depth = assert_balanced(events)
        assert any(pid == PID for pid, _ in depth)
        assert any(pid == LIFECYCLE_PID for pid, _ in depth)
        # the ping-pong's lifecycles all complete: every track closes
        assert all(d == 0 for d in depth.values())
        # the two ALPU devices of a NIC never share a span track
        tids = {
            (e["cat"], e["tid"])
            for e in events
            if e["ph"] == "B" and e["pid"] == PID and e["name"] == "match"
        }
        assert len({tid for _, tid in tids}) == len(tids) >= 2
        # microseconds: the first wire record's ps time / 1e6
        wire = next(
            r for r in telemetry.recorder.records if r.stage == "wire"
        )
        assert any(
            e["name"] == "wire" and e["ts"] == wire.time_ps / 1_000_000
            for e in events
        )
