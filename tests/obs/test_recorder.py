"""The record stream: one typed record per fact, shared with the
lifecycle view that holds it."""

from repro.obs.recorder import (
    KIND_BEGIN,
    KIND_COUNTER,
    KIND_END,
    KIND_INSTANT,
    NULL_RECORDER,
    NullRecorder,
    Record,
    Recorder,
    TERMINAL_STAGE,
)


def make_clock(times):
    """A fake clock that pops successive timestamps."""
    it = iter(times)
    return lambda: next(it)


def test_records_carry_clock_timestamps():
    r = Recorder()
    r.attach_clock(make_clock([100, 250]))
    r.record("nic0", "a")
    r.record("nic0", "b", detail={"k": 1})
    assert r.records == [
        Record(100, "nic0", "a", None, None, KIND_INSTANT),
        Record(250, "nic0", "b", None, {"k": 1}, KIND_INSTANT),
    ]


def test_span_records_pair_begin_and_end():
    r = Recorder()
    r.attach_clock(make_clock([10, 20]))
    r.record("nic0.alpu.posted", "match", detail={"q": "posted"}, kind=KIND_BEGIN)
    r.record("nic0.alpu.posted", "match", kind=KIND_END)
    begin, end = r.records
    assert (begin.kind, end.kind) == (KIND_BEGIN, KIND_END)
    assert begin.stage == end.stage == "match"
    assert begin.detail == {"q": "posted"}
    assert (begin.time_ps, end.time_ps) == (10, 20)
    assert begin.uid is end.uid is None  # component facts carry no uid


def test_nested_spans_preserve_emission_order():
    r = Recorder()
    r.record("alpu", "outer", kind=KIND_BEGIN)
    r.record("alpu", "inner", kind=KIND_BEGIN)
    r.record("alpu", "inner", detail={"ok": True}, kind=KIND_END)
    r.record("alpu", "outer", kind=KIND_END)
    kinds = [(rec.kind, rec.stage) for rec in r.records]
    assert kinds == [
        (KIND_BEGIN, "outer"),
        (KIND_BEGIN, "inner"),
        (KIND_END, "inner"),
        (KIND_END, "outer"),
    ]


def test_counter_records_values_dict():
    r = Recorder()
    r.record("nic0.postedRecvQ", "depth", detail={"value": 7}, kind=KIND_COUNTER)
    (rec,) = r.records
    assert rec.kind == KIND_COUNTER
    assert rec.detail == {"value": 7}


def test_bound_uid_record_is_stored_once():
    """A message's record is the very object its lifecycle holds."""
    r = Recorder()
    r.open_request("send", 0, 1, "host0", 5)
    r.bind_uid(0, 1, 42)
    r.record("fabric", "wire", 42, {"bytes": 64}, time_ps=9)
    (lifecycle,) = r.lifecycles
    assert [m.stage for m in lifecycle.marks] == ["api_post", "wire"]
    assert all(any(m is rec for rec in r.records) for m in lifecycle.marks)
    assert len(r.records) == 2


def test_unbound_and_post_terminal_records_stay_component_facts():
    r = Recorder()
    r.record("fabric", "wire", 7)  # nothing bound uid 7
    r.open_request("recv", 1, 1, "host1", 0)
    r.open_request("send", 0, 1, "host0", 0)
    r.bind_uid(0, 1, 8)
    r.watch_completion(1, 1, 8)
    r.complete_request(1, 1, "host1", 30, recv=True)
    r.record("nic0", "retransmit", 8, time_ps=40)  # a late echo
    recv, send = r.lifecycles
    assert send.complete and send.marks[-1].stage == TERMINAL_STAGE
    # the one terminal record closes both journeys
    assert recv.marks[-1] is send.marks[-1]
    assert [rec.stage for rec in r.records] == [
        "wire", "api_post", "api_post", TERMINAL_STAGE, "retransmit",
    ]


def test_clamped_records_stay_monotone_on_their_lifecycle():
    r = Recorder()
    r.open_request("send", 0, 1, "host0", 100)
    r.bind_uid(0, 1, 5)
    r.record_clamped("fabric", "hop_wait", 5, 60)  # behind the last mark
    r.record_clamped("fabric", "hop_wait", 6, 60)  # unbound: time kept
    (lifecycle,) = r.lifecycles
    assert [m.time_ps for m in lifecycle.marks] == [100, 100]
    assert r.records[-1].time_ps == 60


def test_null_recorder_is_inert():
    assert not NULL_RECORDER.enabled
    NULL_RECORDER.attach_clock(lambda: 1)
    NULL_RECORDER.record("x", "y", 1, {"a": 1}, kind=KIND_BEGIN)
    NULL_RECORDER.record_clamped("x", "y", 1, 5)
    NULL_RECORDER.open_request("send", 0, 1, "host0")
    NULL_RECORDER.mark_request(0, 1, "nic0", "x")
    NULL_RECORDER.complete_request(0, 1, "host0", 3, recv=True)
    NULL_RECORDER.search_note(alpu_occupancy=1)
    assert NULL_RECORDER.pop_search_notes() == {}
    assert NULL_RECORDER.records == ()
    assert NULL_RECORDER.lifecycles == ()
    assert isinstance(NULL_RECORDER, NullRecorder)
