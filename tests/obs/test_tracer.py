"""Tracer record semantics: spans, instants, counters."""

from repro.obs.tracer import (
    KIND_BEGIN,
    KIND_COUNTER,
    KIND_END,
    KIND_INSTANT,
    NULL_TRACER,
    NullTracer,
    TraceRecord,
    Tracer,
)


def make_clock(times):
    """A fake clock that pops successive timestamps."""
    it = iter(times)
    return lambda: next(it)


def test_records_carry_clock_timestamps():
    t = Tracer()
    t.attach_clock(make_clock([100, 250]))
    t.instant("nic", "a")
    t.instant("nic", "b", {"k": 1})
    assert t.records == [
        TraceRecord(100, "nic", "a", KIND_INSTANT, None),
        TraceRecord(250, "nic", "b", KIND_INSTANT, {"k": 1}),
    ]
    assert len(t) == 2


def test_span_context_manager_emits_balanced_pair():
    t = Tracer()
    t.attach_clock(make_clock([10, 20]))
    with t.span("alpu", "match", {"q": "posted"}):
        pass
    begin, end = t.records
    assert (begin.kind, end.kind) == (KIND_BEGIN, KIND_END)
    assert begin.name == end.name == "match"
    assert begin.args == {"q": "posted"}
    assert (begin.time_ps, end.time_ps) == (10, 20)


def test_span_closes_on_exception():
    t = Tracer()
    try:
        with t.span("nic", "search"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert [r.kind for r in t.records] == [KIND_BEGIN, KIND_END]


def test_nested_spans_preserve_emission_order():
    t = Tracer()
    t.begin("alpu", "outer")
    t.begin("alpu", "inner")
    t.end("alpu", "inner", {"ok": True})
    t.end("alpu", "outer")
    kinds = [(r.kind, r.name) for r in t.records]
    assert kinds == [
        (KIND_BEGIN, "outer"),
        (KIND_BEGIN, "inner"),
        (KIND_END, "inner"),
        (KIND_END, "outer"),
    ]


def test_counter_records_values_dict():
    t = Tracer()
    t.counter("nic", "depth", {"value": 7})
    (rec,) = t.records
    assert rec.kind == KIND_COUNTER
    assert rec.args == {"value": 7}


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    NULL_TRACER.begin("x", "y")
    NULL_TRACER.end("x", "y")
    NULL_TRACER.instant("x", "y", {"a": 1})
    NULL_TRACER.counter("x", "y", {"v": 2})
    with NULL_TRACER.span("x", "y"):
        pass
    assert NULL_TRACER.records == ()
    assert len(NULL_TRACER) == 0
    assert isinstance(NULL_TRACER, NullTracer)
