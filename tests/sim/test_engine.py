"""Unit tests for the event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_starts_at_time_zero():
    assert Engine().now == 0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30, lambda: fired.append("c"))
    engine.schedule(10, lambda: fired.append("a"))
    engine.schedule(20, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30


def test_same_time_events_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for label in "abcde":
        engine.schedule(5, lambda label=label: fired.append(label))
    engine.run()
    assert fired == list("abcde")


def test_priority_breaks_same_time_ties():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda: fired.append("low"), priority=1)
    engine.schedule(5, lambda: fired.append("high"), priority=0)
    engine.run()
    assert fired == ["high", "low"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1, lambda: None)


def test_events_can_schedule_events():
    engine = Engine()
    fired = []

    def first():
        fired.append(("first", engine.now))
        engine.schedule(7, lambda: fired.append(("second", engine.now)))

    engine.schedule(3, first)
    engine.run()
    assert fired == [("first", 3), ("second", 10)]


def test_zero_delay_event_runs_after_current_instant_peers():
    engine = Engine()
    fired = []

    def first():
        engine.schedule(0, lambda: fired.append("chained"))
        fired.append("first")

    engine.schedule(5, first)
    engine.schedule(5, lambda: fired.append("peer"))
    engine.run()
    assert fired == ["first", "peer", "chained"]


def test_cancellation_skips_event():
    engine = Engine()
    fired = []
    handle = engine.schedule(10, lambda: fired.append("cancelled"))
    engine.schedule(5, lambda: fired.append("kept"))
    handle.cancel()
    assert handle.cancelled
    engine.run()
    assert fired == ["kept"]


def test_run_until_leaves_future_events_pending():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: fired.append("early"))
    engine.schedule(100, lambda: fired.append("late"))
    engine.run(until=50)
    assert fired == ["early"]
    assert engine.now == 50
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_executes_events_at_boundary():
    engine = Engine()
    fired = []
    engine.schedule(50, lambda: fired.append("boundary"))
    engine.run(until=50)
    assert fired == ["boundary"]


def test_stop_halts_run_without_clock_jump():
    engine = Engine()
    engine.schedule(10, engine.stop)
    engine.schedule(1000, lambda: None)
    engine.run(until=10_000)
    assert engine.now == 10


def test_max_events_guards_livelock():
    engine = Engine()

    def respawn():
        engine.schedule(1, respawn)

    engine.schedule(1, respawn)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=100)


def test_max_events_counts_only_events_that_would_run():
    """The limit trips only with a live event still due: trailing
    tombstones and events after ``until`` do not count, and the raise
    leaves the next event queued and the clock where the last one ran."""
    engine = Engine()
    for delay in (1, 2, 3):
        engine.schedule(delay, lambda: None)
    engine.schedule(4, lambda: None).cancel()
    engine.schedule(100, lambda: None)
    assert engine.run(until=50, max_events=3) == 50
    engine.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="max_events=1"):
        engine.run(max_events=1)
    assert engine.now == 51
    assert engine.pending == 1


def test_step_fires_one_event_in_key_order():
    """``step`` takes the same path as ``run``: one event per call, the
    slot and heap merged by key, tombstones skipped."""
    engine = Engine()
    fired = []
    engine.schedule(5, lambda: fired.append("t5"))
    engine.schedule(0, lambda: fired.append("p1"), priority=1)
    engine.schedule(0, lambda: fired.append("p0"))
    engine.schedule(3, lambda: fired.append("dropped")).cancel()
    order = []
    while engine.step():
        order.append((engine.now, list(fired)))
    assert fired == ["p0", "p1", "t5"]
    assert [time for time, _ in order] == [0, 0, 5]
    assert engine.events_fired == 3
    assert engine.step() is False


def test_step_ignores_a_stop_left_by_run():
    engine = Engine()
    engine.schedule(1, engine.stop)
    engine.schedule(2, lambda: None)
    engine.run()
    assert engine.now == 1
    assert engine.step() is True
    assert engine.now == 2


def test_events_fired_counter():
    engine = Engine()
    for _ in range(5):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_fired == 5


def test_pending_excludes_cancelled_events():
    engine = Engine()
    keep = engine.schedule(10, lambda: None)
    drop = engine.schedule(20, lambda: None)
    assert engine.pending == 2
    assert engine.raw_pending == 2
    drop.cancel()
    # lazy cancellation: the tombstone stays in the heap, but the live
    # count must not include it
    assert engine.pending == 1
    assert engine.raw_pending == 2
    keep.cancel()
    assert engine.pending == 0
    assert engine.raw_pending == 2
    engine.run()
    assert engine.pending == 0
    assert engine.raw_pending == 0


def test_legacy_trace_keywords_are_gone():
    """``recorder=`` is the one instrumentation hook: the ``trace=``
    adapter and the separate ``tracer=``/``lifecycle=`` streams are gone,
    and every observability parameter is keyword-only."""
    for legacy in ("trace", "tracer", "lifecycle"):
        with pytest.raises(TypeError):
            Engine(**{legacy: None})
    with pytest.raises(TypeError):
        Engine(lambda t, label: None)


def test_engine_defaults_are_disabled_singletons():
    a, b = Engine(), Engine()
    assert not a.recorder.enabled and not a.metrics.enabled
    assert a.recorder is b.recorder  # shared no-op objects, no per-engine cost
    assert a.metrics is b.metrics


def test_recorder_reads_the_engine_clock():
    from repro.obs.recorder import Recorder

    engine = Engine(recorder=Recorder())
    engine.schedule(40, lambda: engine.recorder.record("c", "tick"))
    engine.run()
    (record,) = engine.recorder.records
    assert record.time_ps == 40


def _live_walk(engine):
    """The pre-optimisation O(n) definition of ``pending``: walk both
    queues (heap + current-instant slot) counting live entries."""
    from repro.sim.event import EVENT_LIVE, STATE

    entries = list(engine._heap) + list(engine._slot)
    return sum(1 for entry in entries if entry[STATE] == EVENT_LIVE)


def test_pending_counter_matches_the_heap_walk():
    """O(1) ``pending`` must agree with the explicit walk at every step of
    a schedule/cancel/fire workout."""
    engine = Engine()
    handles = [engine.schedule(10 * i, lambda: None) for i in range(8)]
    assert engine.pending == _live_walk(engine) == 8
    handles[3].cancel()
    handles[6].cancel()
    assert engine.pending == _live_walk(engine) == 6
    while engine.step():
        # fired events flip ``fired`` rather than leaving the heap eagerly,
        # so compare against the walk after every single event
        assert engine.pending == _live_walk(engine)
    assert engine.pending == _live_walk(engine) == 0


def test_cancel_after_fire_does_not_corrupt_the_counter():
    engine = Engine()
    fired = engine.schedule(1, lambda: None)
    engine.schedule(50, lambda: None)
    engine.run(until=10)
    assert engine.pending == 1
    # the handle's event already ran; cancelling it now must be a no-op
    fired.cancel()
    assert engine.pending == 1
    assert not fired.cancelled
    # double-cancel of a live event is also counted exactly once
    live = engine.schedule(100, lambda: None)
    live.cancel()
    live.cancel()
    assert engine.pending == 1


def test_pending_counter_survives_cancelled_head_in_run():
    engine = Engine()
    head = engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    head.cancel()
    engine.run()
    assert engine.pending == 0
    assert engine.events_fired == 1
