"""Unit tests for the slotted, record-keyed timer wheel behind the
reliability layer."""

import pytest

from repro.sim.engine import Engine
from repro.sim.timerwheel import TimerWheel


def wheel_recording(engine):
    """A wheel whose ``on_fire`` logs ``(key, now)``; returns both."""
    fired = []
    wheel = TimerWheel(engine, lambda key: fired.append((key, engine.now)))
    return wheel, fired


def test_timers_fire_at_their_deadline_in_arming_order():
    engine = Engine()
    wheel, fired = wheel_recording(engine)
    wheel.schedule(100, "a")
    wheel.schedule(50, "b")
    wheel.schedule(100, "c")
    engine.run()
    assert fired == [("b", 50), ("a", 100), ("c", 100)]


def test_same_deadline_timers_share_one_engine_event():
    engine = Engine()
    wheel, fired = wheel_recording(engine)
    slots = {id(wheel.schedule(200, key)) for key in range(5)}
    assert wheel.armed == 5
    # one slot, hence a single pending engine event for all five timers
    assert len(slots) == 1
    assert engine.pending == 1
    engine.run()
    assert engine.events_fired == 1
    assert [key for key, _ in fired] == [0, 1, 2, 3, 4]
    assert wheel.armed == 0


def test_cancel_before_fire_suppresses_the_key():
    engine = Engine()
    wheel, fired = wheel_recording(engine)
    slot = wheel.schedule(10, "cancelled")
    wheel.schedule(10, "kept")
    assert "cancelled" in slot
    slot.pop("cancelled", None)
    assert "cancelled" not in slot
    slot.pop("cancelled", None)  # idempotent
    engine.run()
    assert fired == [("kept", 10)]
    assert wheel.armed == 0


def test_cancel_during_fire_stops_same_slot_peer():
    """A key whose firing cancels a peer in its own slot prevents it."""
    engine = Engine()
    fired = []
    slots = {}

    def on_fire(key):
        fired.append(key)
        if key == "a":
            slots["b"].pop("b", None)

    wheel = TimerWheel(engine, on_fire)
    slots["a"] = wheel.schedule(30, "a")
    slots["b"] = wheel.schedule(30, "b")
    assert slots["a"] is slots["b"]
    engine.run()
    assert fired == ["a"]


def test_key_rearmed_into_its_own_slot_fires_last():
    """Cancel-then-arm at the same deadline moves the key behind its
    peers: firing order is arming order."""
    engine = Engine()
    wheel, fired = wheel_recording(engine)
    slot = wheel.schedule(60, "x")
    wheel.schedule(60, "y")
    wheel.schedule(60, "z")

    def rearm_x():
        slot.pop("x", None)
        assert wheel.schedule(40, "x") is slot

    engine.schedule(20, rearm_x)
    engine.run()
    assert fired == [("y", 60), ("z", 60), ("x", 60)]


def test_rearm_during_fire_opens_a_fresh_slot():
    engine = Engine()
    fired = []

    def on_fire(key):
        fired.append((key, engine.now))
        if len(fired) < 3:
            wheel.schedule(40, key)

    wheel = TimerWheel(engine, on_fire)
    wheel.schedule(40, "tick")
    engine.run()
    assert fired == [("tick", 40), ("tick", 80), ("tick", 120)]


def test_zero_delay_fires_and_negative_delay_rejected():
    engine = Engine()
    wheel, fired = wheel_recording(engine)
    wheel.schedule(0, "now")
    with pytest.raises(ValueError):
        wheel.schedule(-1, "past")
    engine.run()
    assert fired == [("now", 0)]


def test_armed_counts_across_slots():
    engine = Engine()
    wheel, _ = wheel_recording(engine)
    a = wheel.schedule(10, "a")
    wheel.schedule(20, "b")
    wheel.schedule(20, "c")
    assert wheel.armed == 3
    a.pop("a", None)
    assert wheel.armed == 2
    engine.run()
    assert wheel.armed == 0
