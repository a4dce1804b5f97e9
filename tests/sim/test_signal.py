"""Unit tests for signals."""

from repro.sim.signal import Signal


def test_pulse_wakes_each_waiter_once():
    signal = Signal("s")
    hits = []
    signal.add_waiter(lambda: hits.append(1))
    signal.add_waiter(lambda: hits.append(2))
    signal.pulse()
    assert hits == [1, 2]
    signal.pulse()
    assert hits == [1, 2]  # waiters are consumed


def test_set_raises_level_and_wakes():
    signal = Signal()
    hits = []
    signal.add_waiter(lambda: hits.append("woke"))
    signal.set()
    assert signal.level
    assert hits == ["woke"]
    signal.clear()
    assert not signal.level


def test_observers_fire_on_every_pulse():
    signal = Signal()
    count = []
    signal.observe(lambda: count.append(None))
    signal.pulse()
    signal.set()
    signal.pulse()
    assert len(count) == 3


def test_remove_waiter_is_idempotent():
    signal = Signal()
    woken = []
    callback = lambda: woken.append(1)  # noqa: E731
    signal.add_waiter(callback)
    signal.remove_waiter(callback)
    signal.remove_waiter(callback)  # second removal is a no-op
    signal.pulse()
    assert woken == []


def test_pulse_count_tracks_pulses():
    signal = Signal()
    for _ in range(4):
        signal.pulse()
    assert signal.pulse_count == 4


def test_waiter_registered_during_pulse_not_woken_by_same_pulse():
    signal = Signal()
    hits = []

    def re_register():
        hits.append("first")
        signal.add_waiter(lambda: hits.append("second"))

    signal.add_waiter(re_register)
    signal.pulse()
    assert hits == ["first"]
    signal.pulse()
    assert hits == ["first", "second"]
