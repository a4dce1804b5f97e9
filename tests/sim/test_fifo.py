"""Unit tests for bounded FIFOs."""

import pytest

from repro.sim.fifo import Fifo, FifoEmptyError, FifoFullError


def test_fifo_order():
    fifo = Fifo()
    for i in range(5):
        fifo.push(i)
    assert [fifo.pop() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_bounded_fifo_rejects_overflow():
    fifo = Fifo(capacity=2)
    fifo.push("a")
    fifo.push("b")
    assert fifo.full
    with pytest.raises(FifoFullError):
        fifo.push("c")


def test_pop_from_empty_raises():
    fifo = Fifo()
    with pytest.raises(FifoEmptyError):
        fifo.pop()
    assert fifo.try_pop() is None


def test_peek_does_not_remove():
    fifo = Fifo()
    fifo.push(9)
    assert fifo.peek() == 9
    assert len(fifo) == 1
    with pytest.raises(FifoEmptyError):
        Fifo().peek()


def test_not_empty_signal_levels():
    fifo = Fifo()
    assert not fifo.not_empty.level
    fifo.push(1)
    assert fifo.not_empty.level
    fifo.pop()
    assert not fifo.not_empty.level


def test_not_full_signal_levels():
    fifo = Fifo(capacity=1)
    assert fifo.not_full.level
    fifo.push(1)
    assert not fifo.not_full.level
    fifo.pop()
    assert fifo.not_full.level


def test_drain_returns_in_order_and_empties():
    fifo = Fifo()
    for i in range(4):
        fifo.push(i)
    assert fifo.drain() == [0, 1, 2, 3]
    assert fifo.empty


def test_clear_resets_signals():
    fifo = Fifo(capacity=1)
    fifo.push(1)
    fifo.clear()
    assert fifo.empty
    assert not fifo.not_empty.level
    assert fifo.not_full.level


def test_statistics():
    fifo = Fifo()
    for i in range(3):
        fifo.push(i)
    fifo.pop()
    assert fifo.total_pushed == 3
    assert fifo.total_popped == 1
    assert fifo.high_water == 3


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Fifo(capacity=0)
