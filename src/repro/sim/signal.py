"""Signals: wakeup points that processes can block on.

A :class:`Signal` is a lightweight condition variable for the simulation.
Processes (see :mod:`repro.sim.process`) block on a signal with
``yield wait_on(sig)``; components fire it with :meth:`Signal.pulse` (wake
all current waiters once) or set a persistent level with :meth:`Signal.set`
(waiters return immediately while the level is high).
"""

from __future__ import annotations

from typing import Callable, List


class Signal:
    """A pulse/level wakeup signal.

    ``pulse()`` wakes every currently-registered waiter exactly once.
    ``set()``/``clear()`` manage a persistent level; a waiter registering
    while the level is set is woken immediately (on the next zero-delay
    event), which avoids lost-wakeup races between a producer and a
    consumer that checks state before sleeping.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._level = False
        self._waiters: List[Callable[[], None]] = []
        self._observers: List[Callable[[], None]] = []
        self._pulses = 0

    # ------------------------------------------------------------- observers
    @property
    def level(self) -> bool:
        """Current persistent level."""
        return self._level

    @property
    def pulse_count(self) -> int:
        """Total number of pulses fired (monitoring/testing aid)."""
        return self._pulses

    # ----------------------------------------------------------------- waits
    def add_waiter(self, callback: Callable[[], None]) -> None:
        """Register a wakeup callback (used by the process layer)."""
        self._waiters.append(callback)

    def remove_waiter(self, callback: Callable[[], None]) -> None:
        """Unregister a callback; ignores callbacks already woken."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def observe(self, callback: Callable[[], None]) -> None:
        """Register a *persistent* observer, called on every pulse.

        Unlike waiters, observers are not consumed; they are how one
        signal (e.g. a NIC-wide "work arrived" kick) fans in several
        sources (rx FIFO, command FIFO, DMA completions).
        """
        self._observers.append(callback)

    # ---------------------------------------------------------------- firing
    def pulse(self) -> None:
        """Wake all currently registered waiters once (and all observers)."""
        self._pulses += 1
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for callback in waiters:
                callback()
        for callback in self._observers:
            callback()

    def set(self) -> None:
        """Raise the level and wake waiters (inlined :meth:`pulse` body --
        every FIFO push lands here, so the extra call frame showed up)."""
        self._level = True
        self._pulses += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for callback in waiters:
                callback()
        for callback in self._observers:
            callback()

    def clear(self) -> None:
        """Lower the level."""
        self._level = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self._level else "clear"
        return f"<Signal {self.name!r} {state} waiters={len(self._waiters)}>"
