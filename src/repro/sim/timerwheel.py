"""A timer wheel for high-churn cancel-heavy timers.

The reliability layer arms one retransmit timer per in-flight packet and
cancels almost every one of them (the ACK nearly always wins the race).
Routing those timers straight into the engine heap has two costs:

* every timer is its own heap entry -- ``heappush`` on arm, a tombstone
  the event loop must pop and skip after a cancel;
* a burst of packets injected in one event arms many timers with the
  *same* deadline, each a separate heap entry.

The wheel collapses both.  Timers land in per-deadline **slots** (a dict
keyed by absolute deadline); only the first timer of a slot schedules an
engine event, later ones ride along for a dict insert.  Cancel is an
O(1) dict delete -- no tombstone ever reaches the heap.  When the slot's
event fires, whatever callbacks are still registered run in arming
order.

Unlike the classic hashed timer wheel this one does **not** quantize:
a slot is one exact deadline, so simulated firing times are identical
to per-timer engine scheduling and the zero-fault benchmarks stay
bit-identical.  The hashing trick trades timing precision for bucket
reuse; in a simulator, timing *is* the semantics, so the trade is not
available.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict

from repro.sim.engine import Engine


class TimerHandle:
    """Cancellation handle for one timer in a wheel slot."""

    __slots__ = ("_slot", "_token")

    def __init__(self, slot: Dict[int, Callable[[], None]], token: int) -> None:
        self._slot = slot
        self._token = token

    def cancel(self) -> None:
        """Remove the timer; a no-op if it already fired or was cancelled."""
        self._slot.pop(self._token, None)

    @property
    def active(self) -> bool:
        """Is the timer still armed (not fired, not cancelled)?"""
        return self._token in self._slot


class TimerWheel:
    """Per-deadline timer slots sharing one engine event each."""

    __slots__ = ("_engine", "_slots", "_tokens")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        #: deadline_ps -> {token: callback}, insertion order = arming order
        self._slots: Dict[int, Dict[int, Callable[[], None]]] = {}
        self._tokens = itertools.count()

    @property
    def armed(self) -> int:
        """Timers currently armed across every slot (probe surface)."""
        return sum(len(slot) for slot in self._slots.values())

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> TimerHandle:
        """Arm ``callback`` to fire ``delay_ps`` from now; returns a handle."""
        if delay_ps < 0:
            raise ValueError(f"negative timer delay: {delay_ps}")
        engine = self._engine
        deadline = engine._now + delay_ps
        slot = self._slots.get(deadline)
        if slot is None:
            slot = {}
            self._slots[deadline] = slot
            engine.schedule_call(delay_ps, functools.partial(self._fire, deadline))
        token = next(self._tokens)
        slot[token] = callback
        return TimerHandle(slot, token)

    def _fire(self, deadline: int) -> None:
        # Drain rather than snapshot: a callback may cancel a peer timer
        # in this same slot (handles keep a reference to the dict), and a
        # cancelled timer must not run -- exactly the guarantee separate
        # engine events gave.  Re-arms can never land back in this slot:
        # the slot left ``_slots`` above and delays are non-negative, so
        # a same-instant re-arm opens a fresh slot and a fresh event.
        slot = self._slots.pop(deadline)
        while slot:
            token = next(iter(slot))
            callback = slot.pop(token)
            callback()
