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
engine event, later ones ride along for a dict insert.  A timer is its
**key** -- any hashable the owner picks, the reliability layer uses its
retransmit record -- held in the slot as ``slot[key] = None``, and the
wheel hands each firing key to the one ``on_fire`` callback given at
construction.  :meth:`TimerWheel.schedule` returns the slot itself, so
cancel is ``slot.pop(key, None)``: an O(1) dict delete, no handle, no
tombstone in the heap.  When the slot's event fires, the keys still in
it fire in arming order.  A key is armed at most once at a time: cancel
it before arming it again.

Unlike the classic hashed timer wheel this one does **not** quantize:
a slot is one exact deadline, so simulated firing times are identical
to per-timer engine scheduling and the zero-fault benchmarks stay
bit-identical.  The hashing trick trades timing precision for bucket
reuse; in a simulator, timing *is* the semantics, so the trade is not
available.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable

from repro.sim.engine import Engine

#: one wheel slot: the armed keys, insertion order = arming order
Slot = Dict[Hashable, None]


class TimerWheel:
    """Per-deadline timer slots sharing one engine event each."""

    __slots__ = ("_engine", "_on_fire", "_slots", "_fire_ref")

    def __init__(self, engine: Engine, on_fire: Callable[[Hashable], None]) -> None:
        self._engine = engine
        self._on_fire = on_fire
        #: deadline_ps -> slot
        self._slots: Dict[int, Slot] = {}
        # every slot's engine event runs this one bound method: the
        # event fires at the slot's deadline, so ``now`` names the slot
        self._fire_ref = self._fire

    @property
    def armed(self) -> int:
        """Timers currently armed across every slot (probe surface)."""
        return sum(len(slot) for slot in self._slots.values())

    def schedule(self, delay_ps: int, key: Hashable) -> Slot:
        """Arm ``key`` to fire ``delay_ps`` from now; returns its slot,
        from which ``slot.pop(key, None)`` cancels it."""
        if delay_ps < 0:
            raise ValueError(f"negative timer delay: {delay_ps}")
        engine = self._engine
        deadline = engine._now + delay_ps
        slot = self._slots.get(deadline)
        if slot is None:
            slot = self._slots[deadline] = {}
            engine.schedule_call(delay_ps, self._fire_ref)
        slot[key] = None
        return slot

    def _fire(self) -> None:
        # Drain rather than snapshot: ``on_fire`` may cancel a peer in
        # this same slot (its owner holds the dict), and a cancelled
        # timer must not fire -- exactly the guarantee separate engine
        # events gave.  Re-arms can never land back in this slot: the
        # slot left ``_slots`` here and delays are non-negative, so a
        # same-instant re-arm opens a fresh slot and a fresh event.
        slot = self._slots.pop(self._engine._now)
        on_fire = self._on_fire
        while slot:
            key = next(iter(slot))
            del slot[key]
            on_fire(key)
