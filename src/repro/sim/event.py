"""Events and cancellable event handles.

A scheduled event is a plain mutable list ``[time, priority, seq, action,
state]`` -- the engine's hot path allocates tens of thousands of these per
run, and a bare list is both cheaper to build and cheaper to compare than
a dataclass instance (list comparison is a single C-level lexicographic
walk over the first three integer fields; ``seq`` is unique, so the
comparison never reaches the callable).

``seq`` is a monotonically increasing tie-breaker so that events scheduled
at the same timestamp with the same priority fire in scheduling order --
this gives the simulator deterministic, reproducible behaviour regardless
of heap internals.

``state`` is one of the ``EVENT_*`` constants below.  Cancellation flips
the state in place (lazy cancellation: the entry stays queued and is
skipped when popped), and the engine marks the entry fired the moment the
action runs, which guards the live-event counter against a handle
cancelled after its event already executed.
"""

from __future__ import annotations

from typing import Any, List

#: indices into an event entry list
TIME, PRIORITY, SEQ, ACTION, STATE = range(5)

#: entry states (``STATE`` field)
EVENT_LIVE = 0
EVENT_CANCELLED = 1
EVENT_FIRED = 2

#: an event entry: [time, priority, seq, action, state]
EventEntry = List[Any]


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; supports cancellation.

    Cancellation is lazy: the entry stays in its queue but is skipped when
    popped.  This keeps cancellation O(1).  The handle notifies its owner
    (the engine) on a *successful* cancellation so the engine's live-event
    counter stays exact without ever walking the heap.
    """

    __slots__ = ("_entry", "_owner")

    def __init__(self, entry: EventEntry, owner=None) -> None:
        self._entry = entry
        #: anything with a ``_note_cancelled()`` method (the engine)
        self._owner = owner

    @property
    def time(self) -> int:
        """Scheduled firing time (ps)."""
        return self._entry[TIME]

    @property
    def cancelled(self) -> bool:
        """Has the event been cancelled?"""
        return self._entry[STATE] == EVENT_CANCELLED

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent, no-op after fire)."""
        entry = self._entry
        if entry[STATE] != EVENT_LIVE:
            return
        entry[STATE] = EVENT_CANCELLED
        if self._owner is not None:
            self._owner._note_cancelled()
