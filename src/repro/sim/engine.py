"""The discrete-event simulation engine.

The :class:`Engine` owns the event queues and the simulated clock.  It is
the single point of truth for "now"; every component and process reads time
through the engine.  The engine is deliberately minimal -- components,
links, FIFOs and processes are layered on top of ``schedule``.

Data layout (the hot path)
--------------------------
Events are plain lists ``[time, priority, seq, action, state]`` (see
:mod:`repro.sim.event`) held in **two** queues:

* ``_heap`` -- a binary heap ordered by ``(time, priority, seq)`` for
  events in the future or at non-default priority.  List comparison is a
  C-level lexicographic walk, so there is no ``__lt__`` dispatch per
  sift step.
* ``_slot`` -- a FIFO deque holding the *current-instant slot*: events
  scheduled with zero delay at priority 0.  This is by far the most
  common case (process wakeups, signal pulses, FIFO hand-offs), and a
  deque append/popleft is O(1) versus O(log n) heap sifts.

The split is exact, not approximate.  A slot entry's key is
``(now_at_schedule_time, 0, seq)``; because the clock never moves
backwards and ``seq`` only grows, the slot deque is always sorted by key,
and no *future* ``schedule`` call can create a key smaller than one
already popped.  Dispatch therefore compares the slot head against the
heap head and pops whichever has the smaller ``(time, priority, seq)``
key -- byte-identical event ordering to a single heap, measurably faster.
(``tests/sim/test_engine.py`` pins the ordering cases: same-instant
priorities, zero-delay events running after current-instant peers, and
the live-event counter against an explicit walk of both queues.)

This engine drives the reproduction of the queue-processing pipeline from
the source paper (Underwood, Hemmert, Rodrigues, Murphy, Brightwell,
"A Hardware Acceleration Unit for MPI Queue Processing", IPDPS 2005):
the Fig. 4/5 latency numbers come out of components exchanging events
through this queue, so its ordering rules are part of the model's
determinism contract.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Optional

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.recorder import NULL_RECORDER
from repro.sim.event import EventHandle


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Engine:
    """Event queues + clock.

    Parameters
    ----------
    recorder:
        A :class:`repro.obs.recorder.Recorder`, the one instrumentation
        stream the MPI layer, NIC firmware, ALPU devices, network and
        probe emit records into.  Defaults to the shared no-op recorder
        (``engine.recorder.enabled`` is False).
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry` components obtain
        instruments from.  Defaults to the shared no-op registry.
    profiler:
        A :class:`repro.obs.selfprof.SimProfiler`; when set, the
        dispatch loop times every event handler with the wall clock.
        Never touches simulated state.
    """

    def __init__(
        self,
        *,
        recorder=None,
        metrics=None,
        profiler=None,
    ) -> None:
        #: future / non-default-priority events, heap-ordered by key
        self._heap: list[list] = []
        #: current-instant priority-0 events, FIFO (always key-sorted)
        self._slot: deque[list] = deque()
        self._now: int = 0
        self._seq: int = 0
        self._fired: int = 0
        #: live (scheduled, not fired, not cancelled) events -- kept exact
        #: by schedule/dispatch/cancel so :attr:`pending` is O(1)
        self._live: int = 0
        self._stopped = False
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.profiler = profiler
        #: ids unique within this engine's simulated world, from 1 (the
        #: NIC queues draw entry uids, and so packet send ids, from it),
        #: so two identical worlds in one process number alike
        self.uids = itertools.count(1)
        self.recorder.attach_clock(lambda: self._now)
        if self.metrics.enabled:
            self.metrics.register_collector("engine/events", lambda: self._fired)

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter incremented on ``schedule``/``post`` and
        decremented when an event fires or its handle is cancelled --
        never a queue walk, so periodic probes sampling the backlog stay
        linear in events even when the heap carries many
        lazy-cancellation tombstones.  (``tests/sim/test_engine.py``
        asserts the counter against an explicit walk of both queues.)
        Use :attr:`raw_pending` for the queue sizes including tombstones.
        """
        return self._live

    def _note_cancelled(self) -> None:
        """An :class:`EventHandle` cancelled a live event (O(1) upkeep)."""
        self._live -= 1

    @property
    def raw_pending(self) -> int:
        """Queued entries including cancelled tombstones (the
        pre-telemetry meaning of ``pending``, kept as an escape hatch)."""
        return len(self._heap) + len(self._slot)

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay_ps: int,
        action: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay_ps`` picoseconds from now.

        A ``delay_ps`` of zero is allowed and runs after all events already
        scheduled for the current instant at the same priority.  Negative
        delays are an error.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay_ps, priority, seq, action, 0]
        if delay_ps == 0 and priority == 0:
            self._slot.append(entry)
        else:
            heappush(self._heap, entry)
        self._live += 1
        return EventHandle(entry, self)

    def post(self, action: Callable[[], Any]) -> None:
        """Schedule ``action`` at the current instant without a handle.

        Equivalent to ``schedule(0, action)`` except that no
        :class:`EventHandle` is allocated.  This is the engine's fastest
        path -- the process layer resumes through it -- so use it
        whenever the caller never cancels.
        """
        seq = self._seq
        self._seq = seq + 1
        self._slot.append([self._now, 0, seq, action, 0])
        self._live += 1

    def schedule_call(self, delay_ps: int, action: Callable[[], Any]) -> None:
        """Schedule at priority 0 without allocating an :class:`EventHandle`.

        The handle-free sibling of :meth:`schedule` for fire-and-forget
        events (process delays, link deliveries): ordering is identical,
        only the cancellation handle is skipped.
        """
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay_ps, 0, seq, action, 0]
        if delay_ps == 0:
            self._slot.append(entry)
        else:
            heappush(self._heap, entry)
        self._live += 1

    # ------------------------------------------------------------------- run
    def stop(self) -> None:
        """Request that the current ``run`` call return after this event."""
        self._stopped = True

    def _dispatch(self, until: Optional[int], limit: Optional[int]) -> bool:
        """Fire live events in ``(time, priority, seq)`` order.

        The one dispatch loop behind :meth:`run` and :meth:`step`: each
        pass skips cancelled tombstones at both queue heads, takes the
        smaller key, and fires it -- no per-event method call.  Returns
        when the queues drain, the next event lies after ``until``, an
        event called :meth:`stop`, or ``limit`` events have fired.
        Returns True only in the last case with a further event due.
        """
        heap = self._heap
        slot = self._slot
        popleft = slot.popleft
        profiler = self.profiler
        executed = 0
        while True:
            while slot and slot[0][4]:
                popleft()
            while heap and heap[0][4]:
                heappop(heap)
            if slot:
                entry = slot[0]
                from_heap = heap and heap[0] < entry
                if from_heap:
                    entry = heap[0]
            elif heap:
                entry = heap[0]
                from_heap = True
            else:
                return False
            time = entry[0]
            if until is not None and time > until:
                return False
            if executed == limit:
                return True
            if from_heap:
                heappop(heap)
            else:
                popleft()
            if time < self._now:  # pragma: no cover - queue invariant
                raise SimulationError("event queue produced a past event")
            self._now = time
            self._fired += 1
            entry[4] = 2
            self._live -= 1
            action = entry[3]
            if profiler is None:
                action()
            else:
                start = perf_counter()
                action()
                profiler.record(action, perf_counter() - start)
            executed += 1
            if self._stopped:
                return False

    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False if none."""
        fired = self._fired
        self._dispatch(None, 1)
        return self._fired != fired

    def run(
        self,
        until: Optional[int] = None,
        *,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queues drain, ``until`` is reached, or ``stop()``.

        Parameters
        ----------
        until:
            Absolute timestamp (ps).  Events *at* ``until`` are executed;
            events after it are left queued and the clock is advanced
            to ``until``.
        max_events:
            Safety valve for tests; raises :class:`SimulationError` when
            exceeded (it usually indicates a livelocked model).

        Returns
        -------
        int
            The simulated time at exit.
        """
        self._stopped = False
        if self._dispatch(until, max_events):
            raise SimulationError(
                f"exceeded max_events={max_events} at t={self._now} ps"
            )
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return self._now
