"""Generator-based cooperative processes.

Firmware loops and host programs are naturally sequential-with-waits, so we
model them as Python generators driven by the event engine (the same style
SimPy uses).  This is how the paper's software is expressed: the NIC
firmware loop of Fig. 2 and the host-side MPI library are Python
generators whose ``yield``\\ s charge simulated time against the cost
models in :mod:`repro.proc.costmodel`.  A process body yields *commands*:

``yield delay(ps)``
    Advance simulated time by ``ps`` picoseconds (the process is computing).

``yield wait_on(signal)``
    Block until the signal pulses (or immediately if its level is set).
    Yields the value ``True``.

``yield wait_on(signal, timeout_ps=t)``
    As above but resume after ``t`` ps even without a pulse.  The yield
    evaluates to ``True`` on pulse, ``False`` on timeout.

``yield now()``
    Evaluates to the current simulated time without advancing it.

A process may ``return value``; other processes retrieve it through
:attr:`Process.result` after waiting on :attr:`Process.done`.

Hot-path notes
--------------
Process resumption dominates the simulator's wall-clock profile (every
simulated "compute for N cycles" is one trip through :meth:`Process._step`),
so the trampoline is deliberately lean:

* ``delay(ps)`` returns a bare non-negative ``int`` -- the dispatch test is
  a single ``type(command) is int`` check (``bool`` deliberately fails it),
  with no command object allocated per yield.
* ``now()`` returns a shared singleton, and the reply is delivered by
  looping back into ``body.send`` rather than recursing.
* Each process caches its two resume callables (``send(None)`` and
  ``send(True)``) so scheduling a wakeup does not build a new closure per
  event, and zero-delay wakeups go through :meth:`Engine.post`, which
  skips handle allocation.

Semantics are unchanged: wakeups always travel through the event queue
(never run inline), so ordering against same-instant peers is exactly the
(time, priority, seq) rule documented in :mod:`repro.sim.engine`.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.sim.engine import Engine, SimulationError
from repro.sim.event import EventHandle
from repro.sim.signal import Signal


# --------------------------------------------------------------------------
# Yieldable commands
# --------------------------------------------------------------------------
class _WaitOn:
    """Command record for ``wait_on``; plain slotted class (hot path)."""

    __slots__ = ("signal", "timeout_ps")

    def __init__(self, signal: Signal, timeout_ps: Optional[int] = None) -> None:
        self.signal = signal
        self.timeout_ps = timeout_ps


class _Now:
    """Marker type for the ``now()`` command (a shared singleton)."""

    __slots__ = ()


_NOW = _Now()


def delay(ps: int) -> int:
    """Command: advance this process's local time by ``ps`` picoseconds.

    Returns the picosecond count itself: the process trampoline treats a
    yielded ``int`` as a delay, so no wrapper object is allocated.
    """
    if ps < 0:
        raise ValueError(f"negative delay: {ps}")
    return int(ps)


def wait_on(signal: Signal, timeout_ps: Optional[int] = None) -> _WaitOn:
    """Command: block on ``signal`` (optionally with a timeout)."""
    return _WaitOn(signal, timeout_ps)


def now() -> _Now:
    """Command: evaluate to the current simulated time."""
    return _NOW


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    CREATED = "created"
    RUNNING = "running"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"


_CREATED = ProcessState.CREATED
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING
_FINISHED = ProcessState.FINISHED
_FAILED = ProcessState.FAILED


class Process:
    """A simulated thread of control.

    Parameters
    ----------
    engine:
        The engine that drives this process.
    body:
        A generator following the command protocol above.
    name:
        Diagnostic name.
    start:
        When True (default), the first step is scheduled immediately (at
        zero delay from creation time).
    """

    __slots__ = (
        "engine",
        "name",
        "_body",
        "state",
        "result",
        "error",
        "done",
        "_wait_event",
        "_wait_signal",
        "_resume_none",
        "_resume_true",
        "_on_pulse_ref",
        "_on_timeout_ref",
    )

    def __init__(
        self,
        engine: Engine,
        body: Generator[Any, Any, Any],
        name: str = "proc",
        *,
        start: bool = True,
    ) -> None:
        self.engine = engine
        self.name = name
        self._body = body
        self.state = _CREATED
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: pulsed exactly once, when the process finishes or fails
        self.done = Signal(f"{name}.done")
        self._wait_event: Optional[EventHandle] = None
        self._wait_signal: Optional[Signal] = None
        # cached bound methods: one resume pair per process, not one
        # allocation per event (and the profiler attributes resumes to
        # Process._resume/_resume_ok instead of the scheduling site);
        # likewise one pulse/timeout callback pair instead of a fresh
        # closure pair per wait
        self._resume_none = self._resume
        self._resume_true = self._resume_ok
        self._on_pulse_ref = self._on_pulse
        self._on_timeout_ref = self._on_timeout
        if start:
            engine.post(self._resume_none)

    # ---------------------------------------------------------------- public
    @property
    def finished(self) -> bool:
        """Has the process reached a terminal state?"""
        return self.state is _FINISHED or self.state is _FAILED

    def start(self) -> None:
        """Start a process created with ``start=False``."""
        if self.state is not _CREATED:
            raise SimulationError(f"process {self.name} already started")
        self.engine.post(self._resume_none)

    # --------------------------------------------------------------- driving
    def _resume(self) -> None:
        """Scheduled resume after a delay (or at process start)."""
        self._step(None)

    def _resume_ok(self) -> None:
        """Scheduled resume after a signal wait that was satisfied."""
        self._step(True)

    def _step(self, send_value: Any) -> None:
        state = self.state
        if state is _FINISHED or state is _FAILED:
            return
        engine = self.engine
        body_send = self._body.send
        # Loop instead of recursing so zero-cost commands (``now()``) do
        # not stack a Python frame per reply.
        while True:
            self.state = _RUNNING
            try:
                command = body_send(send_value)
            except StopIteration as stop:
                self.state = _FINISHED
                self.result = stop.value
                self.done.set()
                return
            except BaseException as exc:  # noqa: BLE001 - recorded & re-raised on join
                self.state = _FAILED
                self.error = exc
                self.done.set()
                raise
            if type(command) is int:
                self.state = _WAITING
                if command:
                    engine.schedule_call(command, self._resume_none)
                else:
                    engine.post(self._resume_none)
                return
            if command is _NOW:
                send_value = engine._now
                continue
            if type(command) is _WaitOn:
                self._wait(command)
                return
            if isinstance(command, Process):
                # Waiting on another process == waiting on its done signal.
                self._wait(_WaitOn(command.done))
                return
            raise SimulationError(
                f"process {self.name} yielded unknown command {command!r}"
            )

    def _wait(self, command: _WaitOn) -> None:
        self.state = _WAITING
        signal = command.signal
        engine = self.engine
        if signal.level:
            engine.post(self._resume_true)
            return
        # One-shot safety without a per-wait ``resumed`` flag: a pulse
        # consumes the waiter (so it cannot fire again) and cancels the
        # timeout event; a timeout removes the waiter before resuming.
        # Exactly one of the two callbacks can ever run per wait.
        signal.add_waiter(self._on_pulse_ref)
        if command.timeout_ps is not None:
            self._wait_signal = signal
            self._wait_event = engine.schedule(
                command.timeout_ps, self._on_timeout_ref
            )

    def _on_pulse(self) -> None:
        event = self._wait_event
        if event is not None:
            event.cancel()
            self._wait_event = None
        # Resume on a fresh event so wakeups never nest inside pulse().
        self.engine.post(self._resume_true)

    def _on_timeout(self) -> None:
        self._wait_event = None
        self._wait_signal.remove_waiter(self._on_pulse_ref)
        self._step(False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {self.state.value}>"
