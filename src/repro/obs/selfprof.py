"""Wall-clock self-profiling of the simulator itself.

ROADMAP asks every PR to make the hot paths measurably faster or
provably unchanged; that needs numbers about the *simulator's* own
speed, which the simulated-time telemetry deliberately never touches.  A
:class:`SimProfiler` hooks the engine's event dispatch: each executed
event's handler is timed with ``time.perf_counter`` and attributed to
the function that scheduled it (``Link.send``, ``DmaEngine.start``,
``Process._step``...), yielding events/sec and a per-component handler
breakdown.

The profiler measures **host** time only -- it reads no simulated state
and schedules nothing, so simulated results are bit-identical with it on
or off (the overhead is real wall-clock time, which is exactly what it
is measuring).  It is opt-in: the engine's hook is ``None`` by default
and the dispatch loop takes the untimed branch.

The pinned grid (``tests/workloads/pinned_grid.json``) commits each
point's events/sec with a tolerance band; its ``wallclock`` test (run
in CI with ``pytest -m wallclock``) makes wall-clock regressions of the
simulator visible there.
"""

from __future__ import annotations

from typing import Callable, Dict


def handler_label(action: Callable) -> str:
    """A stable component-level label for an event's action callable.

    Actions are typically bound methods or closures; the qualified name
    up to any ``<locals>`` segment names the scheduling site --
    ``Link.send.<locals>.<lambda>`` attributes to ``Link.send``.
    ``functools.partial`` wrappers unwrap to the function they carry,
    and callable objects without a ``__qualname__`` (instances defining
    ``__call__``) attribute to their type's qualified name.
    """
    while (wrapped := getattr(action, "func", None)) is not None and callable(
        wrapped
    ):
        action = wrapped  # functools.partial (possibly nested)
    qualname = getattr(action, "__qualname__", None)
    if qualname is None:
        qualname = getattr(type(action), "__qualname__", type(action).__name__)
    return qualname.split(".<locals>")[0]


class SimProfiler:
    """Per-handler wall-clock accounting over one engine's event loop."""

    enabled = True

    def __init__(self) -> None:
        self.events = 0
        self.handler_seconds = 0.0
        #: label -> [events, seconds]
        self.handlers: Dict[str, list] = {}

    def record(self, action: Callable, elapsed_s: float) -> None:
        """One executed event (the engine calls this from ``step``)."""
        self.events += 1
        self.handler_seconds += elapsed_s
        bucket = self.handlers.setdefault(handler_label(action), [0, 0.0])
        bucket[0] += 1
        bucket[1] += elapsed_s

    @property
    def events_per_sec(self) -> float:
        """Executed events per second of handler time."""
        if self.handler_seconds <= 0.0:
            return 0.0
        return self.events / self.handler_seconds

    def snapshot(self, top: int = 10) -> Dict[str, object]:
        """A JSON-serializable summary (top handlers by time)."""
        ranked = sorted(
            self.handlers.items(), key=lambda item: item[1][1], reverse=True
        )
        return {
            "events": self.events,
            "handler_seconds": round(self.handler_seconds, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "top_handlers": {
                label: {"events": count, "seconds": round(seconds, 6)}
                for label, (count, seconds) in ranked[:top]
            },
        }

