"""Simulation components.

A :class:`Component` is a named object bound to an engine.  A
:class:`ClockedComponent` additionally has a clock period that turns its
own cycle counts into picoseconds -- this is how the 500 MHz NIC
processor, the ALPU and the 2 GHz host CPU coexist in one event queue.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Engine
from repro.sim.event import EventHandle
from repro.sim.units import cycles_to_ps


class Component:
    """Base class for everything that lives in a simulation."""

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name

    @property
    def now(self) -> int:
        """Current simulated time (ps)."""
        return self.engine.now

    def schedule(
        self, delay_ps: int, action: Callable[[], Any], *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``action`` relative to now (see Engine.schedule)."""
        return self.engine.schedule(delay_ps, action, priority=priority)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class ClockedComponent(Component):
    """A component with its own clock domain.

    Parameters
    ----------
    clock_hz:
        Clock frequency.  The period is rounded to an integer picosecond
        count (exact for 2 GHz and 500 MHz).
    """

    def __init__(self, engine: Engine, name: str, clock_hz: float) -> None:
        super().__init__(engine, name)
        self.clock_hz = clock_hz
        self.period_ps = cycles_to_ps(1, clock_hz)
        if self.period_ps <= 0:
            raise ValueError(f"clock {clock_hz} Hz yields non-positive period")

    def cycles(self, n: int) -> int:
        """Duration of ``n`` cycles of this component's clock, in ps."""
        return n * self.period_ps
