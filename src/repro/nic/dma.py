"""Tx/Rx DMA engines.

The NIC of Figure 1 has send and receive DMA capabilities coupled to the
network FIFOs.  A transfer costs a fixed engine setup plus size/bandwidth,
and transfers on one engine serialize.  The firmware charges its *own*
descriptor-programming cycles separately (see
:class:`repro.proc.costmodel.NicCostModel`); this class models only the
engine.

Completion is exposed as a :class:`~repro.sim.signal.Signal` pulse plus a
completed-transfer queue the firmware drains -- the usual
doorbell/completion-ring split.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Deque

from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.signal import Signal
from repro.sim.units import ns


@dataclasses.dataclass(frozen=True)
class DmaConfig:
    """Engine timing: setup + per-byte streaming."""

    setup_ps: int = ns(50)
    #: 0.004 bytes/ps = 4 GB/s (local bus side, faster than the wire)
    bandwidth_bytes_per_ps: float = 0.004


class DmaEngine(Component):
    """One DMA channel; transfers serialize in issue order."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        config: Optional[DmaConfig] = None,
    ) -> None:
        super().__init__(engine, name)
        self.config = config if config is not None else DmaConfig()
        self._busy_until = 0
        #: pulses on every completed transfer
        self.done = Signal(f"{name}.done")
        #: cookies of completed transfers, in completion order
        self.completed: Deque[Any] = deque()
        self.transfers = 0
        self.bytes_moved = 0

    @property
    def busy(self) -> bool:
        """Is a transfer in flight right now?"""
        return self.now < self._busy_until

    def transfer_time_ps(self, size_bytes: int) -> int:
        """Engine occupancy for one transfer: setup + streaming."""
        return self.config.setup_ps + round(
            size_bytes / self.config.bandwidth_bytes_per_ps
        )

    def start(self, size_bytes: int, cookie: Any) -> int:
        """Queue a transfer; returns its completion timestamp (ps).

        ``cookie`` is handed back through :attr:`completed` so the
        firmware can associate the completion with its request.
        """
        if size_bytes < 0:
            raise ValueError(f"negative DMA size {size_bytes}")
        now = self.now
        begin = max(now, self._busy_until)
        finish = begin + self.transfer_time_ps(size_bytes)
        self._busy_until = finish
        self.transfers += 1
        self.bytes_moved += size_bytes

        def complete() -> None:
            self.completed.append(cookie)
            self.done.pulse()

        self.engine.schedule_call(finish - now, complete)
        return finish
