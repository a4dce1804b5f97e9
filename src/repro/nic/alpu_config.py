"""The ALPU stack's configuration and error types, without the stack.

A :class:`~repro.nic.nic.NicConfig` names a driver configuration and a
device fault model for every NIC, and the firmware catches a stalled
device's error on every NIC, but only a NIC whose backend
``needs_alpu`` builds an ALPU.  These types live here, apart from the
implementation (:mod:`repro.core.alpu`, :mod:`repro.nic.alpu_device`,
:mod:`repro.nic.driver`), so that a baseline NIC can name them without
importing it.  Their historical homes re-export them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.sim.engine import SimulationError
from repro.sim.units import us


class AlpuStallError(SimulationError):
    """The ALPU result FIFO stayed empty past the driver's stall budget.

    Raised instead of silently re-arming the poll timeout forever; the
    firmware catches it to degrade onto a software backend.
    """


@dataclasses.dataclass(frozen=True)
class DriverConfig:
    """Tunables for the list-management heuristics."""

    #: engage the ALPU only when the queue has at least this many entries
    use_threshold: int = 1
    #: cap on entries moved per insert batch (None = as many as fit)
    max_batch: Optional[int] = None
    #: how long one blocking result read waits before its timeout expires
    result_timeout_ps: int = us(100)
    #: consecutive timeout expiries tolerated on one blocking read before
    #: the device is declared stalled (:class:`AlpuStallError`)
    stall_budget: int = 50


@dataclasses.dataclass(frozen=True)
class AlpuFaultConfig:
    """Injectable device failure for recovery testing.

    ``mode="stall"`` freezes the device pipeline at ``at_ps``: headers and
    commands keep accumulating in the FIFOs but the result FIFO stops
    producing -- the stuck-device scenario the driver's stall budget and
    the firmware's backend degradation are built to survive.  The default
    ``mode="none"`` schedules nothing and changes nothing.
    """

    mode: str = "none"
    #: simulated time at which the fault trips
    at_ps: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("none", "stall"):
            raise ValueError(f"unknown ALPU fault mode {self.mode!r}")
        if self.at_ps < 0:
            raise ValueError(f"at_ps must be >= 0, got {self.at_ps}")
