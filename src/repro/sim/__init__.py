"""Component-based discrete-event simulation framework.

This subpackage is the reproduction's substitute for Enkidu, the
component-based discrete event simulation framework the paper's evaluation
is built on (Rodrigues, TR04-14, 2004).  It provides:

* :class:`~repro.sim.engine.Engine` -- the event queue and simulated clock
  (picosecond-resolution integer timestamps).
* :class:`~repro.sim.component.Component` /
  :class:`~repro.sim.component.ClockedComponent` -- the building blocks a
  simulated system is assembled from.
* :class:`~repro.sim.link.Link` -- a fixed-latency, point-to-point message
  channel between components (the paper's 20 ns NIC local bus and 200 ns
  network wire are both Links).
* :class:`~repro.sim.fifo.Fifo` -- a bounded FIFO with back-pressure,
  matching the decoupling FIFOs around the ALPU.
* :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes for modelling firmware and host programs that both *compute*
  (charge simulated time) and *wait* (block on signals).

Time is kept as an integer count of picoseconds so that cycle arithmetic at
2 GHz (500 ps) and 500 MHz (2000 ps) is exact.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "engine": ("Engine", "SimulationError"),
        "event": ("EventHandle",),
        "component": ("Component", "ClockedComponent"),
        "link": ("Link",),
        "fifo": ("Fifo", "FifoFullError", "FifoEmptyError"),
        "process": ("Process", "ProcessState", "delay", "wait_on", "now"),
        "signal": ("Signal",),
        "units": ("PS_PER_NS", "PS_PER_US", "ns", "us", "cycles_to_ps", "ps_to_ns"),
    },
)
