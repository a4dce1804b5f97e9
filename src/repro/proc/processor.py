"""A processor = clock domain + cost model + memory system.

:class:`Processor` is the execution substrate that firmware/host code
charges time against.  It does not fetch instructions; the Python code
*is* the program, and it calls :meth:`compute` / :meth:`touch` to account
for the cycles and memory stalls that the real instruction stream would
have cost.  Charges are accumulated and drawn down inside simulation
processes with ``yield delay(...)``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.system import MemorySystem
from repro.sim.component import ClockedComponent
from repro.sim.engine import Engine


class Processor(ClockedComponent):
    """Cycle/stall accounting for one processor."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        clock_hz: float,
        memory: Optional[MemorySystem] = None,
    ) -> None:
        super().__init__(engine, name, clock_hz)
        self.memory = memory
        self.busy_ps = 0
        self.stall_ps = 0
        registry = engine.metrics
        if registry.enabled:
            registry.register_tallies(name, self, "busy_ps", "stall_ps")
            if memory is not None:
                memory.register_collectors(registry, prefix=f"{name}.mem")

    # ------------------------------------------------------------- charging
    def compute(self, cycles: int) -> int:
        """Charge pure compute time; returns ps to be consumed via delay."""
        cost = self.cycles(cycles)
        self.busy_ps += cost
        return cost

    def touch(self, addr: int, size: int = 8, *, write: bool = False) -> int:
        """Charge a memory reference; returns the stall ps (0 on L1 hit)."""
        if self.memory is None:
            return 0
        stall = self.memory.access(addr, size, write=write)
        self.stall_ps += stall
        return stall

    def read_lines(self, addrs: List[int]) -> int:
        """Charge whole-line reads in order (a list walk); returns the stall ps.

        Same charge as one :meth:`touch` of a line per address, in one call.
        """
        if self.memory is None:
            return 0
        stall = self.memory.read_lines(addrs)
        self.stall_ps += stall
        return stall
