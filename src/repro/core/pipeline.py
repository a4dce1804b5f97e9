"""Pipeline timing of the ALPU (Section V-D).

The FPGA prototype is pipelined into six stages:

1. fan out global signals to the blocks (each block registers its copy);
2. per-cell match / no-match;
3. in-block priority muxing;
4. between-block priority muxing (one *or two* cycles, depending on the
   number of blocks);
5. fan out the delete signals;
6. delete the matched cell.

The pipelining does not allow execution overlap, so the unit accepts a new
match every 6 or 7 clock cycles; inserts can happen every other cycle.
The simulation results in the paper assume a 7-cycle match latency with no
overlap, at a 500 MHz ASIC clock (the 5x-from-FPGA estimate, equal to the
Red Storm NIC core clock); those are the defaults here.

Stage 4 costs two cycles when the between-block tree is deep.  The
published latency column of Tables IV and V is reproduced exactly by
"two cycles when there are more than 8 blocks":

    (cells, block) : blocks : latency  --  256/8:32:7, 256/16:16:7,
    256/32:8:6, 128/8:16:7, 128/16:8:6, 128/32:4:6.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.sim.units import cycles_to_ps

if TYPE_CHECKING:
    from repro.core.alpu import AlpuConfig


def match_latency_cycles(total_cells: int, block_size: int) -> int:
    """Pipeline depth in cycles for a given geometry (Tables IV/V rule)."""
    if total_cells <= 0 or block_size <= 0 or total_cells % block_size:
        raise ValueError(
            f"invalid geometry: {total_cells} cells / block {block_size}"
        )
    num_blocks = total_cells // block_size
    between_block_stage = 2 if num_blocks > 8 else 1
    return 5 + between_block_stage


@dataclasses.dataclass(frozen=True)
class AlpuTimingModel:
    """Transaction durations for an ALPU geometry at a given clock.

    ``conservative_match_cycles`` pins the match latency at 7 cycles
    regardless of geometry, matching the paper's simulation assumption
    ("The simulation results assume a 7 cycle pipelining latency with no
    overlap of execution").
    """

    clock_hz: float = 500e6
    insert_interval_cycles: int = 2
    command_cycles: int = 1
    conservative_match_cycles: bool = True

    def cycle_ps(self) -> int:
        """One ALPU clock period in picoseconds."""
        return cycles_to_ps(1, self.clock_hz)

    def match_cycles(self, config: AlpuConfig) -> int:
        """Pipeline depth for one match under this model."""
        if self.conservative_match_cycles:
            return 7
        return match_latency_cycles(config.total_cells, config.block_size)

    def match_ps(self, config: AlpuConfig) -> int:
        """Time from header acceptance to result availability.

        With no execution overlap this is also the minimum spacing between
        consecutive matches.
        """
        return self.match_cycles(config) * self.cycle_ps()

    def insert_ps(self) -> int:
        """Minimum spacing between consecutive inserts."""
        return self.insert_interval_cycles * self.cycle_ps()

    def command_ps(self) -> int:
        """Processing time for START/STOP INSERT and RESET commands."""
        return self.command_cycles * self.cycle_ps()
