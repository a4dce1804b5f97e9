"""Structural LUT/FF/slice estimates for an ALPU design point.

Flip-flop counting is purely structural:

* each **posted-receive cell** stores match bits (W), mask bits (W), the
  tag (T) and a valid bit: ``2W + T + 1`` FFs;
* each **unexpected cell** stores no mask (it arrives with the request):
  ``W + T + 1`` FFs;
* each **block** registers its own copy of the incoming request -- W bits
  for the posted-receive ALPU, 2W for the unexpected ALPU whose requests
  carry input masks -- plus control and pipeline registers that grow with
  the block size (per-cell shift enables are registered per block):
  ``request_width + CTRL_BASE + CTRL_PER_CELL * block_size``.

LUT counting is structural in form (per-cell compare + tag muxing, an
in-block priority tree whose per-cell share grows with block size, and a
between-block tree proportional to the number of blocks) with constants
fitted once to the twelve published points:

    luts = cells * (LUT_PER_CELL + LUT_CELL_PER_BS * block_size)
         + num_blocks * LUT_PER_BLOCK + LUT_TOP

Slices come from an empirical packing fit over FFs, LUTs and cell count
("a slice consists of two LUTs and two FFs ... but frequently cannot be
used this densely", the paper's footnote 8).

Model error against every published Table IV/V entry: FFs within 1%,
LUTs within 0.2%, slices within 1%.
"""

from __future__ import annotations

import dataclasses

from repro.core import AlpuConfig, CellKind

#: per-block control/pipeline registers: base + per-cell shift enables
CTRL_BASE = 37.0
CTRL_PER_CELL = 1.8

#: fitted LUT constants (see module docstring)
LUT_PER_CELL = 66.455
LUT_CELL_PER_BS = 0.1238
LUT_PER_BLOCK = 2.85
LUT_TOP = -0.83

#: fitted slice-packing constants
SLICE_PER_FF = 0.43349
SLICE_PER_LUT = -0.05093
SLICE_PER_CELL = 15.635
SLICE_BASE = 28.93


def cell_flipflops(kind: CellKind, match_width: int, tag_width: int) -> int:
    """FF count of one cell (Figure 2a vs 2b)."""
    storage = match_width + tag_width + 1
    if kind is CellKind.POSTED_RECEIVE:
        storage += match_width  # the stored mask bits
    return storage


def request_register_width(kind: CellKind, match_width: int) -> int:
    """Width of each block's registered request copy."""
    if kind is CellKind.UNEXPECTED:
        return 2 * match_width  # request carries its input mask
    return match_width


def block_overhead_flipflops(
    kind: CellKind, match_width: int, block_size: int
) -> float:
    """Per-block FFs beyond cell storage (request copy + control)."""
    return (
        request_register_width(kind, match_width)
        + CTRL_BASE
        + CTRL_PER_CELL * block_size
    )


@dataclasses.dataclass(frozen=True)
class ResourceEstimate:
    """Modelled area of one design point."""

    luts: int
    flipflops: int
    slices: int


def estimate_resources(config: AlpuConfig) -> ResourceEstimate:
    """Estimate LUTs/FFs/slices for an ALPU geometry."""
    cells = config.total_cells
    block_size = config.block_size
    num_blocks = config.num_blocks

    flipflops = cells * cell_flipflops(
        config.kind, config.match_width, config.tag_width
    ) + num_blocks * block_overhead_flipflops(
        config.kind, config.match_width, block_size
    )

    luts = (
        cells * (LUT_PER_CELL + LUT_CELL_PER_BS * block_size)
        + num_blocks * LUT_PER_BLOCK
        + LUT_TOP
    )

    slices = (
        SLICE_PER_FF * flipflops
        + SLICE_PER_LUT * luts
        + SLICE_PER_CELL * cells
        + SLICE_BASE
    )

    return ResourceEstimate(
        luts=round(luts), flipflops=round(flipflops), slices=round(slices)
    )
