"""Render and compare Tables IV and V.

Holds the published numbers verbatim, generates the model's version of
each table, and formats both for the benchmark harness.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core import AlpuConfig, CellKind
from repro.core.pipeline import match_latency_cycles
from repro.fpga.resources import estimate_resources
from repro.fpga.timing import clock_mhz


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One row of Table IV or V."""

    total_cells: int
    block_size: int
    luts: int
    flipflops: int
    slices: int
    speed_mhz: float
    latency_cycles: int


#: Table IV: sizes and speeds of the Posted Receives ALPU prototypes
TABLE_IV_PUBLISHED: List[DesignPoint] = [
    DesignPoint(256, 8, 17372, 28908, 15766, 112.5, 7),
    DesignPoint(256, 16, 17573, 27656, 15090, 111.4, 7),
    DesignPoint(256, 32, 18054, 26971, 14742, 100.2, 6),
    DesignPoint(128, 8, 8687, 14562, 7945, 111.5, 7),
    DesignPoint(128, 16, 8786, 13897, 7606, 112.1, 6),
    DesignPoint(128, 32, 9025, 13605, 7431, 100.6, 6),
]

#: Table V: sizes and speeds of the Unexpected Messages ALPU prototypes
TABLE_V_PUBLISHED: List[DesignPoint] = [
    DesignPoint(256, 8, 17339, 19414, 11562, 112.1, 7),
    DesignPoint(256, 16, 17556, 17490, 10631, 111.9, 7),
    DesignPoint(256, 32, 18045, 16469, 10350, 100.9, 6),
    DesignPoint(128, 8, 8672, 9773, 5806, 111.2, 7),
    DesignPoint(128, 16, 8777, 8771, 5356, 112.1, 6),
    DesignPoint(128, 32, 9020, 8311, 5215, 100.6, 6),
]


def model_table(kind: CellKind) -> List[DesignPoint]:
    """Generate the model's version of Table IV (posted) or V (unexpected)."""
    rows: List[DesignPoint] = []
    for total_cells in (256, 128):
        for block_size in (8, 16, 32):
            config = AlpuConfig(
                kind=kind, total_cells=total_cells, block_size=block_size
            )
            estimate = estimate_resources(config)
            rows.append(
                DesignPoint(
                    total_cells=total_cells,
                    block_size=block_size,
                    luts=estimate.luts,
                    flipflops=estimate.flipflops,
                    slices=estimate.slices,
                    speed_mhz=round(clock_mhz(block_size), 1),
                    latency_cycles=match_latency_cycles(total_cells, block_size),
                )
            )
    return rows


def render_table(
    title: str, model: List[DesignPoint], published: List[DesignPoint]
) -> str:
    """Side-by-side text rendering (model vs published) of one table."""
    lines = [
        title,
        f"{'Cells':>5} {'Block':>5} | "
        f"{'LUTs':>7} {'FFs':>7} {'Slices':>7} {'MHz':>6} {'Lat':>3} | "
        f"{'LUTs*':>7} {'FFs*':>7} {'Slices*':>7} {'MHz*':>6} {'Lat*':>4}"
        "   (* = published)",
    ]
    for m, p in zip(model, published):
        assert (m.total_cells, m.block_size) == (p.total_cells, p.block_size)
        lines.append(
            f"{m.total_cells:>5} {m.block_size:>5} | "
            f"{m.luts:>7,} {m.flipflops:>7,} {m.slices:>7,} "
            f"{m.speed_mhz:>6.1f} {m.latency_cycles:>3} | "
            f"{p.luts:>7,} {p.flipflops:>7,} {p.slices:>7,} "
            f"{p.speed_mhz:>6.1f} {p.latency_cycles:>4}"
        )
    return "\n".join(lines)
