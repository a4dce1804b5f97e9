"""Plain-text table formatting for benchmark output.

The paper tests and example scripts print paper-style rows; these
helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_rows(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    min_width: int = 8,
) -> str:
    """Fixed-width table with a header rule."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [max(min_width, len(h)) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def format_curve(
    label: str,
    lengths: Sequence[float],
    latencies_ns: Sequence[float],
) -> str:
    """One labelled (length -> latency) series, paper-figure style."""
    pairs = "  ".join(
        f"{int(x)}:{y:,.0f}" for x, y in zip(lengths, latencies_ns)
    )
    return f"{label:>10}  {pairs}"
