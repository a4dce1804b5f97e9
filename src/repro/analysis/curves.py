"""Curve analysis: slopes, knees, crossovers.

All functions take parallel sequences ``lengths`` (queue lengths) and
``latencies_ns`` and are deliberately simple -- least-squares lines and
piecewise scans, not smoothing, so a test failure points at the data.
:func:`latency_series` cuts those sequences out of a sweep's rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence


def latency_series(rows: Iterable, by: Optional[str] = None) -> Dict:
    """Fold sweep rows into per-preset latency series, in grid order.

    Without ``by``: ``{preset: [latency_ns, ...]}``.  With ``by`` naming
    the sweep's last axis: ``{preset: {value: [latency_ns, ...]}}``, one
    series per value of that axis.
    """
    series: Dict = {}
    for row in rows:
        if by is None:
            series.setdefault(row.preset, []).append(row.latency_ns)
        else:
            per_value = series.setdefault(row.preset, {})
            per_value.setdefault(row.params[by], []).append(row.latency_ns)
    return series


def _check(lengths: Sequence[float], latencies_ns: Sequence[float]) -> None:
    if len(lengths) != len(latencies_ns):
        raise ValueError("lengths and latencies differ in size")
    if len(lengths) < 2:
        raise ValueError("need at least two points")


def per_entry_slope_ns(
    lengths: Sequence[float],
    latencies_ns: Sequence[float],
    *,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """Least-squares latency slope (ns per queue entry) over [lo, hi]."""
    _check(lengths, latencies_ns)
    points = [
        (x, y)
        for x, y in zip(lengths, latencies_ns)
        if (lo is None or x >= lo) and (hi is None or x <= hi)
    ]
    if len(points) < 2:
        raise ValueError(f"fewer than two points in window [{lo}, {hi}]")
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denominator = n * sxx - sx * sx
    if denominator == 0:
        raise ValueError("degenerate x values")
    return (n * sxy - sx * sy) / denominator


def fixed_overhead_ns(
    lengths: Sequence[float], latencies_ns: Sequence[float]
) -> float:
    """Latency extrapolated to queue length 0 (the curve's intercept).

    Uses the first two points, which the sweeps place in the warm region.
    """
    _check(lengths, latencies_ns)
    (x0, y0), (x1, y1) = (lengths[0], latencies_ns[0]), (lengths[1], latencies_ns[1])
    if x1 == x0:
        raise ValueError("first two lengths are equal")
    slope = (y1 - y0) / (x1 - x0)
    return y0 - slope * x0


def detect_knee(
    lengths: Sequence[float],
    latencies_ns: Sequence[float],
    *,
    factor: float = 3.0,
) -> Optional[float]:
    """First length where the local per-entry cost jumps by ``factor``.

    The cache cliff shows up as a segment whose slope is several times
    the preceding segment's.  Returns the left edge of the jump segment,
    or None if the curve never jumps.
    """
    _check(lengths, latencies_ns)
    previous_slope: Optional[float] = None
    for i in range(1, len(lengths)):
        dx = lengths[i] - lengths[i - 1]
        if dx <= 0:
            raise ValueError("lengths must be strictly increasing")
        slope = (latencies_ns[i] - latencies_ns[i - 1]) / dx
        if (
            previous_slope is not None
            and previous_slope > 0
            and slope >= factor * previous_slope
        ):
            return lengths[i - 1]
        # only update the reference once the curve has begun to grow;
        # flat ALPU regions would otherwise make any growth look like a
        # knee
        if slope > 0.5:
            previous_slope = slope
    return None


def crossover_length(
    lengths_a: Sequence[float],
    latencies_a: Sequence[float],
    lengths_b: Sequence[float],
    latencies_b: Sequence[float],
) -> Optional[float]:
    """Where curve A first becomes more expensive than curve B.

    Both curves must be sampled at the same lengths.  Interpolates
    linearly inside the straddling segment.  Returns None if A never
    exceeds B.
    """
    if list(lengths_a) != list(lengths_b):
        raise ValueError("curves must share their sample points")
    _check(lengths_a, latencies_a)
    _check(lengths_b, latencies_b)
    difference = [a - b for a, b in zip(latencies_a, latencies_b)]
    for i, d in enumerate(difference):
        if d > 0:
            if i == 0:
                return float(lengths_a[0])
            x0, x1 = lengths_a[i - 1], lengths_a[i]
            d0, d1 = difference[i - 1], difference[i]
            return float(x0 + (x1 - x0) * (-d0) / (d1 - d0))
    return None
