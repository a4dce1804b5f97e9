"""The metrics registry: snapshot-time collectors and log-scale histograms.

Components publish into a shared :class:`MetricsRegistry` handle
(``engine.metrics``); the registry owns the namespace and produces a
JSON-serializable :meth:`~MetricsRegistry.snapshot` at the end of a run.
Metric names use ``/`` to separate the owning component from the
quantity (``nic1.alpu.posted/match_successes``).

Counts and levels are *collectors*: callables over a tally the component
keeps anyway (``AlpuStats``, the firmware's header counts, a queue's
length and high-water mark), sampled only at snapshot time.  A
component registers them only when ``registry.enabled``, so a hot path
records each fact exactly once, in a plain attribute, and the metrics
channel never touches it.  Only distributions are pushed: a
:class:`Histogram` records one sample per call.

Telemetry is **off by default**: every engine starts with the module
singleton :data:`NULL_REGISTRY`, which registers nothing and hands out
one shared no-op histogram whose ``record`` is an empty method
(``tests/obs/test_metrics.py`` pins its bytecode).

This module is dependency-free (it must be importable from every layer,
including :mod:`repro.core`, without creating cycles).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Tuple, Union

Number = Union[int, float]


class Histogram:
    """A log-scale (power-of-two bucket) histogram of non-negative values.

    Bucket ``b`` holds values in ``[2**(b-1), 2**b)`` for ``b >= 1`` and
    the single value 0 for ``b == 0`` -- i.e. the bucket index of an
    integer is its bit length.  Log-scale buckets keep queue-depth and
    traversal-length distributions compact over orders of magnitude.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.buckets: Dict[int, int] = {}

    def record(self, value: Number) -> None:
        """Record one sample (must be >= 0)."""
        if value < 0:
            raise ValueError(f"{self.name}: histogram values must be >= 0")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length() if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class _NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    total = 0
    min = None
    max = None
    mean = 0.0

    def record(self, value: Number) -> None:
        pass


NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Shared namespace of histograms plus snapshot-time collectors."""

    enabled = True

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], object]] = {}

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def register_collector(self, name: str, fn: Callable[[], object]) -> None:
        """Register a pull-style metric sampled at snapshot time.

        ``fn`` returns a number, or a small dict such as a level's
        ``{"value": ..., "high_water": ...}``.  Re-registering a name
        replaces the previous collector.
        """
        self._collectors[name] = fn

    def register_tallies(self, prefix: str, owner, *names: str) -> None:
        """A collector ``prefix/<name>`` over ``owner.<name>`` per name."""
        for name in names:
            self.register_collector(
                f"{prefix}/{name}", functools.partial(getattr, owner, name)
            )

    def collectors(self) -> List[Tuple[str, Callable[[], object]]]:
        """``(name, fn)`` per registered collector, in registration order."""
        return list(self._collectors.items())

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, object]:
        """All metrics as a name-sorted, JSON-serializable dict.

        Histograms become small dicts; collector values are sampled now.
        """
        out: Dict[str, object] = {
            name: {
                "count": hist.count,
                "sum": hist.total,
                "min": hist.min,
                "max": hist.max,
                "mean": hist.mean,
                "buckets": {str(b): n for b, n in sorted(hist.buckets.items())},
            }
            for name, hist in self._histograms.items()
        }
        for name, fn in self._collectors.items():
            value = fn()
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            out[name] = value
        return dict(sorted(out.items()))

    def names(self) -> List[str]:
        """Registered histogram and collector names, sorted."""
        return sorted(set(self._histograms) | set(self._collectors))


class NullRegistry:
    """The disabled registry: hands out the shared no-op histogram.

    Never allocates per call site, never retains state; ``snapshot()`` is
    always empty.  It takes no collectors: components register them only
    when ``enabled``.  This is the default on every :class:`Engine`.
    """

    enabled = False

    def histogram(self, name: str) -> _NullHistogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, object]:
        return {}

    def names(self) -> List[str]:
        return []


NULL_REGISTRY = NullRegistry()
