"""Periodic sampling of the registered state collectors.

Some quantities are states, not events: queue depths, ALPU occupancy,
packets in flight.  Components publish each of them once, as a metrics
collector (see :mod:`repro.obs.metrics`).  A :class:`SamplingProbe`
turns the collectors that :data:`SIGNALS` names into timeseries: on a
fixed simulated-time period it calls every matching collector and feeds
the value into

* the histogram ``<collector>_samples`` (rows that keep one);
* the :class:`~repro.obs.timeline.Timeline` series ``<collector>``;
* a ``counter`` record (component and stage: the collector name split
  at its ``/``), rendered as the Chrome counter track ``<collector>``.

A collector that returns a level (``{"value": ..., "high_water": ...}``)
is sampled at its ``"value"``.

Probe ticks are *pure observers*: the collectors read state, the tick
schedules only its own successor, and no simulated component ever waits
on a probe -- so enabling a probe cannot perturb simulated latencies
(the zero-perturbation guarantee the regression tests pin).

The probe duck-types its ``engine`` (anything with ``schedule(delay_ps,
action)`` and the ``metrics``/``recorder`` handles) to keep :mod:`repro.obs`
dependency-free; tick ``k`` fires at exactly ``k * interval_ps``, so
timeline observations use that product rather than reading an engine
clock.
"""

from __future__ import annotations

import fnmatch
from typing import Iterable, List, Optional

from repro.obs.health import RETRANSMIT_WINDOW_PS
from repro.obs.recorder import KIND_COUNTER
from repro.obs.timeline import Timeline

#: default sampling period: 1 us of simulated time (fine enough to catch
#: per-iteration queue churn in the Section V-A benchmarks)
DEFAULT_INTERVAL_PS = 1_000_000

#: what the probe samples, one row per signal: (collector-name glob,
#: series mode, series window override, keeps a ``_samples`` histogram).
#: A collector samples under the first row it matches.
SIGNALS = (
    ("*.postedRecvQ/depth", "sample", None, True),
    ("*.unexpectedQ/depth", "sample", None, True),
    ("*/occupancy", "sample", None, True),
    ("*.rel/unacked", "sample", None, True),
    ("*.rel/reorder_held", "sample", None, True),
    # storm-width windows: see the watchdog's definition
    ("*.rel/retransmits", "cumulative", RETRANSMIT_WINDOW_PS, False),
    # refusals are bursty like retransmit storms; sharing the window lets
    # the pressure watchdog see per-window refusal rates
    ("*.adm/refused", "cumulative", RETRANSMIT_WINDOW_PS, False),
    ("*.fw/completions", "cumulative", None, False),
    ("*/in_flight", "sample", None, True),
    # per-channel congestion substrate for the fabric watchdogs
    ("*.wire*/utilization", "sample", None, False),
    ("*.wire*/queue", "sample", None, False),
    ("*.wire*/wait", "cumulative", None, False),
    ("engine/events", "cumulative", None, False),
)


class SamplingProbe:
    """Samples the engine registry's :data:`SIGNALS` every ``interval_ps``."""

    def __init__(
        self,
        engine,
        interval_ps: int = DEFAULT_INTERVAL_PS,
        *,
        timeline: Optional[Timeline] = None,
        skip: Iterable[str] = (),
    ) -> None:
        """``skip`` names components whose collectors stay unsampled."""
        if interval_ps <= 0:
            raise ValueError(f"probe interval must be positive: {interval_ps}")
        self.engine = engine
        self.interval_ps = interval_ps
        self.timeline = timeline
        self.skip = frozenset(skip)
        self.ticks = 0
        #: (component, stage, collector, histogram or None, series or None)
        self._samplers: List[tuple] = []
        self._started = False

    def start(self) -> None:
        """Bind the matching collectors and schedule the first tick.

        Idempotent; schedules nothing when no collector matches (a
        disabled registry has none).
        """
        if self._started:
            return
        self._started = True
        registry = self.engine.metrics
        if not registry.enabled:
            return
        for name, fn in registry.collectors():
            if name.partition("/")[0] in self.skip:
                continue
            for pattern, *row in SIGNALS:
                if fnmatch.fnmatchcase(name, pattern):
                    self._bind(registry, name, fn, *row)
                    break
        if self._samplers:
            self.engine.schedule(self.interval_ps, self._tick)

    def _bind(self, registry, name, fn, mode, window_ps, keeps_histogram):
        histogram = registry.histogram(f"{name}_samples") if keeps_histogram else None
        series = None
        if self.timeline is not None:
            series = self.timeline.series(name, mode=mode, window_ps=window_ps)
        component, _, stage = name.partition("/")
        self._samplers.append((component, stage, fn, histogram, series))

    def _tick(self) -> None:
        self.ticks += 1
        now_ps = self.ticks * self.interval_ps
        recorder = self.engine.recorder
        for component, stage, fn, histogram, series in self._samplers:
            value = fn()
            if type(value) is dict:
                value = value["value"]
            if histogram is not None:
                histogram.record(value)
            if series is not None:
                series.observe(now_ps, value)
            if recorder.enabled:
                recorder.record(
                    component, stage, detail={"value": value}, kind=KIND_COUNTER
                )
        self.engine.schedule(self.interval_ps, self._tick)
