"""The per-run telemetry bundle.

One :class:`Telemetry` object packages a fresh metrics registry, a fresh
instrumentation stream (:mod:`repro.obs.recorder`: component spans,
instants and counters plus the per-message lifecycles built from them)
and the probe period, ready to hand to a world or a workload:

    telemetry = Telemetry()
    run_pingpong(NicConfig.with_alpu(256, 16), PingPongParams(), telemetry=telemetry)
    telemetry.write_chrome_trace("pingpong.trace.json")
    print(telemetry.snapshot()["nic1.alpu.posted/match_successes"])

The world's :class:`~repro.obs.probe.SamplingProbe` samples the state
collectors the components register into the bundle's registry.  With
``timeline=True`` the bundle also carries a
:class:`~repro.obs.timeline.Timeline` the probe feeds, and with
``health=True`` a :class:`~repro.obs.health.HealthMonitor` whose
:func:`~repro.obs.health.default_watchdogs` battery turns that timeline
(plus the metrics snapshot) into structured findings at end of run.
Both need ``metrics=True``: without a registry there is nothing to
sample.  ``tracing`` is the stream's one switch: off, every record site
costs one ``enabled`` test and the run has no lifecycles to attribute.

The bundle holds what the run observed; the run-report document is
built from it once, at run end, by
:func:`repro.analysis.report.run_report` (this package imports nothing
from :mod:`repro.analysis`).  The raw records and lifecycles leave the
process only as the Chrome trace, :meth:`Telemetry.write_chrome_trace`.

A Telemetry object is **per run**: histograms and records accumulate
while collectors read the components of the world built on it, so a
second world built on the same bundle raises
:class:`TelemetryReuseError`.  The sweep executor
(:func:`repro.workloads.sweep.run_point`) creates one per point, with
only the collectors its spec asks for.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.chrome import write_chrome
from repro.obs.health import HealthFinding, HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import DEFAULT_INTERVAL_PS
from repro.obs.recorder import Recorder
from repro.obs.selfprof import SimProfiler
from repro.obs.timeline import Timeline

class TelemetryReuseError(RuntimeError):
    """A second world was built on a bundle already bound to one."""


class Telemetry:
    """Metrics + the record stream + probe configuration for one run."""

    def __init__(
        self,
        *,
        metrics: bool = True,
        tracing: bool = True,
        probe_interval_ps: Optional[int] = DEFAULT_INTERVAL_PS,
        profile: bool = False,
        timeline: bool = False,
        health: bool = False,
        fabric: bool = False,
    ) -> None:
        if not metrics and (timeline or health):
            raise ValueError(
                "timeline and health sample the metrics collectors: "
                "they need metrics=True"
            )
        self.metrics = MetricsRegistry() if metrics else None
        #: the one instrumentation stream and its message lifecycles
        #: (``tracing=False`` turns every record site off)
        self.recorder = Recorder() if tracing else None
        #: None disables the periodic probe of the state collectors
        self.probe_interval_ps = probe_interval_ps
        #: wall-clock simulator self-profiler (opt-in)
        self.profiler = SimProfiler() if profile else None
        #: windowed timeseries the sampling probe feeds (opt-in)
        self.timeline = Timeline() if timeline else None
        #: health watchdog battery evaluated at end of run (opt-in);
        #: ``health=True`` implies a timeline -- the watchdogs need one
        if health and self.timeline is None:
            self.timeline = Timeline()
        self.health = HealthMonitor() if health else None
        #: fabric observability: the world passes this through as the
        #: fabric's ``observe_hops`` (per-hop records) and attaches the
        #: fabric's :meth:`~repro.network.fabric.Fabric.snapshot` so the
        #: run report carries a ``fabric`` section.  Per-hop records need
        #: ``tracing=True`` to land anywhere.
        self.fabric_obs = fabric
        #: the bound world's fabric snapshot callable (None until bound)
        self._fabric_source = None

    # ------------------------------------------------------------- wiring
    def bind_world(self, fabric_source) -> None:
        """Bind the bundle to the one world it serves.

        ``fabric_source`` is a zero-argument callable returning that
        world's fabric snapshot (the report's ``fabric`` section).
        Raises :class:`TelemetryReuseError` when a world is already
        bound: its collectors would read the new world while histograms
        and traces kept the old one's samples.
        """
        if self._fabric_source is not None:
            raise TelemetryReuseError(
                "this Telemetry bundle already serves a world; "
                "build a fresh one per run"
            )
        self._fabric_source = fabric_source

    def fabric_snapshot(self) -> Optional[dict]:
        """The bound world's fabric snapshot; ``None`` when unbound or
        when fabric observability is off."""
        if not self.fabric_obs or self._fabric_source is None:
            return None
        return self._fabric_source()

    # ------------------------------------------------------------- outputs
    def snapshot(self) -> Dict[str, object]:
        """The metrics snapshot (empty when metrics are disabled)."""
        return self.metrics.snapshot() if self.metrics is not None else {}

    def _stream(self) -> tuple:
        """``(records, lifecycles)``; empty when tracing is off."""
        recorder = self.recorder
        if recorder is None:
            return (), ()
        return recorder.records, recorder.lifecycles

    def lifecycles(self) -> list:
        """The recorded lifecycles ([] when tracing is off)."""
        return list(self._stream()[1])

    def health_findings(self) -> List[HealthFinding]:
        """Evaluate (once) and return the watchdog findings.

        [] when the monitor is off.  Evaluation is cached inside the
        monitor, so calling this repeatedly -- or after the report -- is
        free and consistent.
        """
        if self.health is None:
            return []
        return self.health.evaluate(self.timeline, self.snapshot())

    def health_verdict(self) -> str:
        """Worst finding severity, or ``"healthy"`` (also when off)."""
        if self.health is None:
            return "healthy"
        self.health_findings()
        return self.health.verdict()

    def write_chrome_trace(self, path) -> dict:
        """Write the Chrome trace JSON (incl. message tracks) to ``path``."""
        return write_chrome(path, *self._stream())
