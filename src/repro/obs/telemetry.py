"""The per-run telemetry bundle.

One :class:`Telemetry` object packages a fresh metrics registry, a fresh
tracer and the probe period, ready to hand to a world or a workload:

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
sample.

A Telemetry object is **per run**: histograms, traces and lifecycles
accumulate while collectors read the components of the world built on
it, so a second world built on the same bundle raises
:class:`TelemetryReuseError`.  The sweep executor
(:func:`repro.workloads.sweep.run_point`) creates one per point.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.chrome import lifecycle_chrome_events, to_chrome
from repro.obs.health import HealthFinding, HealthMonitor
from repro.obs.lifecycle import LifecycleRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import DEFAULT_INTERVAL_PS
from repro.obs.selfprof import SimProfiler
from repro.obs.timeline import Timeline
from repro.obs.tracer import Tracer

#: schema version of every telemetry dump, :meth:`Telemetry.report`
#: documents and sweep dumps alike; bump on shape changes so
#: :func:`repro.analysis.load_report` can dispatch
REPORT_VERSION = 3


class TelemetryReuseError(RuntimeError):
    """A second world was built on a bundle already bound to one."""


class Telemetry:
    """Metrics + tracing + probe configuration for one simulation run."""

    def __init__(
        self,
        *,
        metrics: bool = True,
        tracing: bool = True,
        probe_interval_ps: Optional[int] = DEFAULT_INTERVAL_PS,
        lifecycle: bool = False,
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
        self.tracer = Tracer() if tracing else None
        #: None disables the periodic probe of the state collectors
        self.probe_interval_ps = probe_interval_ps
        #: per-message flight recorder (opt-in; see repro.obs.lifecycle)
        self.lifecycle = LifecycleRecorder() if lifecycle else None
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
        #: fabric's ``observe_hops`` (per-hop lifecycle marks) and
        #: attaches the fabric's :meth:`~repro.network.fabric.Fabric.
        #: snapshot` so the report carries a ``fabric`` section.
        #: Per-hop marks need the lifecycle recorder to land anywhere.
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

    def chrome_trace(self) -> dict:
        """The Chrome trace-event document for the collected records.

        When the lifecycle recorder is on, its per-message tracks ride
        in the same document (a second "process" next to the component
        tracks).
        """
        records = self.tracer.records if self.tracer is not None else ()
        document = to_chrome(records)
        if self.lifecycle is not None:
            document["traceEvents"].extend(
                lifecycle_chrome_events(self.lifecycle.lifecycles)
            )
        return document

    def lifecycles(self) -> list:
        """The recorded lifecycles ([] when the recorder is off)."""
        return list(self.lifecycle.lifecycles) if self.lifecycle else []

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
        """Write the Chrome trace JSON (incl. lifecycle tracks) to ``path``."""
        document = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        return document

    def report(self, **meta) -> dict:
        """The unified, JSON-serializable run report (schema v3).

        Always carries ``version``, ``meta``, ``metrics``, ``health``
        (findings + verdict; empty/healthy when the monitor is off).
        ``timeline``, ``lifecycles``, ``profile`` and ``fabric`` appear
        when their collectors are enabled, else ``None`` -- the renderer
        in :mod:`repro.analysis.report` folds whatever is present.
        """
        return {
            "version": REPORT_VERSION,
            "meta": dict(meta),
            "metrics": self.snapshot(),
            "fabric": self.fabric_snapshot(),
            "timeline": (
                self.timeline.to_obj() if self.timeline is not None else None
            ),
            "health": {
                "verdict": self.health_verdict(),
                "findings": [f.to_obj() for f in self.health_findings()],
            },
            "lifecycles": (
                self.lifecycle.to_obj()["lifecycles"]
                if self.lifecycle is not None
                else None
            ),
            "profile": (
                self.profiler.snapshot() if self.profiler is not None else None
            ),
        }
