"""Declarative health watchdogs over run timelines.

Thousand-point sweep campaigns cannot be eyeballed; they need verdicts.
A :class:`HealthMonitor` holds a set of declarative watchdogs, each
watching timeline series (by glob pattern, so ``*.rel/retransmits``
covers every NIC) or end-of-run metrics, and :meth:`~HealthMonitor.
evaluate` folds them into a deterministic list of structured
:class:`HealthFinding` records that rides on run results, sweep rows and
the unified run report.

Three detector shapes (the issue's threshold / sustained-derivative /
stall taxonomy):

* :class:`ThresholdWatchdog` -- a window statistic at or above a
  threshold, either in any window or sustained over a simulated-time
  span;
* :class:`DerivativeWatchdog` -- a statistic rising monotonically across
  a sustained span with at least a minimum net rise (backlog growth);
* :class:`StallWatchdog` -- an *activity* series showing work per window
  while a *progress* series stays flat across a sustained span
  (livelock / stuck-gap detection);
* :class:`MetricWatchdog` -- an end-of-run metrics counter at or above a
  threshold (for events too rare or too structural to need a series).

Sustains are expressed in **picoseconds of simulated time**, not window
counts, so downsampled (wider-window) timelines fire the same way.

:func:`default_watchdogs` is the standard battery -- ``retransmit_storm``,
``unexpected_backlog_growth``, ``reorder_stall``, ``backend_degraded``,
``sim_livelock`` -- tuned so the zero-fault benchmark points come back
clean while seeded fault runs produce deterministic findings (pinned by
``tests/obs/test_health.py`` and ``tests/workloads/test_faulty.py``).

Evaluation is pull-style and end-of-run: watchdogs read the finished
timeline and metrics snapshot, so enabling them cannot perturb simulated
results.
"""

from __future__ import annotations

import dataclasses
import fnmatch
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.timeline import Timeline

#: finding severities, mild to fatal
SEVERITIES = ("info", "warning", "critical")


@dataclasses.dataclass(frozen=True)
class HealthFinding:
    """One structured verdict about a run."""

    #: stable machine-readable code (``retransmit_storm``, ...)
    code: str
    severity: str
    #: the series (or metric) that tripped the detector
    series: str
    #: simulated-time span of the offending evidence
    start_ps: int
    end_ps: int
    #: the observed value that crossed the line, and the line itself
    value: float
    threshold: float
    #: one human-readable sentence
    message: str

    def to_obj(self) -> Dict[str, object]:
        """JSON-serializable record (what sweep rows / reports carry)."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_obj(obj: Dict[str, object]) -> "HealthFinding":
        return HealthFinding(**obj)


def _match_series(timeline: Timeline, pattern: str) -> List[str]:
    """Timeline series names matching a glob pattern, sorted."""
    return [
        name for name in timeline.names() if fnmatch.fnmatchcase(name, pattern)
    ]


def _sustained_runs(
    points: Sequence[Tuple[int, float]],
    window_ps: int,
    predicate,
) -> List[Tuple[int, int, List[float]]]:
    """Maximal runs of consecutive windows satisfying ``predicate``.

    Returns ``(start_ps, end_ps, values)`` per run.  Windows are
    consecutive when adjacent in the stored sequence *and* contiguous in
    time -- an unobserved gap breaks the run.
    """
    runs: List[Tuple[int, int, List[float]]] = []
    run_start: Optional[int] = None
    run_end = 0
    values: List[float] = []
    for start_ps, value in points:
        contiguous = run_start is not None and start_ps == run_end
        if predicate(value):
            if not contiguous:
                if run_start is not None:
                    runs.append((run_start, run_end, values))
                run_start, values = start_ps, []
            run_end = start_ps + window_ps
            values.append(value)
        else:
            if run_start is not None:
                runs.append((run_start, run_end, values))
            run_start, values = None, []
    if run_start is not None:
        runs.append((run_start, run_end, values))
    return runs


class Watchdog:
    """Base detector: subclasses implement :meth:`evaluate`."""

    def __init__(self, code: str, severity: str = "warning") -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.code = code
        self.severity = severity

    def evaluate(
        self, timeline: Timeline, metrics: Dict[str, object]
    ) -> List[HealthFinding]:
        raise NotImplementedError


class ThresholdWatchdog(Watchdog):
    """A window statistic at/above ``threshold``.

    With ``sustain_ps == 0`` a single offending window fires; otherwise
    the condition must hold over at least ``sustain_ps`` of contiguous
    simulated time.
    """

    def __init__(
        self,
        code: str,
        pattern: str,
        *,
        stat: str = "last",
        threshold: float,
        sustain_ps: int = 0,
        severity: str = "warning",
    ) -> None:
        super().__init__(code, severity)
        self.pattern = pattern
        self.stat = stat
        self.threshold = threshold
        self.sustain_ps = sustain_ps

    def evaluate(self, timeline, metrics) -> List[HealthFinding]:
        findings = []
        for name in _match_series(timeline, self.pattern):
            series = timeline.get(name)
            runs = _sustained_runs(
                series.points(self.stat),
                series.window_ps,
                lambda v: v >= self.threshold,
            )
            for start_ps, end_ps, values in runs:
                if end_ps - start_ps < max(self.sustain_ps, series.window_ps):
                    continue
                peak = max(values)
                findings.append(
                    HealthFinding(
                        code=self.code,
                        severity=self.severity,
                        series=name,
                        start_ps=start_ps,
                        end_ps=end_ps,
                        value=peak,
                        threshold=self.threshold,
                        message=(
                            f"{name} {self.stat} reached {peak:g} "
                            f"(>= {self.threshold:g}) for "
                            f"{(end_ps - start_ps) / 1e6:g} us"
                        ),
                    )
                )
                break  # one finding per series: the first offending run
        return findings


class DerivativeWatchdog(Watchdog):
    """Sustained growth: the statistic rises window over window.

    Fires when the statistic increases monotonically (allowing plateaus
    when ``strict`` is False) across at least ``sustain_ps`` of
    contiguous time with a net rise of at least ``min_rise``.
    """

    def __init__(
        self,
        code: str,
        pattern: str,
        *,
        stat: str = "last",
        min_rise: float,
        sustain_ps: int,
        strict: bool = True,
        severity: str = "warning",
    ) -> None:
        super().__init__(code, severity)
        self.pattern = pattern
        self.stat = stat
        self.min_rise = min_rise
        self.sustain_ps = sustain_ps
        self.strict = strict

    def _rising_runs(self, points, window_ps):
        """Maximal contiguous runs where the value never falls."""
        runs = []
        run: List[Tuple[int, float]] = []
        for start_ps, value in points:
            if run:
                contiguous = start_ps == run[-1][0] + window_ps
                rising = (
                    value > run[-1][1] if self.strict else value >= run[-1][1]
                )
                if contiguous and rising:
                    run.append((start_ps, value))
                    continue
                runs.append(run)
                run = []
            run = [(start_ps, value)]
        if run:
            runs.append(run)
        return runs

    def evaluate(self, timeline, metrics) -> List[HealthFinding]:
        findings = []
        for name in _match_series(timeline, self.pattern):
            series = timeline.get(name)
            for run in self._rising_runs(
                series.points(self.stat), series.window_ps
            ):
                span = run[-1][0] + series.window_ps - run[0][0]
                rise = run[-1][1] - run[0][1]
                if span >= self.sustain_ps and rise >= self.min_rise:
                    findings.append(
                        HealthFinding(
                            code=self.code,
                            severity=self.severity,
                            series=name,
                            start_ps=run[0][0],
                            end_ps=run[-1][0] + series.window_ps,
                            value=rise,
                            threshold=self.min_rise,
                            message=(
                                f"{name} {self.stat} grew by {rise:g} "
                                f"(>= {self.min_rise:g}) over "
                                f"{span / 1e6:g} us without falling"
                            ),
                        )
                    )
                    break
        return findings


class StallWatchdog(Watchdog):
    """Activity without progress.

    Watches one *progress* series (cumulative; its per-window ``delta``
    should be positive in a healthy run) against one *activity* series:
    fires when, over at least ``sustain_ps`` of contiguous time, every
    window shows activity but zero progress.  ``sim_livelock`` is this
    with engine events as activity and firmware completions as progress.
    """

    def __init__(
        self,
        code: str,
        progress_pattern: str,
        activity_pattern: str,
        *,
        sustain_ps: int,
        severity: str = "critical",
    ) -> None:
        super().__init__(code, severity)
        self.progress_pattern = progress_pattern
        self.activity_pattern = activity_pattern
        self.sustain_ps = sustain_ps

    def evaluate(self, timeline, metrics) -> List[HealthFinding]:
        activity: Dict[int, float] = {}
        window_ps = None
        for name in _match_series(timeline, self.activity_pattern):
            series = timeline.get(name)
            window_ps = series.window_ps
            for start_ps, value in series.points("delta"):
                activity[start_ps] = activity.get(start_ps, 0.0) + value
        if not activity or window_ps is None:
            return []
        progress: Dict[int, float] = {}
        for name in _match_series(timeline, self.progress_pattern):
            series = timeline.get(name)
            if series.window_ps != window_ps:
                # resolution drifted apart mid-downsample; comparing
                # differently-sized windows would fabricate stalls
                return []
            for start_ps, value in series.points("delta"):
                progress[start_ps] = progress.get(start_ps, 0.0) + value
        stalled = [
            (start_ps, activity[start_ps])
            for start_ps in sorted(activity)
            if activity[start_ps] > 0 and progress.get(start_ps, 0.0) <= 0
        ]
        runs = _sustained_runs(stalled, window_ps, lambda v: True)
        for start_ps, end_ps, values in runs:
            if end_ps - start_ps < self.sustain_ps:
                continue
            return [
                HealthFinding(
                    code=self.code,
                    severity=self.severity,
                    series=self.progress_pattern,
                    start_ps=start_ps,
                    end_ps=end_ps,
                    value=sum(values),
                    threshold=0.0,
                    message=(
                        f"{sum(values):g} events of activity "
                        f"({self.activity_pattern}) over "
                        f"{(end_ps - start_ps) / 1e6:g} us with no "
                        f"progress on {self.progress_pattern}"
                    ),
                )
            ]
        return []


class ImbalanceWatchdog(Watchdog):
    """Cross-series skew: one series carries far more than its peers.

    Compares the end-of-run ``stat`` value *across* every series
    matching ``pattern`` (at least ``min_series`` of them, so a 2-rank
    ring cannot trip it): fires when the hottest series reaches at least
    ``ratio`` times the mean of all matched series and at least
    ``floor`` absolutely.  With per-link utilization series this is the
    route-imbalance detector: dimension-ordered routing concentrating
    traffic onto one channel while its peers idle.
    """

    def __init__(
        self,
        code: str,
        pattern: str,
        *,
        stat: str = "last",
        ratio: float,
        floor: float = 0.0,
        min_series: int = 4,
        severity: str = "warning",
    ) -> None:
        super().__init__(code, severity)
        self.pattern = pattern
        self.stat = stat
        self.ratio = ratio
        self.floor = floor
        self.min_series = min_series

    def evaluate(self, timeline, metrics) -> List[HealthFinding]:
        names = _match_series(timeline, self.pattern)
        if len(names) < self.min_series:
            return []
        finals: List[Tuple[str, float, int]] = []
        for name in names:
            series = timeline.get(name)
            points = series.points(self.stat)
            if points:
                finals.append((name, points[-1][1], points[-1][0]))
        if len(finals) < self.min_series:
            return []
        mean = sum(value for _, value, _ in finals) / len(finals)
        name, top, start_ps = max(finals, key=lambda item: item[1])
        if mean <= 0 or top < self.floor or top < self.ratio * mean:
            return []
        window = timeline.get(name).window_ps
        return [
            HealthFinding(
                code=self.code,
                severity=self.severity,
                series=name,
                start_ps=start_ps,
                end_ps=start_ps + window,
                value=top,
                threshold=self.ratio * mean,
                message=(
                    f"{name} {self.stat} = {top:g}, "
                    f"{top / mean:.1f}x the mean of {len(finals)} "
                    f"peer series (>= {self.ratio:g}x)"
                ),
            )
        ]


class MetricWatchdog(Watchdog):
    """An end-of-run metrics value at/above ``threshold``.

    For events that are structural rather than temporal (a backend
    degradation either happened or did not) or too rare to need a
    series.  Counter/collector values compare directly; gauge dicts
    compare their ``value``.
    """

    def __init__(
        self,
        code: str,
        pattern: str,
        *,
        threshold: float = 1.0,
        severity: str = "warning",
    ) -> None:
        super().__init__(code, severity)
        self.pattern = pattern
        self.threshold = threshold

    def evaluate(self, timeline, metrics) -> List[HealthFinding]:
        findings = []
        for name in sorted(metrics):
            if not fnmatch.fnmatchcase(name, self.pattern):
                continue
            value = metrics[name]
            if isinstance(value, dict):
                value = value.get("value")
            if not isinstance(value, (int, float)):
                continue
            if value >= self.threshold:
                findings.append(
                    HealthFinding(
                        code=self.code,
                        severity=self.severity,
                        series=name,
                        start_ps=0,
                        end_ps=0,
                        value=float(value),
                        threshold=self.threshold,
                        message=(
                            f"metric {name} = {value:g} "
                            f"(>= {self.threshold:g})"
                        ),
                    )
                )
        return findings


# -------------------------------------------------------- the standard set
#: window width of the ``*.rel/retransmits`` series (the probe builds it
#: with this override): wide enough that a *burst* of retransmissions
#: lands in one window as one large delta, while a trickle of isolated
#: singles never exceeds one per window
RETRANSMIT_WINDOW_PS = 10_000_000
#: retransmissions inside one such window that count as a storm
RETRANSMIT_STORM_RATE = 2.0
#: net unexpected-queue growth that counts as a backlog (entries)
BACKLOG_MIN_RISE = 24.0
#: how long the unexpected queue must grow without draining (ps)
BACKLOG_SUSTAIN_PS = 8_000_000
#: how long the reorder buffer may hold a gap before it is a stall (ps)
REORDER_STALL_PS = 12_000_000
#: how long the engine may fire events with zero completions (ps)
LIVELOCK_SUSTAIN_PS = 500_000_000
#: per-link utilization that makes a channel a hotspot when sustained
#: (clean halo traffic is bursty: links idle between iterations, so
#: sustained near-saturation means an incast is parked on the channel)
HOTSPOT_UTILIZATION = 0.6
#: how long a link must stay that hot (ps)
HOTSPOT_SUSTAIN_PS = 3_000_000
#: link backlog (messages queued on one channel) that counts as
#: contention when it never drains below this across the sustain span
CONTENTION_QUEUE_DEPTH = 3.0
#: how long the backlog must persist (ps)
CONTENTION_SUSTAIN_PS = 3_000_000
#: hottest-link utilization vs the fleet mean that counts as imbalance
IMBALANCE_RATIO = 4.0
#: ... provided the hot link is actually busy (absolute floor)
IMBALANCE_FLOOR = 0.25
#: and there are enough channels for "imbalance" to mean anything
IMBALANCE_MIN_SERIES = 8
#: admission refusals inside one RETRANSMIT_WINDOW_PS window that count
#: as sustained pressure (a draining queue refuses at most a straggler
#: or two per window; a flood refuses every arrival)
ADMISSION_PRESSURE_RATE = 4.0


def default_watchdogs() -> List[Watchdog]:
    """The standard battery every telemetry-carrying run evaluates."""
    return [
        # a storm is *bursty*: several retransmits inside one window,
        # where a healthy lossy run shows isolated singles
        ThresholdWatchdog(
            "retransmit_storm",
            "*.rel/retransmits",
            stat="delta",
            threshold=RETRANSMIT_STORM_RATE,
            severity="warning",
        ),
        DerivativeWatchdog(
            "unexpected_backlog_growth",
            "*.unexpectedQ/depth",
            stat="last",
            min_rise=BACKLOG_MIN_RISE,
            sustain_ps=BACKLOG_SUSTAIN_PS,
            strict=False,
            severity="warning",
        ),
        # a healthy reorder buffer fills and drains within an RTT; a gap
        # held across many windows means the missing packet never came
        ThresholdWatchdog(
            "reorder_stall",
            "*.rel/reorder_held",
            stat="min",
            threshold=1.0,
            sustain_ps=REORDER_STALL_PS,
            severity="warning",
        ),
        MetricWatchdog(
            "backend_degraded",
            "*.fw/backend_degraded",
            threshold=1.0,
            severity="critical",
        ),
        # admission control refusing unexpected arrivals in bursts: the
        # ``*.adm/refused`` series only exists on NICs with
        # ``qdisc.max_unexpected`` set, so ordinary runs cannot trip it
        ThresholdWatchdog(
            "unexpected_admission_pressure",
            "*.adm/refused",
            stat="delta",
            threshold=ADMISSION_PRESSURE_RATE,
            severity="warning",
        ),
        StallWatchdog(
            "sim_livelock",
            "*.fw/completions",
            "engine/events",
            sustain_ps=LIVELOCK_SUSTAIN_PS,
            severity="critical",
        ),
        # fabric congestion battery: the ``*.wire*/util`` series exist on
        # routed presets only and ``*.wire*/queue`` only with fabric
        # observability on, so crossbar / legacy runs cannot trip these
        ThresholdWatchdog(
            "hotspot_link",
            "*.wire*/util",
            stat="last",
            threshold=HOTSPOT_UTILIZATION,
            sustain_ps=HOTSPOT_SUSTAIN_PS,
            severity="warning",
        ),
        ThresholdWatchdog(
            "link_contention",
            "*.wire*/queue",
            stat="min",
            threshold=CONTENTION_QUEUE_DEPTH,
            sustain_ps=CONTENTION_SUSTAIN_PS,
            severity="warning",
        ),
        ImbalanceWatchdog(
            "route_imbalance",
            "*.wire*/util",
            stat="last",
            ratio=IMBALANCE_RATIO,
            floor=IMBALANCE_FLOOR,
            min_series=IMBALANCE_MIN_SERIES,
            severity="info",
        ),
    ]


class HealthMonitor:
    """A watchdog battery plus its (cached) evaluation for one run."""

    enabled = True

    def __init__(self, watchdogs: Optional[Iterable[Watchdog]] = None) -> None:
        self.watchdogs: List[Watchdog] = (
            list(watchdogs) if watchdogs is not None else default_watchdogs()
        )
        self._findings: Optional[List[HealthFinding]] = None

    def evaluate(
        self,
        timeline: Optional[Timeline],
        metrics: Optional[Dict[str, object]] = None,
    ) -> List[HealthFinding]:
        """Run every watchdog; findings sort by severity then code.

        The result is cached -- a monitor is per-run, like the telemetry
        bundle it rides on.
        """
        if self._findings is not None:
            return self._findings
        timeline = timeline if timeline is not None else Timeline()
        metrics = metrics or {}
        findings: List[HealthFinding] = []
        for watchdog in self.watchdogs:
            findings.extend(watchdog.evaluate(timeline, metrics))
        findings.sort(
            key=lambda f: (-SEVERITIES.index(f.severity), f.code, f.series)
        )
        self._findings = findings
        return findings

    @property
    def findings(self) -> List[HealthFinding]:
        """Findings of the last evaluation ([] before any)."""
        return list(self._findings or [])

    def verdict(self) -> str:
        """One-word summary: the worst severity seen, or ``"healthy"``."""
        if not self._findings:
            return "healthy"
        return max(
            (f.severity for f in self._findings), key=SEVERITIES.index
        )


def verdict_of(findings: Sequence) -> str:
    """Worst severity in a findings list (dicts or HealthFinding), or
    ``"healthy"`` -- the sweep-row filter key."""
    severities = [
        f["severity"] if isinstance(f, dict) else f.severity for f in findings
    ]
    if not severities:
        return "healthy"
    return max(severities, key=SEVERITIES.index)


def has_finding(findings: Sequence, code: str) -> bool:
    """True when a findings list (dicts or records) carries ``code``."""
    return any(
        (f["code"] if isinstance(f, dict) else f.code) == code
        for f in findings
    )
