"""Sampling probe: periodic ticks, histograms, timelines, zero perturbation."""

import fnmatch
import re

import pytest

from repro.obs import Telemetry
from repro.obs.health import (
    RETRANSMIT_WINDOW_PS,
    MetricWatchdog,
    StallWatchdog,
    default_watchdogs,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import SamplingProbe
from repro.obs.timeline import Timeline
from repro.obs.recorder import Recorder
from repro.sim.engine import Engine
from repro.workloads import HaloParams, nic_preset, run_halo
from repro.workloads.storm import run_storm
from tests.nic.test_reliability_pins import STORM, storm_nic

DEPTH = "nic0.postedRecvQ/depth"


def test_probe_samples_on_its_period():
    reg = MetricsRegistry()
    engine = Engine(metrics=reg)
    depth = [0]
    reg.register_collector(DEPTH, lambda: {"value": depth[0], "high_water": 9})
    probe = SamplingProbe(engine, 100)
    probe.start()
    engine.schedule(150, lambda: depth.__setitem__(0, 5))
    engine.run(until=350)  # ticks at 100, 200, 300
    hist = reg.histogram(f"{DEPTH}_samples")
    assert probe.ticks == 3
    assert hist.count == 3
    assert hist.min == 0 and hist.max == 5  # the level's value, not its high water


def test_probe_emits_counter_trace_records():
    reg = MetricsRegistry()
    engine = Engine(metrics=reg, recorder=Recorder())
    reg.register_collector(DEPTH, lambda: {"value": 2, "high_water": 2})
    probe = SamplingProbe(engine, 50)
    probe.start()
    engine.run(until=120)
    counters = [r for r in engine.recorder.records if r.kind == "counter"]
    names = [f"{r.component}/{r.stage}" for r in counters]
    assert [r.time_ps for r, n in zip(counters, names) if n == DEPTH] == [50, 100]
    assert all(r.detail == {"value": 2} for r, n in zip(counters, names) if n == DEPTH)
    assert all(r.uid is None for r in counters)
    # the engine's own progress counter is a probed signal too
    assert set(names) == {DEPTH, "engine/events"}


def test_start_is_idempotent_and_noop_without_collectors():
    engine = Engine()  # the disabled registry holds no collectors
    empty = SamplingProbe(engine, 100)
    empty.start()
    assert engine.pending == 0  # nothing scheduled: a bare probe is free

    reg = MetricsRegistry()
    engine = Engine(metrics=reg)
    reg.register_collector("nic0/unprobed", lambda: 1)  # matches no signal
    unmatched = SamplingProbe(engine, 100, skip=["engine"])
    unmatched.start()
    assert engine.pending == 0

    probe = SamplingProbe(engine, 100)
    probe.start()
    probe.start()
    assert engine.pending == 1


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        SamplingProbe(Engine(), 0)


def test_each_tick_lands_in_its_own_window():
    # tick k fires at exactly k * interval -- an exact window boundary --
    # so with window == interval every tick must open window k, never
    # fold back into window k-1
    reg = MetricsRegistry()
    engine = Engine(metrics=reg)
    timeline = Timeline(window_ps=100)
    values = iter(range(1, 100))
    reg.register_collector(DEPTH, lambda: next(values))
    probe = SamplingProbe(engine, 100, timeline=timeline)
    probe.start()
    engine.run(until=450)  # ticks at 100, 200, 300, 400
    series = timeline.get(DEPTH)
    assert probe.ticks == 4
    assert series.points("count") == [(100, 1), (200, 1), (300, 1), (400, 1)]
    assert series.points("last") == [(100, 1), (200, 2), (300, 3), (400, 4)]


def test_cumulative_series_and_window_override_pass_through():
    reg = MetricsRegistry()
    engine = Engine(metrics=reg)
    interval = RETRANSMIT_WINDOW_PS // 4
    timeline = Timeline(window_ps=interval)
    total = [0]

    def bump_and_read():
        total[0] += 3
        return total[0]

    reg.register_collector("nic0.rel/retransmits", bump_and_read)
    probe = SamplingProbe(engine, interval, timeline=timeline)
    probe.start()
    engine.run(until=8 * interval + interval // 2)  # ticks 1..8
    series = timeline.get("nic0.rel/retransmits")
    assert series.mode == "cumulative"
    assert series.window_ps == RETRANSMIT_WINDOW_PS  # wider than the default
    # window 0 holds ticks 1..3 (base 3), window 1 ticks 4..7, window 2 tick 8
    assert series.points("delta") == [
        (0, 6.0),
        (RETRANSMIT_WINDOW_PS, 12.0),
        (2 * RETRANSMIT_WINDOW_PS, 3.0),
    ]
    assert "nic0.rel/retransmits_samples" not in reg.names()  # no histogram row


def test_series_need_a_timeline():
    reg = MetricsRegistry()
    engine = Engine(metrics=reg)
    reg.register_collector(DEPTH, lambda: 1)
    # no timeline on the probe: histograms only, nothing crashes
    probe = SamplingProbe(engine, 100)
    probe.start()
    engine.run(until=250)
    assert probe.ticks == 2
    assert reg.histogram(f"{DEPTH}_samples").count == 2


def test_skipped_components_stay_unsampled():
    reg = MetricsRegistry()
    engine = Engine(metrics=reg)
    timeline = Timeline(window_ps=100)
    reg.register_collector("fabric.wire0->1/utilization", lambda: 0.5)
    reg.register_collector("fabric.wire1->0/utilization", lambda: 0.5)
    probe = SamplingProbe(
        engine, 100, timeline=timeline, skip=["fabric.wire1->0"]
    )
    probe.start()
    engine.run(until=150)
    assert timeline.names() == ["engine/events", "fabric.wire0->1/utilization"]


def test_probe_does_not_perturb_other_events():
    # pure observer: event times with and without a probe are identical
    def run(with_probe):
        reg = MetricsRegistry()
        engine = Engine(metrics=reg)
        reg.register_collector(DEPTH, lambda: 1)
        times = []
        for d in (30, 70, 110, 400):
            engine.schedule(d, lambda: times.append(engine.now))
        if with_probe:
            SamplingProbe(engine, 25).start()
        engine.run(until=500)
        return times

    assert run(False) == run(True)


# -------------------------------------------- one definition per signal
def _storm_with_health():
    telemetry = Telemetry(tracing=False, health=True)
    run_storm(storm_nic(), STORM, telemetry=telemetry)
    return telemetry


def _halo_with_fabric_watch():
    telemetry = Telemetry(tracing=False, timeline=True, health=True, fabric=True)
    run_halo(
        nic_preset("baseline"),
        HaloParams(ranks=16, topology="torus3d"),
        telemetry=telemetry,
    )
    return telemetry


@pytest.fixture(scope="module")
def probed_runs():
    return [_storm_with_health(), _halo_with_fabric_watch()]


def test_every_probed_series_and_histogram_is_a_collector(probed_runs):
    for telemetry in probed_runs:
        snapshot = telemetry.snapshot()
        series = telemetry.timeline.names()
        samples = [name for name in snapshot if name.endswith("_samples")]
        assert series and samples
        assert set(series) <= set(snapshot)
        assert {name[: -len("_samples")] for name in samples} <= set(snapshot)


def test_dedicated_channels_stay_unsampled(probed_runs):
    storm, halo = probed_runs
    # the storm runs on the crossbar: one wire per pair, none sampled
    assert not fnmatch.filter(storm.timeline.names(), "*.wire*")
    wires = fnmatch.filter(halo.timeline.names(), "*.wire*/utilization")
    assert wires  # the torus's shared channels are
    assert not [name for name in wires if re.match(r"fabric\.wire(\d+)->\1/", name)]


def test_every_default_watchdog_pattern_has_a_signal(probed_runs):
    series = set().union(*(t.timeline.names() for t in probed_runs))
    metrics = set().union(*(t.snapshot() for t in probed_runs))
    for watchdog in default_watchdogs():
        if isinstance(watchdog, MetricWatchdog):
            patterns, names = [watchdog.pattern], metrics
        elif isinstance(watchdog, StallWatchdog):
            patterns = [watchdog.progress_pattern, watchdog.activity_pattern]
            names = series
        else:
            patterns, names = [watchdog.pattern], series
        for pattern in patterns:
            assert fnmatch.filter(names, pattern), (watchdog.code, pattern)
