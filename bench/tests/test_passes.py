"""Whole passes on scaled-down points: tracing is invisible to the simulation,
and a slowdown injected into one layer is pinned on that layer."""

from time import perf_counter_ns

import pytest

from repro.core.alpu import Alpu
from repro.memory.system import MemorySystem

from bench.child import measure
from bench.trace import LAYERS


def test_traced_fig5_matches_untraced(measured):
    untraced, traced = measured
    assert untraced["failures"] == traced["failures"] == []
    assert traced["sim"] == untraced["sim"]
    assert traced["counters"]["sim.events"] == untraced["events"]
    assert traced["trace"]["layers"]["core"]["calls"] > 0


@pytest.mark.parametrize(
    "workload, length",
    [("fig6-list-q1024", 150), ("storm-nack", 440)],
)
def test_traced_and_untraced_give_equal_simulated_results(workload, length):
    untraced = measure(workload, 2, "pass", length)
    traced = measure(workload, 2, "traced", length)
    assert untraced["failures"] == traced["failures"] == []
    assert traced["sim"] == untraced["sim"]


def _busy_wait(fn, ns):
    def slowed(*args, **kwargs):
        end = perf_counter_ns() + ns
        while perf_counter_ns() < end:
            pass
        return fn(*args, **kwargs)

    return slowed


def _best_traced(workload, length, runs=2):
    """The fastest of ``runs`` traced passes (host hiccups only add time)."""
    passes = [measure(workload, 1, "traced", length) for _ in range(runs)]
    return min(passes, key=lambda p: p["wall_s"])


def _shares(record):
    return {name: record["trace"]["layers"][name]["self_frac"] for name in LAYERS}


@pytest.mark.parametrize(
    "workload, length, layer, targets",
    [
        ("fig6-list-q1024", 300, "memory", [(MemorySystem, "access")]),
        (
            "fig5-alpu256-q256",
            2000,
            "core",
            [(Alpu, "present_header"), (Alpu, "submit"), (Alpu, "compact_step")],
        ),
    ],
)
def test_injected_slowdown_is_named(monkeypatch, workload, length, layer, targets):
    """A busy-wait worth 15% of the untraced wall time, spread over one
    layer's calls, must show up as that layer's self-time increase.

    The diff compares each layer's share of self time, which a host that
    slows everything down evenly leaves alone; raw seconds would blame
    whichever layer is biggest whenever the host has a slow spell.
    """
    untraced = measure(workload, 1, "pass", length)
    before = _best_traced(workload, length)
    calls = before["trace"]["layers"][layer]["calls"]
    spin_ns = round(0.15 * untraced["wall_s"] * 1e9 / calls)
    for cls, name in targets:
        monkeypatch.setattr(cls, name, _busy_wait(getattr(cls, name), spin_ns))
    after = _best_traced(workload, length)
    increase = {
        name: share - _shares(before)[name] for name, share in _shares(after).items()
    }
    assert max(increase, key=increase.get) == layer, increase
    added_s = (
        after["trace"]["layers"][layer]["self_s"]
        - before["trace"]["layers"][layer]["self_s"]
    )
    assert added_s > 0.05 * untraced["wall_s"], added_s
    assert after["sim"] == before["sim"]
