"""Figure 5: growth of latency with posted-receive queue length.

Three panels-worth of data: the baseline NIC (5a/5b), a 128-entry ALPU
(5c/5d) and a 256-entry ALPU (5e/5f).  Each regenerates the latency
surface over (queue length x fraction traversed) and asserts the shape
the paper reports:

* baseline: ~15 ns per traversed entry while warm, a cache knee once the
  queue outgrows the NIC's 32 KB L1, and ~64 ns per entry beyond it;
* ALPU: a flat curve until the queue length crosses the ALPU capacity,
  a fixed overhead of tens of ns at zero length with break-even around
  5 entries, and -- past capacity -- software-suffix growth with the
  cache knee pushed out.
"""

import pytest


from repro.analysis.curves import (
    crossover_length,
    detect_knee,
    per_entry_slope_ns,
)
from repro.analysis.tables import format_curve
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import nic_preset

#: full Figure-5 (queue length x fraction) grid -- excluded from the tier-1 run
pytestmark = pytest.mark.slow

LENGTHS = [1, 2, 5, 8, 16, 32, 64, 128, 160, 200, 256, 320, 400, 500]
FRACTIONS = [0.25, 0.5, 0.75, 1.0]
ITERS = dict(iterations=6, warmup=2)


def sweep(preset):
    surface = {}
    for fraction in FRACTIONS:
        series = []
        for length in LENGTHS:
            result = run_preposted(
                nic_preset(preset),
                PrepostedParams(
                    queue_length=length, traverse_fraction=fraction, **ITERS
                ),
            )
            series.append(result.median_ns)
        surface[fraction] = series
    return surface


def show(title, surface):
    print()
    print(title)
    print("latency (ns) by queue length, one series per traversal fraction:")
    print("lengths   ", "  ".join(str(x) for x in LENGTHS))
    for fraction, series in surface.items():
        print(format_curve(f"f={fraction:.2f}", LENGTHS, series))


@pytest.fixture(scope="module")
def baseline_surface():
    return sweep("baseline")


def test_fig5ab_baseline(benchmark, once, baseline_surface):
    surface = once(benchmark, lambda: baseline_surface)
    show("FIGURE 5(a,b) -- baseline NIC", surface)
    full = surface[1.0]
    warm_slope = per_entry_slope_ns(LENGTHS, full, hi=128)
    knee = detect_knee(LENGTHS, full)
    cold_slope = per_entry_slope_ns(LENGTHS, full, lo=320)
    anchor_400 = full[LENGTHS.index(400)]
    anchor_80pct_500 = surface[0.75][LENGTHS.index(500)]
    print(
        f"\nwarm slope {warm_slope:.1f} ns/entry (paper ~15), "
        f"knee at {knee} entries (32KB L1), "
        f"cold slope {cold_slope:.1f} ns/entry (paper ~64), "
        f"400-entry full traversal {anchor_400/1000:.1f} us (paper 13), "
        f"75% of 500 {anchor_80pct_500/1000:.1f} us (paper ~24 at 80%)"
    )
    assert 10 <= warm_slope <= 20
    assert knee is not None and 128 <= knee <= 400
    assert cold_slope >= 2.5 * warm_slope
    assert 45 <= cold_slope <= 90
    # deeper traversal fractions always cost at least as much
    for i, length in enumerate(LENGTHS):
        if length >= 8:
            assert surface[1.0][i] >= surface[0.25][i]


def run_alpu_panel(preset, capacity, baseline_surface):
    surface = sweep(preset)
    full = surface[1.0]
    baseline_full = baseline_surface[1.0]
    in_capacity = [x for x in LENGTHS if x <= capacity]
    flat = [full[LENGTHS.index(x)] for x in in_capacity]
    overhead = full[0] - baseline_full[0]
    breakeven = crossover_length(LENGTHS, baseline_full, LENGTHS, full)
    return surface, full, flat, overhead, breakeven


def check_alpu_panel(title, capacity, surface, full, flat, overhead, breakeven,
                     baseline_surface):
    show(title, surface)
    print(
        f"\nflat region spread {max(flat) - min(flat):.0f} ns, "
        f"zero-length overhead {overhead:+.0f} ns (paper ~+80), "
        f"break-even at {breakeven:.1f} entries (paper ~5)"
    )
    # the dramatic advantage: flat until capacity
    assert max(flat) - min(flat) < 60
    # the penalty: tens of ns, not more
    assert 0 < overhead < 150
    # break-even within a handful of entries
    assert breakeven is not None and breakeven <= 12
    # beyond capacity the software suffix grows, but far below baseline
    beyond = [x for x in LENGTHS if x > capacity]
    if beyond:
        baseline_full = baseline_surface[1.0]
        for length in beyond:
            index = LENGTHS.index(length)
            assert full[index] < baseline_full[index]


def test_fig5cd_alpu128(benchmark, once, baseline_surface):
    result = once(
        benchmark, lambda: run_alpu_panel("alpu128", 128, baseline_surface)
    )
    surface, full, flat, overhead, breakeven = result
    check_alpu_panel(
        "FIGURE 5(c,d) -- 128-entry ALPU", 128, surface, full, flat,
        overhead, breakeven, baseline_surface,
    )
    # the cache knee is *delayed* relative to the baseline: the ALPU
    # spares the processor the first 128 entries' worth of cache traffic
    baseline_knee = detect_knee(LENGTHS, baseline_surface[1.0])
    alpu_knee = detect_knee(LENGTHS, full)
    assert alpu_knee is None or alpu_knee > baseline_knee


def test_fig5ef_alpu256(benchmark, once, baseline_surface):
    result = once(
        benchmark, lambda: run_alpu_panel("alpu256", 256, baseline_surface)
    )
    surface, full, flat, overhead, breakeven = result
    check_alpu_panel(
        "FIGURE 5(e,f) -- 256-entry ALPU", 256, surface, full, flat,
        overhead, breakeven, baseline_surface,
    )
    # the 256-entry unit stays flat where the 128-entry unit has begun
    # to grow: its flat region covers 200 and 256
    index_256 = LENGTHS.index(256)
    assert full[index_256] - full[0] < 60
