"""Figure 5: growth of latency with posted-receive queue length.

Three panels' worth of data: the baseline NIC (5a/5b), a 128-entry ALPU
(5c/5d) and a 256-entry ALPU (5e/5f), each checked for the shape the
paper reports:

* baseline: ~15 ns per traversed entry while warm, a cache knee once the
  queue outgrows the NIC's 32 KB L1, and ~64 ns per entry beyond it;
* ALPU: a flat curve until the queue length crosses the ALPU capacity,
  a fixed overhead of tens of ns at zero length with break-even around
  5 entries, and -- past capacity -- software-suffix growth with the
  cache knee pushed out.

Every assertion reads full traversals, plus the baseline's 25% traversal
for the "deeper costs more" check, so those are the fractions the grids
run.  A last test sweeps the figure's third axis, the message size.
"""

import pytest

from repro.analysis.curves import (
    crossover_length,
    detect_knee,
    latency_series,
    per_entry_slope_ns,
)
from repro.analysis.tables import format_curve, format_rows
from repro.workloads.sweep import SweepSpec, run_sweep

LENGTHS = [1, 2, 5, 8, 16, 32, 64, 128, 160, 200, 256, 320, 400, 500]
ITERS = dict(iterations=6, warmup=2)


def show(title, surface):
    print()
    print(title)
    print("latency (ns) by queue length, one series per traversal fraction:")
    print("lengths   ", "  ".join(str(x) for x in LENGTHS))
    for fraction, series in surface.items():
        print(format_curve(f"f={fraction:.2f}", LENGTHS, series))


@pytest.fixture(scope="module")
def baseline_surface():
    """``{fraction: [ns per length]}`` for the baseline NIC."""
    spec = SweepSpec.preposted(("baseline",), LENGTHS, (0.25, 1.0), **ITERS)
    return latency_series(run_sweep(spec), by="traverse_fraction")["baseline"]


@pytest.fixture(scope="module")
def alpu_full():
    """``{preset: [ns per length]}`` at full traversal for both ALPUs."""
    spec = SweepSpec.preposted(("alpu128", "alpu256"), LENGTHS, (1.0,), **ITERS)
    return latency_series(run_sweep(spec))


def test_fig5ab_baseline(baseline_surface):
    show("FIGURE 5(a,b) -- baseline NIC", baseline_surface)
    full = baseline_surface[1.0]
    warm_slope = per_entry_slope_ns(LENGTHS, full, hi=128)
    knee = detect_knee(LENGTHS, full)
    cold_slope = per_entry_slope_ns(LENGTHS, full, lo=320)
    anchor_400 = full[LENGTHS.index(400)]
    print(
        f"\nwarm slope {warm_slope:.1f} ns/entry (paper ~15), "
        f"knee at {knee} entries (32KB L1), "
        f"cold slope {cold_slope:.1f} ns/entry (paper ~64), "
        f"400-entry full traversal {anchor_400/1000:.1f} us (paper 13)"
    )
    assert 10 <= warm_slope <= 20
    assert knee is not None and 128 <= knee <= 400
    assert cold_slope >= 2.5 * warm_slope
    assert 45 <= cold_slope <= 90
    # deeper traversal fractions always cost at least as much
    for i, length in enumerate(LENGTHS):
        if length >= 8:
            assert baseline_surface[1.0][i] >= baseline_surface[0.25][i]


def check_alpu_panel(title, capacity, full, baseline_full):
    show(title, {1.0: full})
    flat = [full[LENGTHS.index(x)] for x in LENGTHS if x <= capacity]
    overhead = full[0] - baseline_full[0]
    breakeven = crossover_length(LENGTHS, baseline_full, LENGTHS, full)
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
    for index, length in enumerate(LENGTHS):
        if length > capacity:
            assert full[index] < baseline_full[index]


def test_fig5cd_alpu128(baseline_surface, alpu_full):
    full = alpu_full["alpu128"]
    check_alpu_panel(
        "FIGURE 5(c,d) -- 128-entry ALPU", 128, full, baseline_surface[1.0]
    )
    # the cache knee is *delayed* relative to the baseline: the ALPU
    # spares the processor the first 128 entries' worth of cache traffic
    baseline_knee = detect_knee(LENGTHS, baseline_surface[1.0])
    alpu_knee = detect_knee(LENGTHS, full)
    assert alpu_knee is None or alpu_knee > baseline_knee


def test_fig5ef_alpu256(baseline_surface, alpu_full):
    full = alpu_full["alpu256"]
    check_alpu_panel(
        "FIGURE 5(e,f) -- 256-entry ALPU", 256, full, baseline_surface[1.0]
    )
    # the 256-entry unit stays flat where the 128-entry unit has begun
    # to grow: its flat region covers 200 and 256
    assert full[LENGTHS.index(256)] - full[0] < 60


#: the eager range and one rendezvous size (the last)
SIZES = [0, 256, 1024, 4096, 16384]
SIZE_QUEUE_LENGTH = 64


def test_fig5_message_sizes():
    """The queue-traversal penalty is *additive*: at every eager size the
    baseline pays the same ~depth x 14 ns on top of the transfer time,
    so the ALPU's advantage is size-independent in absolute terms -- why
    the paper studies small messages."""
    spec = SweepSpec(
        benchmark="preposted",
        presets=("baseline", "alpu128"),
        axes=(("message_size", tuple(SIZES)), ("traverse_fraction", (0.0, 1.0))),
        fixed=(
            ("queue_length", SIZE_QUEUE_LENGTH),
            ("iterations", ITERS["iterations"]),
            ("warmup", ITERS["warmup"]),
        ),
    )
    # {preset: (shallow ns per size, deep ns per size)}
    table = {
        preset: (by_fraction[0.0], by_fraction[1.0])
        for preset, by_fraction in latency_series(
            run_sweep(spec), by="traverse_fraction"
        ).items()
    }
    print()
    print(
        f"FIGURE 5 third axis -- message size at queue length "
        f"{SIZE_QUEUE_LENGTH} (latency ns, shallow = depth 0, deep = full "
        "traversal)"
    )
    print(format_rows(
        ["preset", "bytes", "shallow", "deep", "traversal cost"],
        [
            (preset, size, f"{shallow:.0f}", f"{deep:.0f}",
             f"{deep - shallow:+.0f}")
            for preset, series in table.items()
            for size, shallow, deep in zip(SIZES, *series)
        ],
    ))

    base_shallow, base_deep = table["baseline"]
    alpu_shallow, alpu_deep = table["alpu128"]
    # latency grows with size on both NICs (bandwidth term)
    assert base_deep[-1] > base_deep[0]
    assert alpu_deep[-1] > alpu_deep[0]
    # the baseline's traversal penalty is roughly constant across the
    # eager sizes (additive model): ~63 x 14 ns
    penalties = [deep - shallow for shallow, deep in zip(base_shallow, base_deep)][:4]
    assert max(penalties) - min(penalties) < 0.5 * max(penalties)
    assert 500 < sum(penalties) / len(penalties) < 1500
    # while the ALPU's deep/shallow gap stays negligible at every size
    for shallow, deep in zip(alpu_shallow, alpu_deep):
        assert abs(deep - shallow) < 100
