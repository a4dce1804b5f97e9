#!/usr/bin/env python3
"""Queue-depth study: a compact Figure 5 + Figure 6, with analysis.

Sweeps the posted-receive and unexpected-message queue benchmarks over a
coarse grid for the paper's three receiver configurations and reports the
derived quantities Section VI discusses: warm/cold per-entry cost, the
cache knee, the ALPU's fixed overhead and its break-even queue length.

Run:  python examples/queue_depth_study.py          (about a minute)
      python examples/queue_depth_study.py --fast   (coarser, seconds)
"""

import argparse

from repro.analysis.curves import (
    crossover_length,
    detect_knee,
    fixed_overhead_ns,
    latency_series,
    per_entry_slope_ns,
)
from repro.analysis.tables import format_curve
from repro.workloads import PRESETS, SweepSpec, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="coarser grid")
    args = parser.parse_args()

    if args.fast:
        lengths = [1, 5, 32, 128, 200, 300, 500]
        iterations = 5
    else:
        lengths = [1, 2, 5, 8, 16, 32, 64, 128, 160, 200, 256, 320, 400, 500]
        iterations = 8

    print("Posted-receive queue (Figure 5 projections, full traversal)")
    print("-" * 64)
    curves5 = latency_series(run_sweep(
        SweepSpec.preposted(PRESETS, lengths, (1.0,), iterations=iterations, warmup=2)
    ))
    for preset, series in curves5.items():
        print(format_curve(preset, lengths, series))

    baseline = curves5["baseline"]
    warm = per_entry_slope_ns(lengths, baseline, hi=128)
    knee = detect_knee(lengths, baseline)
    cold = per_entry_slope_ns(lengths, baseline, lo=max(300, knee or 0))
    print(f"\n  baseline warm cost : {warm:5.1f} ns/entry   (paper ~15)")
    print(f"  cache knee         : {knee} entries      (32 KB L1 exhausted)")
    print(f"  baseline cold cost : {cold:5.1f} ns/entry   (paper ~64)")
    for preset, capacity in (("alpu128", 128), ("alpu256", 256)):
        series = curves5[preset]
        overhead = fixed_overhead_ns(lengths[:2], series[:2]) - fixed_overhead_ns(
            lengths[:2], baseline[:2]
        )
        breakeven = crossover_length(lengths, baseline, lengths, series)
        print(
            f"  {preset}: fixed overhead {overhead:+5.1f} ns, "
            f"break-even at {breakeven:.1f} entries, "
            f"flat through {capacity} entries"
        )

    print()
    print("Unexpected-message queue (Figure 6)")
    print("-" * 64)
    unexpected_lengths = [x for x in lengths if x <= 300]
    curves6 = latency_series(run_sweep(
        SweepSpec.unexpected(
            PRESETS, unexpected_lengths, iterations=iterations, warmup=2
        )
    ))
    for preset, series in curves6.items():
        print(format_curve(preset, unexpected_lengths, series))
    win = crossover_length(
        unexpected_lengths, curves6["baseline"], unexpected_lengths, curves6["alpu128"]
    )
    print(f"\n  baseline falls behind the ALPU past ~{win:.0f} unexpected entries")


if __name__ == "__main__":
    main()
