#!/usr/bin/env python3
"""One-shot reproduction report: every table and figure, one run.

Equivalent to ``pytest benchmarks/ --benchmark-only -s`` but as a plain
script producing a single readable report -- handy for CI artifacts or a
quick "does the reproduction hold?" check.

Run:  python examples/reproduce_paper.py            (~1 minute)
"""

from repro.analysis.curves import crossover_length, detect_knee, per_entry_slope_ns
from repro.analysis.tables import format_curve, format_rows
from repro.core.cell import CellKind
from repro.fpga.report import (
    TABLE_IV_PUBLISHED,
    TABLE_V_PUBLISHED,
    model_table,
    render_table,
)
from repro.proc.params import TABLE_III_ROWS
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import nic_preset
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

RULE = "=" * 72


def tables() -> None:
    print(RULE)
    print("TABLE III -- processor simulation parameters (recorded verbatim)")
    print(format_rows(["Parameter", "CPU", "NIC Processor"], TABLE_III_ROWS))
    print()
    print(render_table(
        "TABLE IV -- Posted Receives ALPU (model vs published)",
        model_table(CellKind.POSTED_RECEIVE), TABLE_IV_PUBLISHED))
    print()
    print(render_table(
        "TABLE V -- Unexpected Messages ALPU (model vs published)",
        model_table(CellKind.UNEXPECTED), TABLE_V_PUBLISHED))


def figure5() -> None:
    print(RULE)
    print("FIGURE 5 -- latency vs posted-receive queue length (full traversal)")
    lengths = [1, 2, 5, 8, 16, 32, 64, 128, 160, 200, 256, 320, 400, 500]
    curves = {}
    for preset in ("baseline", "alpu128", "alpu256"):
        curves[preset] = [
            run_preposted(
                nic_preset(preset),
                PrepostedParams(
                    queue_length=length, traverse_fraction=1.0,
                    iterations=6, warmup=2,
                ),
            ).median_ns
            for length in lengths
        ]
        print(format_curve(preset, lengths, curves[preset]))
    baseline = curves["baseline"]
    warm = per_entry_slope_ns(lengths, baseline, hi=128)
    cold = per_entry_slope_ns(lengths, baseline, lo=320)
    knee = detect_knee(lengths, baseline)
    breakeven = crossover_length(lengths, baseline, lengths, curves["alpu256"])
    print(
        f"\n  warm {warm:.1f} ns/entry (paper ~15) | cold {cold:.1f} (paper ~64)"
        f" | knee {knee} entries | ALPU overhead "
        f"{curves['alpu256'][0] - baseline[0]:+.0f} ns (paper ~+80)"
        f" | break-even {breakeven:.1f} entries (paper ~5)"
    )


def figure6() -> None:
    print(RULE)
    print("FIGURE 6 -- latency vs unexpected queue length")
    lengths = [0, 5, 10, 20, 40, 70, 100, 150, 200, 256, 300]
    curves = {}
    for preset in ("baseline", "alpu128", "alpu256"):
        curves[preset] = [
            run_unexpected(
                nic_preset(preset),
                UnexpectedParams(queue_length=length, iterations=6, warmup=2),
            ).median_ns
            for length in lengths
        ]
        print(format_curve(preset, lengths, curves[preset]))
    win = crossover_length(lengths, curves["baseline"], lengths, curves["alpu128"])
    print(
        f"\n  short-queue ALPU loss {curves['alpu128'][0] - curves['baseline'][0]:+.0f} ns"
        f" (paper: tens of ns) | baseline falls behind past ~{win:.0f} entries"
        " (paper: ~70)"
    )


if __name__ == "__main__":
    tables()
    figure5()
    figure6()
    print(RULE)
    print("Full accounting: EXPERIMENTS.md; shape assertions: benchmarks/.")
