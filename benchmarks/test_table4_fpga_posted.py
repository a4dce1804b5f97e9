"""Table IV: sizes and speeds of the Posted Receives ALPU prototypes.

Regenerates the table from the structural resource model and asserts
agreement with every published design point within 1.5%, plus the trends
the paper discusses (FFs fall / LUTs rise with block size; block size 32
misses the 9 ns timing constraint; the latency column).
"""

from repro.core import CellKind
from repro.fpga.report import TABLE_IV_PUBLISHED, model_table, render_table

TOLERANCE = 0.015


def regenerate():
    return model_table(CellKind.POSTED_RECEIVE)


def test_table4(benchmark, once):
    model = once(benchmark, regenerate)
    print()
    print(render_table(
        "TABLE IV -- POSTED RECEIVES ALPU PROTOTYPES (model vs published)",
        model,
        TABLE_IV_PUBLISHED,
    ))
    for modeled, paper in zip(model, TABLE_IV_PUBLISHED):
        for field in ("luts", "flipflops", "slices"):
            a, b = getattr(modeled, field), getattr(paper, field)
            assert abs(a - b) / b < TOLERANCE
        assert abs(modeled.speed_mhz - paper.speed_mhz) / paper.speed_mhz < TOLERANCE
        assert modeled.latency_cycles == paper.latency_cycles
    # trends at 256 cells
    big = [m for m in model if m.total_cells == 256]
    assert big[0].flipflops > big[1].flipflops > big[2].flipflops
    assert big[0].luts < big[1].luts < big[2].luts
    assert big[2].speed_mhz < big[0].speed_mhz  # block 32 misses 9 ns
