"""Table V: sizes and speeds of the Unexpected Messages ALPU prototypes.

As Table IV, for the mask-as-input cell flavour -- plus the comparison
the two tables exist to make: the unexpected ALPU needs ~33-40% fewer
flip-flops and slices for the same LUT budget, because receives carry
their wildcards with the request instead of storing them per cell.
"""

from repro.core import CellKind
from repro.fpga.report import (
    TABLE_V_PUBLISHED,
    model_table,
    render_table,
)

TOLERANCE = 0.015


def regenerate():
    return model_table(CellKind.UNEXPECTED)


def test_table5(benchmark, once):
    model = once(benchmark, regenerate)
    print()
    print(render_table(
        "TABLE V -- UNEXPECTED MESSAGES ALPU PROTOTYPES (model vs published)",
        model,
        TABLE_V_PUBLISHED,
    ))
    for modeled, paper in zip(model, TABLE_V_PUBLISHED):
        for field in ("luts", "flipflops", "slices"):
            a, b = getattr(modeled, field), getattr(paper, field)
            assert abs(a - b) / b < TOLERANCE
        assert abs(modeled.speed_mhz - paper.speed_mhz) / paper.speed_mhz < TOLERANCE
        assert modeled.latency_cycles == paper.latency_cycles
    # the cross-table claim: masks-as-inputs saves a third of the FFs
    posted = model_table(CellKind.POSTED_RECEIVE)
    for unexpected_point, posted_point in zip(model, posted):
        ratio = unexpected_point.flipflops / posted_point.flipflops
        assert 0.55 < ratio < 0.70
        assert abs(unexpected_point.luts - posted_point.luts) < 50
