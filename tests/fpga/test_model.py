"""Tests for the FPGA area/timing model against Tables IV and V."""

import pytest

from repro.core import AlpuConfig, CellKind
from repro.fpga.report import (
    TABLE_IV_PUBLISHED,
    TABLE_V_PUBLISHED,
    model_table,
    render_table,
)
from repro.fpga.resources import (
    block_overhead_flipflops,
    cell_flipflops,
    estimate_resources,
)
from repro.fpga.timing import asic_clock_mhz, clock_mhz, critical_path_ns

TOLERANCE = 0.015  # 1.5%


@pytest.mark.parametrize(
    "kind,published",
    [
        (CellKind.POSTED_RECEIVE, TABLE_IV_PUBLISHED),
        (CellKind.UNEXPECTED, TABLE_V_PUBLISHED),
    ],
    ids=["table4", "table5"],
)
def test_model_reproduces_published_tables(kind, published):
    model = model_table(kind)
    for modeled, paper in zip(model, published):
        assert (modeled.total_cells, modeled.block_size) == (
            paper.total_cells,
            paper.block_size,
        )
        for field in ("luts", "flipflops", "slices"):
            a, b = getattr(modeled, field), getattr(paper, field)
            assert abs(a - b) / b < TOLERANCE, (field, modeled, paper)
        assert abs(modeled.speed_mhz - paper.speed_mhz) / paper.speed_mhz < TOLERANCE
        assert modeled.latency_cycles == paper.latency_cycles


def test_cell_flipflops_structure():
    # posted-receive: match + mask + tag + valid = 42 + 42 + 16 + 1
    assert cell_flipflops(CellKind.POSTED_RECEIVE, 42, 16) == 101
    # unexpected: no stored mask
    assert cell_flipflops(CellKind.UNEXPECTED, 42, 16) == 59


def test_unexpected_alpu_needs_far_fewer_flipflops():
    """Masks-as-inputs is the headline area saving of Fig. 2b."""
    posted = estimate_resources(
        AlpuConfig(kind=CellKind.POSTED_RECEIVE, total_cells=256, block_size=16)
    )
    unexpected = estimate_resources(
        AlpuConfig(kind=CellKind.UNEXPECTED, total_cells=256, block_size=16)
    )
    assert unexpected.flipflops < 0.7 * posted.flipflops
    # but the compare/mux logic is essentially the same
    assert abs(unexpected.luts - posted.luts) / posted.luts < 0.01


def test_trends_with_block_size():
    """Bigger blocks: fewer registered request copies (fewer FFs) but a
    wider in-block priority structure (more LUTs)."""
    estimates = [
        estimate_resources(AlpuConfig(total_cells=256, block_size=bs))
        for bs in (8, 16, 32)
    ]
    assert estimates[0].flipflops > estimates[1].flipflops > estimates[2].flipflops
    assert estimates[0].luts < estimates[1].luts < estimates[2].luts


def test_area_scales_roughly_linearly_with_cells():
    small = estimate_resources(AlpuConfig(total_cells=128, block_size=16))
    large = estimate_resources(AlpuConfig(total_cells=256, block_size=16))
    assert 1.9 < large.flipflops / small.flipflops < 2.1
    assert 1.9 < large.luts / small.luts < 2.1


def test_block_overhead_includes_request_registration():
    posted = block_overhead_flipflops(CellKind.POSTED_RECEIVE, 42, 8)
    unexpected = block_overhead_flipflops(CellKind.UNEXPECTED, 42, 8)
    assert unexpected - posted == 42  # the input-mask registration


def test_clock_model():
    assert clock_mhz(8) == pytest.approx(112.0, abs=0.1)
    assert clock_mhz(16) == pytest.approx(112.0, abs=0.1)
    assert clock_mhz(32) == pytest.approx(100.5, abs=0.5)
    # block 32 genuinely misses the 9 ns constraint
    assert critical_path_ns(32) > 9.0
    assert critical_path_ns(16) <= 9.0


def test_asic_projection_hits_500mhz():
    """'the prototypes would all run at about 500MHz' as an ASIC."""
    for block_size in (8, 16, 32):
        assert 500 <= asic_clock_mhz(block_size) <= 565


def test_invalid_block_size():
    with pytest.raises(ValueError):
        critical_path_ns(0)


def test_render_table_smoke():
    text = render_table(
        "Table IV", model_table(CellKind.POSTED_RECEIVE), TABLE_IV_PUBLISHED
    )
    assert "Table IV" in text
    assert "17,37" in text  # published LUT figure appears
