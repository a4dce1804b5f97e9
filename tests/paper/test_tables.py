"""Tables I-V of the paper, regenerated from the implementation.

Each test prints its table (``pytest tests/paper -s`` shows them) and
asserts agreement with the published one:

* I and II: the ALPU command and response sets, with the protocol rule
  that no MATCH FAILURE falls between START ACKNOWLEDGE and STOP INSERT;
* III: the processor parameters, plus the load-to-use latency bands both
  simulated memory hierarchies actually produce;
* IV and V: the FPGA resource model against every published design point
  within 1.5%, and the trends between them.
"""

import dataclasses

from repro.analysis.tables import format_rows
from repro.core import CellKind
from repro.core.alpu import Alpu, AlpuConfig
from repro.core.commands import (
    TABLE_I_ROWS,
    TABLE_II_ROWS,
    Insert,
    MatchFailure,
    MatchSuccess,
    Reset,
    StartAcknowledge,
    StartInsert,
    StopInsert,
)
from repro.core.match import MatchRequest
from repro.fpga.report import (
    TABLE_IV_PUBLISHED,
    TABLE_V_PUBLISHED,
    model_table,
    render_table,
)
from repro.proc.params import (
    CPU_PARAMS,
    NETWORK_WIRE_LATENCY_PS,
    NIC_PARAMS,
    TABLE_III_ROWS,
    make_host_memory,
    make_nic_memory,
)
from repro.sim.units import cycles_to_ps

#: relative agreement every modeled FPGA design point must reach
TOLERANCE = 0.015


def field_rows(published, implemented):
    """``(name, description, paper column, implemented fields)`` rows."""
    rows = []
    for name, description, paper in published:
        fields = [f.name for f in dataclasses.fields(implemented[name])]
        rows.append((name, description, paper, ", ".join(fields) or "-"))
    return rows


def test_table1_command_set():
    rows = field_rows(
        TABLE_I_ROWS,
        {
            "START INSERT": StartInsert,
            "INSERT": Insert,
            "STOP INSERT": StopInsert,
            "RESET": Reset,
        },
    )
    print()
    print("TABLE I -- ASSOCIATIVE LIST PROCESSING UNIT COMMAND SET")
    print(format_rows(
        ["Command", "Description", "Inputs (paper)", "Fields (impl)"], rows
    ))
    # exactly the paper's four commands, and only INSERT takes parameters
    assert [r[0] for r in rows] == ["START INSERT", "INSERT", "STOP INSERT", "RESET"]
    assert rows[1][3] == "match_bits, mask_bits, tag"
    for name, _, _, fields in rows:
        if name != "INSERT":
            assert fields == "-"


def test_table2_responses_and_insert_window():
    rows = field_rows(
        TABLE_II_ROWS,
        {
            "START ACKNOWLEDGE": StartAcknowledge,
            "MATCH SUCCESS": MatchSuccess,
            "MATCH FAILURE": MatchFailure,
        },
    )
    # drive the protocol invariant: no failure inside an insert window
    alpu = Alpu(AlpuConfig(total_cells=16, block_size=4))
    transcript = list(alpu.submit(StartInsert()))
    transcript += alpu.present_header(MatchRequest(bits=5))  # held
    transcript += alpu.submit(Insert(1, 0, 1))
    transcript += alpu.submit(StopInsert())
    print()
    print("TABLE II -- ASSOCIATIVE LIST PROCESSING UNIT RESPONSES")
    print(format_rows(
        ["Response", "Description", "Outputs (paper)", "Fields (impl)"], rows
    ))
    assert [r[0] for r in rows] == [
        "START ACKNOWLEDGE",
        "MATCH SUCCESS",
        "MATCH FAILURE",
    ]
    # the failure for the header presented mid-window resolved only
    # after STOP INSERT, never between the acknowledge and the stop
    kinds = [type(r).__name__ for r in transcript]
    assert kinds == ["StartAcknowledge", "MatchFailure"]


def test_table3_processor_parameters():
    # nominal load-to-use on both hierarchies: page-hit and activate
    # paths on cold, conflict-free addresses
    nic_memory = make_nic_memory()
    host_memory = make_host_memory()
    nic_cycle = cycles_to_ps(1, NIC_PARAMS.clock_hz)
    host_cycle = cycles_to_ps(1, CPU_PARAMS.clock_hz)
    nic_band = sorted(
        round(nic_memory.access(0x100000 + i * 64) / nic_cycle) for i in range(2)
    )
    host_band = sorted(
        round(host_memory.access(0x100000 + i * 64) / host_cycle) for i in range(2)
    )
    print()
    print("TABLE III -- PROCESSOR SIMULATION PARAMETERS")
    print(format_rows(["Parameter", "CPU", "NIC Processor"], TABLE_III_ROWS))
    print(
        f"\nmeasured load-to-use: host {host_band} cycles (paper: 85-90), "
        f"NIC {nic_band} cycles (paper: 30-32)"
    )
    # structural parameters recorded verbatim
    assert CPU_PARAMS.clock_hz == 2e9 and NIC_PARAMS.clock_hz == 500e6
    assert CPU_PARAMS.issue_width == 8 and NIC_PARAMS.issue_width == 4
    assert NIC_PARAMS.l1_desc == "32K 64-way" and CPU_PARAMS.l2_desc == "512K"
    assert NETWORK_WIRE_LATENCY_PS == 200_000
    # derived latency bands bracket the published ones
    assert 28 <= nic_band[0] and nic_band[1] <= 32
    assert 80 <= host_band[0] and host_band[1] <= 95


def check_fpga_table(title, kind, published):
    """Print the modeled table and check every point against the paper."""
    model = model_table(kind)
    print()
    print(render_table(title, model, published))
    for modeled, paper in zip(model, published):
        for field in ("luts", "flipflops", "slices"):
            a, b = getattr(modeled, field), getattr(paper, field)
            assert abs(a - b) / b < TOLERANCE
        assert abs(modeled.speed_mhz - paper.speed_mhz) / paper.speed_mhz < TOLERANCE
        assert modeled.latency_cycles == paper.latency_cycles
    return model


def test_table4_posted_receives_prototypes():
    model = check_fpga_table(
        "TABLE IV -- POSTED RECEIVES ALPU PROTOTYPES (model vs published)",
        CellKind.POSTED_RECEIVE,
        TABLE_IV_PUBLISHED,
    )
    # trends at 256 cells: FFs fall and LUTs rise with block size, and
    # block size 32 misses the 9 ns timing constraint
    big = [m for m in model if m.total_cells == 256]
    assert big[0].flipflops > big[1].flipflops > big[2].flipflops
    assert big[0].luts < big[1].luts < big[2].luts
    assert big[2].speed_mhz < big[0].speed_mhz


def test_table5_unexpected_messages_prototypes():
    model = check_fpga_table(
        "TABLE V -- UNEXPECTED MESSAGES ALPU PROTOTYPES (model vs published)",
        CellKind.UNEXPECTED,
        TABLE_V_PUBLISHED,
    )
    # the cross-table claim: masks-as-inputs saves a third of the FFs
    # for the same LUT budget
    posted = model_table(CellKind.POSTED_RECEIVE)
    for unexpected_point, posted_point in zip(model, posted):
        ratio = unexpected_point.flipflops / posted_point.flipflops
        assert 0.55 < ratio < 0.70
        assert abs(unexpected_point.luts - posted_point.luts) < 50
