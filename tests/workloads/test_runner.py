"""Tests for the receiver presets, the Figure 5/6 grids and the
telemetry dump."""

import json

import pytest

from repro.analysis.report import REPORT_VERSION
from repro.workloads import (
    PRESETS,
    SweepSpec,
    dump_telemetry,
    nic_preset,
    run_sweep,
)


def test_presets_build_the_papers_three_receivers():
    baseline = nic_preset("baseline")
    assert baseline.firmware.matching == "list"
    alpu128 = nic_preset("alpu128")
    assert alpu128.firmware.matching == "alpu"
    assert alpu128.alpu_posted.total_cells == 128
    alpu256 = nic_preset("alpu256", block_size=32)
    assert alpu256.alpu_posted.total_cells == 256
    assert alpu256.alpu_posted.block_size == 32
    assert alpu256.alpu_unexpected.total_cells == 256


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        nic_preset("alpu512")


def test_preposted_spec_produces_the_grid():
    rows = run_sweep(
        SweepSpec.preposted(["baseline"], [1, 4], [0.0, 1.0], iterations=3, warmup=1)
    )
    assert len(rows) == 4
    assert {
        (r.params["queue_length"], r.params["traverse_fraction"]) for r in rows
    } == {
        (1, 0.0), (1, 1.0), (4, 0.0), (4, 1.0)
    }
    assert all(r.latency_ns > 0 for r in rows)


def test_unexpected_spec_produces_the_grid():
    rows = run_sweep(
        SweepSpec.unexpected(["baseline", "alpu128"], [0, 2], iterations=3, warmup=1)
    )
    assert len(rows) == 4
    assert [r.preset for r in rows] == ["baseline", "baseline", "alpu128", "alpu128"]


def test_presets_tuple_matches_figures():
    assert PRESETS == ("baseline", "alpu128", "alpu256")


def test_dump_telemetry_creates_parent_directories(tmp_path):
    rows = run_sweep(SweepSpec.unexpected(["baseline"], [0], iterations=3, warmup=1))
    path = tmp_path / "results" / "2026-08" / "fig6.json"
    dump_telemetry(rows, str(path), benchmark="unexpected")
    report = json.loads(path.read_text())
    assert report["version"] == REPORT_VERSION
    assert report["meta"] == {"benchmark": "unexpected"}
    (row,) = report["rows"]
    assert row["params"] == {
        "queue_length": 0, "message_size": 0, "iterations": 3, "warmup": 1
    }
    assert row["extra"] == {}
    assert row["report"] is None
