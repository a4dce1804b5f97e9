"""Seeded inputs, the percentile tail rule, and the benchmark's metric names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run
from bench.workloads import TAIL_SAMPLES, WORKLOADS, percentile

ROOT = Path(__file__).resolve().parents[2]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_p90_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 0.9) == 90  # ranks 91..100 lie beyond
    assert percentile(samples, 0.5) == 50
    with pytest.raises(ValueError, match="only 9 beyond"):
        percentile(samples[:99], 0.9)
    assert TAIL_SAMPLES == 10


def test_seed_zero_is_the_reference_and_other_seeds_stay_in_range():
    for workload in WORKLOADS.values():
        assert workload.value(0) == workload.reference
        drawn = {workload.value(seed) for seed in range(1, 40)}
        assert drawn <= set(workload.choices)
        assert len(drawn) > 1
        assert workload.value(7) == workload.value(7)


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, unit, _ in run.END_TO_END
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert len(run.PER_LAYER) == 47


def test_printed_metric_names_equal_benchmark_json(measured):
    """The final JSON line names exactly the metrics BENCHMARK.json lists."""
    untraced, traced = measured
    entry = {
        "metrics": run.end_to_end([], [untraced]),
        "per_layer": run.per_layer(traced, untraced["wall_s"]),
    }
    printed = run.line_metrics({"fig5-alpu256-q256": entry}, trace=False)
    assert set(printed) == {m["name"] for m in SPEC["end_to_end"]}
    printed = run.line_metrics({"fig5-alpu256-q256": entry}, trace=True)
    assert set(printed) == {m["name"] for m in SPEC["per_layer"]}
    assert all(isinstance(m["value"], (int, float)) for m in printed.values())


def test_exits_nonzero_without_the_simulator(tmp_path):
    """A checkout holding only the benchmark must fail, and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench",
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "fig5-alpu256-q256",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
