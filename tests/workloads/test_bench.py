"""The benchmark regression baseline: write/check round trip and CLI."""

import json

import pytest

from repro.workloads import bench
from repro.workloads.bench import (
    check_baseline,
    run_grid,
    write_artifacts,
    write_baseline,
)


@pytest.fixture(scope="module")
def grid_records():
    """One grid run shared by the whole module (the grid is ~seconds)."""
    return run_grid()


@pytest.fixture()
def baseline_path(tmp_path, grid_records):
    path = tmp_path / "baseline.json"
    payload = {"version": bench.BASELINE_VERSION, "grid": grid_records}
    path.write_text(json.dumps(payload))
    return path


class TestGrid:
    def test_grid_records_shape(self, grid_records):
        assert len(grid_records) == len(bench.GRID)
        ids = [record["id"] for record in grid_records]
        assert len(set(ids)) == len(ids)
        for record in grid_records:
            assert record["latencies_ns"], record["id"]
            assert record["events"] > 0
            assert record["events_per_sec"] > 0

    def test_point_ids_omit_iteration_axes(self):
        point = bench._point_id("preposted", "baseline", bench.GRID[0][2])
        assert "iterations" not in point and "warmup" not in point

    def test_committed_baseline_matches_a_fresh_run(self, grid_records):
        # the repo-root BENCH_baseline.json is the real regression gate
        ok, messages = check_baseline(bench.DEFAULT_PATH, grid_records)
        assert ok, "\n".join(messages)


class TestCheck:
    def test_round_trip_passes(self, tmp_path, grid_records):
        path = tmp_path / "baseline.json"
        write_baseline(str(path))
        ok, messages = check_baseline(str(path), grid_records)
        assert ok
        assert all(m.startswith(("ok", "WARN")) for m in messages)

    def test_tampered_latency_fails(self, baseline_path, grid_records):
        payload = json.loads(baseline_path.read_text())
        payload["grid"][0]["latencies_ns"][0] += 1.0
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert not ok
        assert any(m.startswith("FAIL") and "latencies" in m for m in messages)

    def test_stale_baseline_point_fails(self, baseline_path, grid_records):
        payload = json.loads(baseline_path.read_text())
        extra = dict(payload["grid"][0], id="preposted/retired/q=99")
        payload["grid"].append(extra)
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert not ok
        assert any("not in the grid" in m for m in messages)

    def test_missing_baseline_point_fails(self, baseline_path, grid_records):
        payload = json.loads(baseline_path.read_text())
        payload["grid"].pop()
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert not ok
        assert any("not in baseline" in m for m in messages)

    def test_wallclock_regression_warns_but_passes(
        self, baseline_path, grid_records
    ):
        payload = json.loads(baseline_path.read_text())
        for record in payload["grid"]:
            record["events_per_sec"] = record["events_per_sec"] * 100
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(str(baseline_path), grid_records)
        assert ok  # wall clock warns by default
        assert any(m.startswith("WARN") for m in messages)

    def test_wallclock_regression_fails_when_gated(
        self, baseline_path, grid_records
    ):
        payload = json.loads(baseline_path.read_text())
        for record in payload["grid"]:
            record["events_per_sec"] = record["events_per_sec"] * 100
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(
            str(baseline_path), grid_records, fail_on_wallclock=True
        )
        assert not ok
        assert any(
            m.startswith("FAIL") and "events/s" in m for m in messages
        )
        # latencies themselves still pass: only the wall-clock axis trips
        assert any(m.startswith("ok") for m in messages)

    def test_tolerance_band_is_per_point(self, baseline_path, grid_records):
        """A point's committed band overrides the default: a wide band
        swallows a slowdown the default would flag."""
        payload = json.loads(baseline_path.read_text())
        for record in payload["grid"]:
            record["events_per_sec"] = record["events_per_sec"] * 100
            record["events_per_sec_tolerance"] = 0.999
        baseline_path.write_text(json.dumps(payload))
        ok, messages = check_baseline(
            str(baseline_path), grid_records, fail_on_wallclock=True
        )
        assert ok, "\n".join(messages)
        assert not any("events/s" in m for m in messages)


class TestCli:
    def test_write_then_check_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "baseline.json")
        assert bench.main(["--write", path]) == 0
        assert "wrote" in capsys.readouterr().out
        assert bench.main(["--check", path]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, baseline_path, capsys):
        payload = json.loads(baseline_path.read_text())
        payload["grid"][0]["latencies_ns"] = [1.0]
        baseline_path.write_text(json.dumps(payload))
        assert bench.main(["--check", str(baseline_path)]) == 1
        assert "FAILED" in capsys.readouterr().out


@pytest.mark.slow
class TestArtifacts:
    def test_write_artifacts_produces_reports_and_traces(self, tmp_path):
        out = tmp_path / "artifacts"
        written = write_artifacts(str(out))
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "attribution.json",
            "attribution_alpu128.txt",
            "attribution_baseline.txt",
            "lifecycle_trace_alpu128.json",
            "lifecycle_trace_baseline.json",
            "run_report.html",
            "run_report.json",
            "run_report.txt",
        ]
        assert len(written) == 8
        report = json.loads((out / "attribution.json").read_text())
        for preset in ("baseline", "alpu128"):
            for message in report[preset]["messages"]:
                assert (
                    sum(message["stages_ps"].values())
                    == message["end_to_end_ps"]
                )
        text = (out / "attribution_baseline.txt").read_text()
        assert "match_search" in text
        trace = json.loads(
            (out / "lifecycle_trace_baseline.json").read_text()
        )
        assert trace["traceEvents"]
        html = (out / "run_report.html").read_text()
        assert "Run report" in html and "healthy" in html
        report = json.loads((out / "run_report.json").read_text())
        assert report["version"] == 3
        assert report["health"]["verdict"] == "healthy"
        assert report["attribution"]["aggregate"]["count"] > 0


class TestCompare:
    """The before/after join against a frozen pre-vectorization grid."""

    @pytest.fixture()
    def before_path(self, tmp_path, grid_records):
        """A doctored before file: point 0 ran at half speed (a 2.00x
        speedup today), point 1 is absent (a new grid point), point 2
        carries a tampered simulated latency (drift)."""
        grid = [json.loads(json.dumps(record)) for record in grid_records]
        grid[0]["events_per_sec"] /= 2
        grid[2]["latencies_ns"] = [v + 1.0 for v in grid[2]["latencies_ns"]]
        del grid[1]
        path = tmp_path / "before.json"
        path.write_text(
            json.dumps({"version": bench.BASELINE_VERSION, "grid": grid})
        )
        return path

    def test_compare_rows(self, before_path, grid_records):
        rows = bench.compare_records(str(before_path), grid_records)
        assert len(rows) == len(grid_records)
        by_id = {row["id"]: row for row in rows}
        sped_up = by_id[grid_records[0]["id"]]
        assert sped_up["speedup"] == pytest.approx(2.0)
        assert sped_up["latencies_identical"] is True
        new_point = by_id[grid_records[1]["id"]]
        assert new_point["before_events_per_sec"] is None
        assert new_point["speedup"] is None
        assert new_point["latencies_identical"] is None
        drifted = by_id[grid_records[2]["id"]]
        assert drifted["latencies_identical"] is False

    def test_markdown_table(self, before_path, grid_records):
        rows = bench.compare_records(str(before_path), grid_records)
        table = bench.format_comparison_markdown(rows)
        assert table.startswith("| grid point |")
        assert "2.00x" in table
        assert "new point" in table
        assert "**DRIFTED**" in table

    def test_committed_before_grid_is_latency_identical(self, grid_records):
        # bit-identity against the frozen pre-vectorization grid: the
        # SWAR core and event-engine work must not change what the
        # simulator computes, only how fast the host computes it
        rows = bench.compare_records(bench.BEFORE_PATH, grid_records)
        assert rows, "before grid joined no points"
        joined = [row for row in rows if row["latencies_identical"] is not None]
        assert joined, "before grid joined no points"
        for row in joined:
            assert row["latencies_identical"] is True, row["id"]
        # grid points added after the freeze join as "new point"; the
        # deep-queue anchor is the only one so far
        new_points = [
            row["id"] for row in rows if row["latencies_identical"] is None
        ]
        assert new_points == ["unexpected/baseline/queue_length=512"]

    def test_cli_compare_fails_on_drift(
        self, baseline_path, before_path, capsys
    ):
        status = bench.main(
            ["--check", str(baseline_path), "--compare", str(before_path)]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "DRIFTED" in out

    def test_cli_speedup_gate_and_markdown_file(
        self, tmp_path, grid_records, baseline_path, capsys, monkeypatch
    ):
        # the "fresh" run is the recorded one, so the gate sees exactly a
        # 2.00x speedup on point 0 whatever the host's speed right now
        monkeypatch.setattr(
            bench, "run_grid", lambda: json.loads(json.dumps(grid_records))
        )
        grid = [json.loads(json.dumps(record)) for record in grid_records]
        grid[0]["events_per_sec"] /= 2
        before = tmp_path / "before_clean.json"
        before.write_text(
            json.dumps({"version": bench.BASELINE_VERSION, "grid": grid})
        )
        table_path = tmp_path / "table.md"
        argv = [
            "--check", str(baseline_path),
            "--compare", str(before),
            "--markdown", str(table_path),
            "--require-speedup", "1.5",
        ]
        assert bench.main(argv) == 0
        assert "speedup gate passed" in capsys.readouterr().out
        assert table_path.read_text().startswith("| grid point |")
        assert bench.main(argv[:-2] + ["--require-speedup", "1000"]) == 1
        assert "speedup gate FAILED" in capsys.readouterr().out
