"""End-to-end telemetry: determinism, zero perturbation, coverage.

These are the acceptance tests of the observability layer:

* two identical runs produce *identical* snapshots and traces
  (determinism -- the layer records only simulated state);
* benchmark latencies are bit-identical with telemetry on vs off
  (zero perturbation -- observers never charge simulated time);
* the trace covers the ALPU, NIC and network layers, and a Figure-5
  sweep row's snapshot carries the counters the analysis needs.
"""

import json

import pytest

from repro.analysis import (
    healthy_rows,
    load_report,
    mean_sampled_depth,
    metric_across_rows,
    metric_value,
    row_verdict,
)
from repro.analysis.report import (
    REPORT_VERSION,
    SECTIONS,
    ReportError,
    run_report,
)
from repro.mpi.world import MpiWorld
from repro.obs import Telemetry, TelemetryReuseError
from repro.obs.chrome import to_chrome
from repro.workloads.pingpong import PingPongParams, run_pingpong
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import SweepSpec, dump_telemetry, nic_preset, run_sweep
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

FAST = dict(iterations=4, warmup=1)


def chrome_document(telemetry):
    return to_chrome(telemetry.recorder.records, telemetry.lifecycles())


def run_traced_pingpong():
    telemetry = Telemetry()
    result = run_pingpong(
        nic_preset("alpu256"), PingPongParams(**FAST), telemetry=telemetry
    )
    return result, telemetry


class TestDeterminism:
    def test_identical_runs_identical_snapshots(self):
        _, t1 = run_traced_pingpong()
        _, t2 = run_traced_pingpong()
        assert t1.snapshot() == t2.snapshot()
        assert t1.snapshot()  # non-trivially so

    def test_identical_runs_identical_traces(self):
        _, t1 = run_traced_pingpong()
        _, t2 = run_traced_pingpong()
        # uids are numbered per world, so the records agree uids and all
        assert t1.recorder.records == t2.recorder.records
        assert chrome_document(t1) == chrome_document(t2)


class TestZeroPerturbation:
    def test_preposted_latencies_identical_with_telemetry(self):
        params = PrepostedParams(queue_length=24, traverse_fraction=1.0, **FAST)
        plain = run_preposted(nic_preset("alpu128"), params)
        telemetry = Telemetry()
        traced = run_preposted(nic_preset("alpu128"), params, telemetry=telemetry)
        assert plain.latencies_ns == traced.latencies_ns
        assert plain.entries_traversed == traced.entries_traversed
        assert telemetry.snapshot()

    def test_unexpected_latencies_identical_with_telemetry(self):
        params = UnexpectedParams(queue_length=16, **FAST)
        plain = run_unexpected(nic_preset("baseline"), params)
        traced = run_unexpected(
            nic_preset("baseline"), params, telemetry=Telemetry()
        )
        assert plain.latencies_ns == traced.latencies_ns
        assert plain.entries_traversed == traced.entries_traversed


class TestTraceCoverage:
    def test_trace_spans_alpu_nic_and_network(self):
        _, telemetry = run_traced_pingpong()
        components = {r.component for r in telemetry.recorder.records}
        assert {"nic1.alpu.posted", "nic1", "fabric", "host0"} <= components

    def test_metrics_off_bundle_still_runs(self):
        telemetry = Telemetry(metrics=False, tracing=True)
        run_pingpong(
            nic_preset("alpu256"), PingPongParams(**FAST), telemetry=telemetry
        )
        assert telemetry.snapshot() == {}
        assert telemetry.recorder.records
        # no collectors, so nothing to sample: no probe counter tracks
        assert all(r.kind != "counter" for r in telemetry.recorder.records)

    def test_tracing_off_bundle_still_counts(self):
        telemetry = Telemetry(tracing=False)
        run_pingpong(
            nic_preset("alpu256"), PingPongParams(**FAST), telemetry=telemetry
        )
        assert telemetry.snapshot()["nic1.alpu.posted/match_successes"] > 0
        assert telemetry.recorder is None
        # tracing is the stream's one switch: off, no lifecycles either,
        # so the report folds no attribution
        assert telemetry.lifecycles() == []
        document = run_report(telemetry)
        assert document["attribution"] is None
        assert document["link_budgets"] is None

    def test_lifecycle_keyword_is_gone(self):
        with pytest.raises(TypeError):
            Telemetry(lifecycle=True)


class TestBundleContract:
    @pytest.mark.parametrize("opt_in", ["timeline", "health"])
    def test_sampled_views_need_metrics(self, opt_in):
        with pytest.raises(ValueError, match="metrics=True"):
            Telemetry(metrics=False, **{opt_in: True})

    def test_a_bundle_serves_one_world(self):
        _, telemetry = run_traced_pingpong()
        before = telemetry.snapshot()
        with pytest.raises(TelemetryReuseError):
            MpiWorld(telemetry=telemetry)
        # rejected before the second world registered anything
        assert telemetry.snapshot() == before
        with pytest.raises(TelemetryReuseError):
            run_pingpong(
                nic_preset("alpu256"), PingPongParams(**FAST), telemetry=telemetry
            )


class TestSweepIntegration:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_sweep(
            SweepSpec.preposted(
                ["alpu256"], [16], [1.0], iterations=4, warmup=1, telemetry=True
            )
        )

    def test_figure5_row_reports_alpu_and_queue_metrics(self, rows):
        snapshot = rows[0].report["metrics"]
        # the issue's acceptance criterion: nonzero ALPU match count and
        # posted-queue depth samples on a Figure-5 sweep row
        assert snapshot["nic1.alpu.posted/match_successes"] > 0
        assert snapshot["nic1.postedRecvQ/depth_samples"]["count"] > 0
        assert snapshot["fabric/packets"] > 0

    def test_telemetry_off_rows_have_no_report(self):
        rows = run_sweep(
            SweepSpec.preposted(["baseline"], [4], [1.0], iterations=2, warmup=1)
        )
        assert rows[0].report is None

    def test_rows_carry_only_the_collectors_asked_for(self, rows):
        (row,) = rows
        assert set(row.report) == {"version", *SECTIONS}
        # telemetry=True: metrics, timeline and health; no stream, no
        # fabric, no profile
        assert row.report["health"]["verdict"] == "healthy"
        assert row.report["timeline"]["series"]
        for section in ("attribution", "link_budgets", "fabric", "profile"):
            assert row.report[section] is None
        assert row.report["meta"] == {
            "benchmark": "preposted", "preset": "alpu256", **row.params
        }

    def test_report_round_trip_and_analysis_helpers(self, rows, tmp_path):
        path = tmp_path / "report.json"
        dump_telemetry(rows, str(path), benchmark="preposted")
        report = load_report(str(path))
        assert report["meta"] == {"benchmark": "preposted"}
        assert len(report["rows"]) == len(rows)
        (successes,) = metric_across_rows(
            report["rows"], "nic1.alpu.posted/match_successes"
        )
        assert successes > 0
        metrics = report["rows"][0]["report"]["metrics"]
        depth = mean_sampled_depth(metrics, "nic1.postedRecvQ")
        assert depth > 0
        # counters flatten, histograms read back via their mean
        assert metric_value(metrics, "missing") is None

    @pytest.mark.parametrize("version", [None, 2, 3, REPORT_VERSION + 1])
    @pytest.mark.parametrize("body", ["rows", "run"])
    def test_load_report_reads_only_the_current_version(
        self, rows, tmp_path, version, body
    ):
        """Unversioned (v1), v2, v3 and newer dumps are refused; the
        current one loads and the row helpers read its rows."""
        path = tmp_path / "dump.json"
        dump_telemetry(rows, str(path))
        name = "nic1.alpu.posted/match_successes"
        current = load_report(str(path))
        assert current["version"] == REPORT_VERSION
        assert metric_across_rows(current["rows"], name) == [
            rows[0].report["metrics"][name]
        ]
        document = current if body == "rows" else rows[0].report
        stale = dict(document, version=version)
        if version is None:
            del stale["version"]
        path.write_text(json.dumps(stale))
        with pytest.raises(ReportError, match="non-integer version|reads only v4"):
            load_report(str(path))

    def test_sweep_dumps_and_run_reports_share_one_loader(self, rows, tmp_path):
        dump = tmp_path / "sweep.json"
        dump_telemetry(rows, str(dump))
        run = tmp_path / "run.json"
        _, telemetry = run_traced_pingpong()
        run.write_text(json.dumps(run_report(telemetry)))
        sweep_dump, run_doc = load_report(str(dump)), load_report(str(run))
        assert sweep_dump["version"] == run_doc["version"] == REPORT_VERSION
        assert len(sweep_dump["rows"]) == len(rows)
        assert run_doc["metrics"] == telemetry.snapshot()
        # a row carries the same document a run report is
        assert set(sweep_dump["rows"][0]["report"]) == set(run_doc)

    def test_row_helpers_read_each_rows_report(self, rows, tmp_path):
        path = tmp_path / "sweep.json"
        dump_telemetry(rows, str(path))
        loaded = load_report(str(path))["rows"]
        (row,) = loaded
        assert row_verdict(row) == row["report"]["health"]["verdict"]
        assert healthy_rows(loaded) == (
            loaded if row_verdict(row) == "healthy" else []
        )
        # a row without a report reads as healthy, with no metrics
        bare = dict(row, report=None)
        assert row_verdict(bare) == "healthy"
        assert metric_across_rows([bare], "engine/events") == [None]

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"version": REPORT_VERSION, "nope": 1}, "not a run report"),
            ([], "not a telemetry dump"),
            ({"version": "3", "rows": []}, "non-integer version"),
            ({"version": None, "rows": []}, "non-integer version"),
            ({"version": REPORT_VERSION, "rows": 5}, "'rows' must be a list"),
            ({"version": "3", "metrics": {}}, "non-integer version"),
            ({"version": None, "metrics": {}}, "non-integer version"),
        ],
        ids=[
            "no-body",
            "not-an-object",
            "sweep-string-version",
            "sweep-null-version",
            "sweep-rows-not-a-list",
            "run-string-version",
            "run-null-version",
        ],
    )
    def test_load_report_rejects_non_reports(self, document, message, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ReportError, match=message):
            load_report(str(path))


class TestChromeExportEndToEnd:
    def test_written_trace_is_valid_and_covers_layers(self, tmp_path):
        _, telemetry = run_traced_pingpong()
        path = tmp_path / "pp.trace.json"
        written = telemetry.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert doc == written
        events = doc["traceEvents"]
        assert events
        categories = {e["cat"] for e in events if "cat" in e}
        # the ALPU devices, a NIC queue's search, the fabric, the messages
        assert {
            "nic1.alpu.posted", "nic1.unexpectedQ", "fabric", "lifecycle"
        } <= categories
        # every B has its E on the same track of the same process
        depth = {}
        for ev in events:
            track = (ev["pid"], ev["tid"])
            if ev["ph"] == "B":
                depth[track] = depth.get(track, 0) + 1
            elif ev["ph"] == "E":
                depth[track] = depth.get(track, 0) - 1
                assert depth[track] >= 0
        assert all(d == 0 for d in depth.values())


class TestFabricSection:
    def test_report_carries_the_attached_fabric_snapshot(self):
        telemetry = Telemetry(fabric=True)
        telemetry.bind_world(lambda: {"packets_injected": 7})
        assert telemetry.fabric_snapshot() == {"packets_injected": 7}
        assert run_report(telemetry)["fabric"] == {"packets_injected": 7}

    def test_fabric_off_or_unattached_reports_none(self):
        # off: even a bound source stays silent
        off = Telemetry(fabric=False)
        off.bind_world(lambda: {"packets_injected": 7})
        assert off.fabric_snapshot() is None
        assert run_report(off)["fabric"] is None
        # on but no world bound
        assert run_report(Telemetry(fabric=True))["fabric"] is None

    def test_end_to_end_snapshot_rides_a_real_run(self):
        telemetry = Telemetry(fabric=True)
        run_pingpong(
            nic_preset("alpu128"), PingPongParams(**FAST), telemetry=telemetry
        )
        fabric = run_report(telemetry)["fabric"]
        assert fabric["packets_injected"] > 0
        assert fabric["packets_injected"] == fabric["packets_delivered"]
