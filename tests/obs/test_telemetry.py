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
from repro.analysis.report import ReportError
from repro.mpi.world import MpiWorld
from repro.obs import REPORT_VERSION, Telemetry, TelemetryReuseError
from repro.workloads.pingpong import PingPongParams, run_pingpong
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import SweepSpec, dump_telemetry, nic_preset, run_sweep
from repro.workloads.unexpected import UnexpectedParams, run_unexpected

FAST = dict(iterations=4, warmup=1)


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
        assert t1.chrome_trace() == t2.chrome_trace()


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
        assert telemetry.chrome_trace()["traceEvents"] == []
        # tracing is the stream's one switch: off, no lifecycles either
        assert telemetry.lifecycles() == []
        assert telemetry.report()["lifecycles"] is None

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
        snapshot = rows[0].metrics
        # the issue's acceptance criterion: nonzero ALPU match count and
        # posted-queue depth samples on a Figure-5 sweep row
        assert snapshot["nic1.alpu.posted/match_successes"] > 0
        assert snapshot["nic1.postedRecvQ/depth_samples"]["count"] > 0
        assert snapshot["fabric/packets"] > 0

    def test_telemetry_off_rows_have_no_metrics(self):
        rows = run_sweep(
            SweepSpec.preposted(["baseline"], [4], [1.0], iterations=2, warmup=1)
        )
        assert rows[0].metrics is None

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
        depth = mean_sampled_depth(
            report["rows"][0]["metrics"], "nic1.postedRecvQ"
        )
        assert depth > 0
        # counters flatten, histograms read back via their mean
        assert metric_value(report["rows"][0]["metrics"], "missing") is None

    def test_load_report_reads_every_dump_version(self, rows, tmp_path):
        """v1 (unversioned, no health) and v2 rows keep their parameters
        as top-level keys; v3 nests them under ``params``/``extra``.  All
        three load, the metric/health helpers read them alike, and a
        newer dump is refused."""
        legacy_row = {
            "preset": "alpu256",
            "queue_length": 16,
            "traverse_fraction": 1.0,
            "message_size": 0,
            "latency_ns": rows[0].latency_ns,
            "metrics": rows[0].metrics,
        }
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps({"meta": {}, "rows": [legacy_row]}))
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps({
            "version": 2,
            "meta": {},
            "rows": [{**legacy_row, "attribution": None, "health": rows[0].health}],
        }))
        v3 = tmp_path / "v3.json"
        dump_telemetry(rows, str(v3))
        name = "nic1.alpu.posted/match_successes"
        for path, version in ((v1, 1), (v2, 2), (v3, REPORT_VERSION)):
            report = load_report(str(path))
            assert report["version"] == version
            assert metric_across_rows(report["rows"], name) == [
                rows[0].metrics[name]
            ]
            assert row_verdict(report["rows"][0]) == "healthy"
            assert healthy_rows(report["rows"]) == report["rows"]
        (row,) = load_report(str(v3))["rows"]
        assert row["params"]["queue_length"] == 16 and row["extra"] == {}
        v4 = tmp_path / "v4.json"
        v4.write_text(json.dumps({"version": REPORT_VERSION + 1, "rows": []}))
        with pytest.raises(ReportError, match="understands up to v3"):
            load_report(str(v4))

    def test_sweep_dumps_and_run_reports_share_one_loader(self, rows, tmp_path):
        dump = tmp_path / "sweep.json"
        dump_telemetry(rows, str(dump))
        run = tmp_path / "run.json"
        _, telemetry = run_traced_pingpong()
        run.write_text(json.dumps(telemetry.report()))
        sweep_dump, run_report = load_report(str(dump)), load_report(str(run))
        assert sweep_dump["version"] == run_report["version"] == REPORT_VERSION
        assert len(sweep_dump["rows"]) == len(rows)
        assert run_report["metrics"] == telemetry.snapshot()

    def test_row_helpers_read_a_run_report_like_a_row(self, tmp_path):
        # both dump kinds carry ``metrics`` and ``health`` in one form
        run = tmp_path / "run.json"
        _, telemetry = run_traced_pingpong()
        run.write_text(json.dumps(telemetry.report()))
        report = load_report(str(run))
        name = "nic1.alpu.posted/match_successes"
        assert telemetry.snapshot()[name] > 0
        assert metric_across_rows([report], name) == [telemetry.snapshot()[name]]
        assert row_verdict(report) == report["health"]["verdict"]
        assert healthy_rows([report]) == (
            [report] if report["health"]["verdict"] == "healthy" else []
        )

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"nope": 1}, "not a telemetry dump"),
            ([], "not a telemetry dump"),
            ({"version": "3", "rows": []}, "non-integer version"),
            ({"version": None, "rows": []}, "non-integer version"),
            ({"version": 3, "rows": 5}, "'rows' must be a list"),
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
        assert telemetry.report()["fabric"] == {"packets_injected": 7}

    def test_fabric_off_or_unattached_reports_none(self):
        # off: even a bound source stays silent
        off = Telemetry(fabric=False)
        off.bind_world(lambda: {"packets_injected": 7})
        assert off.fabric_snapshot() is None
        assert off.report()["fabric"] is None
        # on but no world bound
        assert Telemetry(fabric=True).report()["fabric"] is None

    def test_end_to_end_snapshot_rides_a_real_run(self):
        telemetry = Telemetry(fabric=True)
        run_pingpong(
            nic_preset("alpu128"), PingPongParams(**FAST), telemetry=telemetry
        )
        fabric = telemetry.report()["fabric"]
        assert fabric["packets_injected"] > 0
        assert fabric["packets_injected"] == fabric["packets_delivered"]
