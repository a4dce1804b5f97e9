"""Run-report rendering of the fabric section (heatmap + tables).

Renders real multi-rank halo runs -- a contended 16-rank torus3d incast
and a 2-rank crossbar -- through every output format and checks that the
three renderings (JSON document, terminal text, HTML) agree on the
fabric totals, that the heatmap names the hotspot, and that fabrics
without a grid shape (crossbar) or without a snapshot at all (legacy
reports) still render.  The incast report must also carry the link
watchdogs' findings and per-hop wire segments that telescope.  The
report CLI runs the same incast live, and renders one row of a
``fabric=True`` sweep dump.
"""

import html as html_mod
import json

import pytest

from repro.analysis.attribution import link_budgets, wire_segments
from repro.analysis.report import (
    ReportError,
    hottest_links,
    load_report,
    main,
    render_html,
    render_text,
    sections,
)
from repro.obs.health import has_finding
from repro.obs.recorder import MessageLifecycle
from repro.obs.telemetry import REPORT_VERSION, Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import SweepSpec, dump_telemetry, nic_preset, run_sweep


def _run_report(**params):
    telemetry = Telemetry(
        tracing=True, timeline=True, health=True, fabric=True
    )
    run_halo(nic_preset("alpu128"), HaloParams(**params), telemetry=telemetry)
    return telemetry.report()


@pytest.fixture(scope="module")
def hotspot_report():
    """16-rank torus3d halo with incast contention toward rank 0."""
    return _run_report(
        ranks=16,
        topology="torus3d",
        message_size=512,
        iterations=3,
        warmup=1,
        hotspot_rank=0,
    )


@pytest.fixture(scope="module")
def crossbar_report():
    """The degenerate fabric: 2 ranks, one direct channel each way."""
    return _run_report(
        ranks=2, topology="crossbar", message_size=256, iterations=2, warmup=1
    )


class TestIncastDiagnosis:
    def test_incast_trips_both_link_watchdogs(self, hotspot_report):
        findings = hotspot_report["health"]["findings"]
        assert has_finding(findings, "hotspot_link"), findings
        assert has_finding(findings, "link_contention"), findings

    def test_wire_segments_telescope(self, hotspot_report):
        # wire_segments asserts, per traversal, that the per-hop budget
        # sums exactly to the segment's span
        lifecycles = [
            MessageLifecycle.from_obj(obj) for obj in hotspot_report["lifecycles"]
        ]
        segments = sum(
            len(wire_segments(lifecycle))
            for lifecycle in lifecycles
            if lifecycle.complete
        )
        assert segments > 0


class TestHtmlHeatmap:
    def test_fabric_section_renders_with_svg_heatmap(self, hotspot_report):
        html = render_html(hotspot_report)
        assert "<h2>Fabric</h2>" in html
        assert "<svg" in html

    def test_heatmap_names_the_hotspot_link(self, hotspot_report):
        hottest = hottest_links(hotspot_report["fabric"])[0]
        assert hottest["utilization"] > 0
        assert html_mod.escape(hottest["name"]) in render_html(hotspot_report)

    def test_crossbar_renders_without_a_grid(self, crossbar_report):
        # crossbar has no dims, so no heatmap -- but the fabric section,
        # its totals, and the per-link table must still render
        assert crossbar_report["fabric"]["topology"]["dims"] is None
        html = render_html(crossbar_report)
        assert "<h2>Fabric</h2>" in html
        assert "fabric.wire0-&gt;1" in html


class TestTextRendering:
    def test_names_the_hotspot_link(self, hotspot_report):
        text = render_text(hotspot_report)
        assert "hottest link:" in text
        assert hottest_links(hotspot_report["fabric"])[0]["name"] in text

    def test_glyph_heatmap_renders_grid_planes(self, hotspot_report):
        assert "node heatmap" in render_text(hotspot_report)

    def test_crossbar_text_renders(self, crossbar_report):
        text = render_text(crossbar_report)
        assert "\nFabric\n" in text
        assert "node heatmap" not in text

    def test_fabric_section_carries_its_four_parts(self, hotspot_report):
        (fabric,) = [s for s in sections(hotspot_report) if s.title == "Fabric"]
        assert "packets injected" in fabric.lines[0]
        captions = [table.caption for table in fabric.tables]
        assert captions[0] == "per-link traffic"
        assert captions[1].startswith("busiest routes")
        assert captions[2].startswith("per-link attribution")
        links, _, budgets = fabric.tables
        assert len(links.rows) == len(hotspot_report["fabric"]["links"])
        assert budgets.rows[-1][0] == "total"


class TestRenderingsAgree:
    @pytest.mark.parametrize("fixture", ["hotspot_report", "crossbar_report"])
    def test_all_formats_agree_on_totals(self, fixture, request):
        document = request.getfixturevalue(fixture)
        fabric = document["fabric"]
        totals = (
            f"{fabric['packets_injected']} packets injected, "
            f"{fabric['packets_delivered']} delivered"
        )
        assert totals in render_text(document)
        assert totals in render_html(document)
        # and the document itself round-trips through JSON unchanged
        assert json.loads(json.dumps(fabric)) == fabric


class TestLegacyDocuments:
    def test_report_without_fabric_renders_unchanged(self, crossbar_report):
        document = dict(crossbar_report, fabric=None)
        assert "\nFabric\n" not in render_text(document)
        assert "<h2>Fabric</h2>" not in render_html(document)

    def test_load_report_upgrades_older_documents(self, tmp_path):
        path = tmp_path / "v2.report.json"
        path.write_text(
            json.dumps({"version": 2, "meta": {}, "metrics": {}})
        )
        document = load_report(str(path))
        assert document["fabric"] is None
        assert "<h2>Fabric</h2>" not in render_html(document)

    @pytest.mark.parametrize(
        "body", [{"metrics": {}}, {"rows": []}], ids=["run", "sweep"]
    )
    def test_unversioned_document_reads_as_v1(self, body, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(body))
        assert load_report(str(path))["version"] == 1


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "version", ["3", None, True, 3.0], ids=["string", "null", "bool", "float"]
    )
    @pytest.mark.parametrize(
        "body", [{"metrics": {}}, {"rows": []}], ids=["run", "sweep"]
    )
    def test_non_integer_version_is_a_report_error(self, body, version, tmp_path):
        path = tmp_path / "bad.report.json"
        path.write_text(json.dumps({"version": version, **body}))
        with pytest.raises(ReportError, match="non-integer version"):
            load_report(str(path))

    def test_report_cli_rejects_a_sweep_dump(self, tmp_path):
        path = tmp_path / "sweep.json"
        dump_telemetry([], str(path))
        with pytest.raises(ReportError, match="is a sweep dump"):
            main(["--input", str(path)])

    def test_a_newer_sweep_dump_is_refused_even_with_a_row(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": REPORT_VERSION + 1, "rows": [{}]}))
        with pytest.raises(ReportError, match="understands"):
            main(["--input", str(path), "--row", "0"])

    def test_profile_without_handler_seconds_is_a_report_error(self, tmp_path):
        path = tmp_path / "bad.report.json"
        profile = {"events": 10, "events_per_sec": 100.0}
        path.write_text(
            json.dumps({"version": 3, "metrics": {}, "profile": profile})
        )
        with pytest.raises(ReportError, match="handler_seconds"):
            render_text(load_report(str(path)))


class TestCli:
    """The one report CLI on the incast and on a fabric sweep dump."""

    def test_live_incast_matches_the_library_run(self, hotspot_report, capsys):
        assert main(
            ["--benchmark", "halo", "--preset", "alpu128", "--hotspot", "0",
             "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["fabric"] == hotspot_report["fabric"]
        lifecycles = [
            MessageLifecycle.from_obj(obj) for obj in hotspot_report["lifecycles"]
        ]
        assert document["link_budgets"] == link_budgets(lifecycles)

    @pytest.fixture(scope="class")
    def sweep_dump(self, tmp_path_factory):
        spec = SweepSpec.preposted(
            ("baseline",), (4,), (1.0,), iterations=2, warmup=1, fabric=True
        )
        path = tmp_path_factory.mktemp("sweep") / "fabric.json"
        dump_telemetry(run_sweep(spec), str(path))
        return path

    def test_renders_one_row_of_a_fabric_sweep_dump(self, sweep_dump, capsys):
        assert main(["--input", str(sweep_dump), "--row", "0"]) == 0
        text = capsys.readouterr().out
        assert "row=0" in text and "preset=baseline" in text
        assert "\nFabric\n" in text and "fabric.wire0->1" in text

    def test_a_bad_row_exits_2(self, sweep_dump, tmp_path, capsys):
        run = tmp_path / "run.json"
        run.write_text(json.dumps({"metrics": {}}))
        for argv, message in (
            (["--input", str(sweep_dump), "--row", "1"], "--row 1 out of range (1 rows"),
            (["--input", str(run), "--row", "0"], "picks a row of a sweep dump"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err
