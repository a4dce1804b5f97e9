"""Run-report rendering of the fabric section (heatmap + per-link table).

Renders real multi-rank halo runs -- a contended 16-rank torus3d incast
and a 2-rank crossbar -- through every output format and checks that the
three renderings (JSON document, terminal text, HTML) agree on the
fabric totals, that the heatmap names the hotspot, and that fabrics
without a grid shape (crossbar) or without a snapshot at all (legacy
reports) still render.  The incast report must also carry the link
watchdogs' findings and per-hop wire segments that telescope.
"""

import html as html_mod
import json

import pytest

from repro.analysis.attribution import wire_segments
from repro.analysis.report import (
    ReportError,
    hottest_links,
    load_report,
    main,
    render_html,
    render_text,
)
from repro.obs.health import has_finding
from repro.obs.recorder import MessageLifecycle
from repro.obs.telemetry import Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import dump_telemetry, nic_preset


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
        assert "fabric:" in text
        assert "node heatmap" not in text


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
        assert "fabric:" not in render_text(document)
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

    def test_profile_without_handler_seconds_is_a_report_error(self, tmp_path):
        path = tmp_path / "bad.report.json"
        profile = {"events": 10, "events_per_sec": 100.0}
        path.write_text(
            json.dumps({"version": 3, "metrics": {}, "profile": profile})
        )
        with pytest.raises(ReportError, match="handler_seconds"):
            render_text(load_report(str(path)))
