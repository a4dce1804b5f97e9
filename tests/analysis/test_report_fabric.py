"""Run-report rendering of the fabric section (heatmap + tables).

Renders real multi-rank halo runs -- a contended 16-rank torus3d incast
and a 2-rank crossbar -- through every output format and checks that the
three renderings (JSON document, terminal text, HTML) agree on the
fabric totals, that the heatmap names the hotspot, and that fabrics
without a grid shape (crossbar) or without a snapshot at all still
render.  The incast report must also carry the link watchdogs' findings
and per-hop wire segments that telescope.  The report CLI runs the same
incast live, re-renders its saved report byte-identical, and renders
one row of a ``fabric=True`` sweep dump.
"""

import html as html_mod
import json

import pytest

from repro.analysis.attribution import link_budgets
from repro.analysis.report import (
    REPORT_VERSION,
    SECTIONS,
    ReportError,
    hottest_links,
    load_report,
    main,
    render_html,
    render_text,
    run_report,
    sections,
)
from repro.obs.health import has_finding
from repro.obs.telemetry import Telemetry
from repro.workloads.halo import HaloParams, run_halo
from repro.workloads.sweep import SweepSpec, dump_telemetry, nic_preset, run_sweep
from tests.network.segments import wire_segments


def _run(**params):
    telemetry = Telemetry(
        tracing=True, timeline=True, health=True, fabric=True
    )
    run_halo(nic_preset("alpu128"), HaloParams(**params), telemetry=telemetry)
    return telemetry


def _empty_report(**sections):
    """A v4 run-report document with every section off but ``sections``."""
    return {"version": REPORT_VERSION, **dict.fromkeys(SECTIONS), **sections}


@pytest.fixture(scope="module")
def hotspot_run():
    """16-rank torus3d halo with incast contention toward rank 0."""
    return _run(
        ranks=16,
        topology="torus3d",
        message_size=512,
        iterations=3,
        warmup=1,
        hotspot_rank=0,
    )


@pytest.fixture(scope="module")
def hotspot_report(hotspot_run):
    return run_report(hotspot_run)


@pytest.fixture(scope="module")
def crossbar_report():
    """The degenerate fabric: 2 ranks, one direct channel each way."""
    return run_report(
        _run(ranks=2, topology="crossbar", message_size=256, iterations=2, warmup=1)
    )


class TestIncastDiagnosis:
    def test_incast_trips_both_link_watchdogs(self, hotspot_report):
        findings = hotspot_report["health"]["findings"]
        assert has_finding(findings, "hotspot_link"), findings
        assert has_finding(findings, "link_contention"), findings

    def test_wire_segments_telescope(self, hotspot_run):
        # wire_segments asserts, per traversal, that the per-hop budget
        # sums exactly to the segment's span
        segments = sum(
            len(wire_segments(lifecycle))
            for lifecycle in hotspot_run.lifecycles()
            if lifecycle.complete
        )
        assert segments > 0

    def test_report_keeps_the_folds_not_the_lifecycles(
        self, hotspot_run, hotspot_report
    ):
        assert "lifecycles" not in hotspot_report
        assert hotspot_report["link_budgets"] == link_budgets(
            hotspot_run.lifecycles()
        )
        assert hotspot_report["attribution"]["messages"]


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


class TestSavedDocuments:
    def test_report_without_fabric_renders_unchanged(self, crossbar_report):
        document = dict(crossbar_report, fabric=None)
        assert "\nFabric\n" not in render_text(document)
        assert "<h2>Fabric</h2>" not in render_html(document)

    @pytest.mark.parametrize("version", [1, 2, 3, REPORT_VERSION + 1])
    def test_other_versions_are_refused(self, version, tmp_path):
        path = tmp_path / "old.report.json"
        path.write_text(json.dumps(dict(_empty_report(), version=version)))
        with pytest.raises(ReportError, match=f"v{version} dump"):
            load_report(str(path))

    def test_a_report_missing_a_section_is_refused(self, tmp_path):
        document = _empty_report(metrics={})
        del document["link_budgets"]
        path = tmp_path / "partial.report.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ReportError, match="no link_budgets"):
            load_report(str(path))


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
        with pytest.raises(ReportError, match="reads only"):
            main(["--input", str(path), "--row", "0"])

    def test_profile_without_handler_seconds_is_a_report_error(self, tmp_path):
        path = tmp_path / "bad.report.json"
        profile = {"events": 10, "events_per_sec": 100.0}
        path.write_text(json.dumps(_empty_report(metrics={}, profile=profile)))
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
        assert document["link_budgets"] == hotspot_report["link_budgets"]

    def test_a_saved_report_renders_like_the_live_run(self, tmp_path, capsys):
        # profile, fabric and lifecycles all ride: the saved document's
        # keys come back name-sorted, so every order must come from the
        # data (handler ranks, stage order), never from dict order
        saved, live_html, saved_html = (
            str(tmp_path / name) for name in ("run.json", "live.html", "saved.html")
        )
        assert main(
            ["--benchmark", "halo", "--preset", "alpu128", "--ranks", "8",
             "--hotspot", "0", "--html", live_html, "--out", saved]
        ) == 0
        live_text = capsys.readouterr().out
        assert main(["--input", saved, "--html", saved_html]) == 0
        saved_text = capsys.readouterr().out
        for title in ("Simulator self-profile", "per-link attribution",
                      "Latency attribution"):
            assert title in live_text
        assert saved_text == live_text
        with open(saved_html, encoding="utf-8") as saved_page, open(
            live_html, encoding="utf-8"
        ) as live_page:
            assert saved_page.read() == live_page.read()

    def test_chrome_needs_a_live_run(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_empty_report(metrics={})))
        with pytest.raises(SystemExit) as exit_info:
            main(["--input", str(path), "--chrome", str(tmp_path / "t.json")])
        assert exit_info.value.code == 2
        assert "--chrome traces a live run" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def sweep_dump(self, tmp_path_factory):
        spec = SweepSpec.preposted(
            ("baseline",), (4,), (1.0,), iterations=2, warmup=1, fabric=True,
            lifecycle=True,
        )
        path = tmp_path_factory.mktemp("sweep") / "fabric.json"
        dump_telemetry(run_sweep(spec), str(path))
        return path

    def test_renders_one_row_of_a_fabric_sweep_dump(self, sweep_dump, capsys):
        assert main(["--input", str(sweep_dump), "--row", "0"]) == 0
        text = capsys.readouterr().out
        assert "preset=baseline" in text and "queue_length=4" in text
        assert "\nFabric\n" in text and "fabric.wire0->1" in text

    def test_a_fabric_row_renders_per_link_attribution(self, sweep_dump, capsys):
        assert main(["--input", str(sweep_dump), "--row", "0"]) == 0
        text = capsys.readouterr().out
        assert "per-link attribution" in text
        assert "Latency attribution" in text

    def test_a_row_without_a_report_is_a_report_error(self, tmp_path):
        path = tmp_path / "bare.json"
        spec = SweepSpec.preposted(("baseline",), (4,), (1.0,), iterations=2, warmup=1)
        dump_telemetry(run_sweep(spec), str(path))
        with pytest.raises(ReportError, match="carries no run report"):
            main(["--input", str(path), "--row", "0"])

    def test_a_bad_row_exits_2(self, sweep_dump, tmp_path, capsys):
        run = tmp_path / "run.json"
        run.write_text(json.dumps(_empty_report(metrics={})))
        for argv, message in (
            (["--input", str(sweep_dump), "--row", "1"], "--row 1 out of range (1 rows"),
            (["--input", str(run), "--row", "0"], "picks a row of a sweep dump"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err
