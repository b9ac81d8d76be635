"""The HTML performance dashboard: one self-contained page."""

from __future__ import annotations

from html.parser import HTMLParser

from repro import obs
from repro.cli import main
from repro.obs.bench import BenchRecord
from repro.obs.dashboard import (
    render_dashboard,
    sparkline_svg,
    waterfall_svg,
    write_dashboard_html,
)
from repro.obs.trace import SpanRecord


class PageAudit(HTMLParser):
    """Collects section ids, tag counts, and external resource refs."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.section_ids = []
        self.tags = []
        self.external_refs = []
        self.ok = False

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        attrs = dict(attrs)
        if tag == "section" and "id" in attrs:
            self.section_ids.append(attrs["id"])
        for key in ("src", "href", "data", "xlink:href"):
            value = attrs.get(key) or ""
            if value.startswith(("http://", "https://", "//")):
                self.external_refs.append((tag, key, value))

    def handle_endtag(self, tag):
        if tag == "html":
            self.ok = True


def audit(html: str) -> PageAudit:
    parser = PageAudit()
    parser.feed(html)
    parser.close()
    return parser


def _span(name, span_id, parent_id=None, start=0.0, end=1.0):
    return SpanRecord(name=name, span_id=span_id, parent_id=parent_id,
                      thread="MainThread", start_s=start, end_s=end)


def _history(values, name="bench.sweep"):
    return [BenchRecord(name=name, value=v, unit="s", run_id=f"r{i}")
            for i, v in enumerate(values)]


class TestSvgBuildingBlocks:
    def test_waterfall_orders_spans_and_colors_by_depth(self):
        svg = waterfall_svg([
            _span("root", 1, start=0.0, end=1.0),
            _span("child", 2, 1, start=0.2, end=0.8),
        ])
        assert svg.startswith("<svg")
        assert "root" in svg and "child" in svg

    def test_waterfall_caps_row_count(self):
        spans = [_span(f"s{i}", i + 1, start=0.0, end=1.0 + i)
                 for i in range(100)]
        svg = waterfall_svg(spans)
        # The cap keeps the longest spans; the shortest are dropped.
        assert "s99" in svg
        assert ">s0<" not in svg

    def test_waterfall_empty_spans_renders_placeholder(self):
        svg = waterfall_svg([])
        assert svg.startswith("<svg")
        assert "no finished spans" in svg

    def test_sparkline_plots_a_polyline(self):
        svg = sparkline_svg([1.0, 1.1, 0.9, 1.2], label="bench.sweep")
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_sparkline_single_point(self):
        assert "<svg" in sparkline_svg([1.0])


class TestRenderDashboard:
    def test_empty_dashboard_has_every_section(self):
        page = audit(render_dashboard())
        assert page.ok
        assert page.section_ids == [
            "metrics", "profile", "waterfall", "sparklines", "rooflines",
        ]

    def test_populated_dashboard_embeds_all_panels(self):
        obs.enable_tracing()
        with obs.span("page.root"):
            obs.counter("page.evals").inc()
        spans = obs.get_tracer().finished_spans()
        html = render_dashboard(
            metrics=obs.get_registry().snapshot(),
            profile_nodes=obs.summarize_spans(spans),
            spans=spans,
            history=_history([1.0, 1.1, 0.9]),
        )
        page = audit(html)
        assert page.ok
        assert page.tags.count("svg") >= 2  # flamegraph + waterfall
        assert "page.evals" in html
        assert "bench.sweep" in html

    def test_bucket_histogram_row_uses_the_histogram_quantiles(self):
        latency = obs.bucket_histogram("page.latency_s")
        for value in (0.003, 0.004, 0.02, 7.5):
            latency.record(value)
        obs.bucket_histogram("page.idle_s")
        html = render_dashboard(metrics=obs.get_registry().snapshot())
        assert (f"n=4 sum={latency.total:.6g} "
                f"p50&lt;={latency.quantile(0.5):.6g} "
                f"p99&lt;={latency.quantile(0.99):.6g}") in html
        # An empty histogram has no quantiles to show.
        assert ("<td>page.idle_s</td><td>bucket_histogram</td>"
                '<td class="num">n=0 sum=0</td>') in html

    def test_profile_defaults_to_the_summary_of_the_spans(self):
        obs.enable_tracing()
        with obs.span("page.root"):
            with obs.span("page.child"):
                pass
        html = render_dashboard()
        profile = html.split('<section id="profile">')[1].split(
            "</section>")[0]
        assert "page.root" in profile and "  page.child" in profile

    def test_dashboard_is_self_contained(self):
        html = render_dashboard(history=_history([1.0, 1.1]))
        page = audit(html)
        assert page.external_refs == []
        assert "<script" not in html.lower()
        assert "<link" not in html.lower()

    def test_rooflines_panel_renders_thumbnails(self):
        from repro.obs.dashboard import demo_rooflines

        html = render_dashboard(rooflines=demo_rooflines())
        page = audit(html)
        assert page.ok
        assert page.tags.count("svg") >= 2

    def test_custom_title_is_escaped(self):
        html = render_dashboard(title="a <b> & c")
        assert "a &lt;b&gt; &amp; c" in html


class TestWriteDashboardHtml:
    def test_demo_dashboard_file(self, tmp_path):
        path = tmp_path / "dash.html"
        write_dashboard_html(path)
        page = audit(path.read_text())
        assert page.ok
        assert page.external_refs == []
        assert len(page.section_ids) == 5

    def test_history_feeds_the_sparklines(self, tmp_path):
        from repro.obs.bench import append_history

        history = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(history, _history([1.0, 1.2, 0.8, 1.1]))
        path = tmp_path / "dash.html"
        write_dashboard_html(path, history_path=history)
        assert "bench.sweep" in path.read_text()

    def test_missing_history_is_tolerated(self, tmp_path):
        path = tmp_path / "dash.html"
        write_dashboard_html(path,
                             history_path=tmp_path / "no-such.jsonl")
        assert audit(path.read_text()).ok


class TestDashboardCli:
    def test_report_dashboard_writes_html(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "dashboard", "out.html"]) == 0
        assert "wrote out.html" in capsys.readouterr().out
        page = audit((tmp_path / "out.html").read_text())
        assert page.ok
        assert page.external_refs == []
        assert page.section_ids == [
            "metrics", "profile", "waterfall", "sparklines", "rooflines",
        ]

    def test_report_dashboard_default_filename(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "dashboard"]) == 0
        assert (tmp_path / "dashboard.html").exists()


class TestDashboardEdgeCases:
    def test_zero_worker_fleet_dir_renders_valid_html(self, tmp_path):
        from repro.obs.dashboard import write_fleet_dashboard_html

        telemetry = tmp_path / "shards"
        telemetry.mkdir()
        path = tmp_path / "fleet.html"
        write_fleet_dashboard_html(path, telemetry)
        page = audit(path.read_text())
        assert page.ok
        assert page.external_refs == []
        assert "fleet" in page.section_ids

    def test_empty_registry_serve_tab_renders_valid_html(self):
        from repro.obs.dashboard import render_serve_dashboard

        html = render_serve_dashboard(metrics={}, slo={})
        page = audit(html)
        assert page.ok
        assert page.external_refs == []
        assert "<script" not in html.lower()
        assert 'http-equiv="refresh"' in html
        assert "no metrics collected" in html
        assert "no SLO report" in html

    def test_serve_tab_renders_scraped_snapshot(self):
        from repro.obs.dashboard import render_serve_dashboard
        from repro.obs.expo import parse_exposition, render_exposition
        from repro.obs.slo import (
            SLOEvent,
            default_objectives,
            evaluate_slos,
        )

        obs.counter("serve.http.requests",
                    labels={"endpoint": "/eval", "outcome": "ok"}).inc(4)
        obs.bucket_histogram("serve.request.seconds").record(0.01)
        snapshot = parse_exposition(render_exposition())
        slo = evaluate_slos(
            default_objectives(),
            [SLOEvent(ts=1e9, ok=True, latency_s=0.01)],
            now=1e9,
        )
        html = render_serve_dashboard(
            metrics=snapshot, slo=slo, url="http://127.0.0.1:1",
            refresh_s=2.5,
        )
        page = audit(html)
        assert page.ok
        assert 'content="2.5"' in html
        assert "serve_http_requests" in html
        assert "within budget" in html
