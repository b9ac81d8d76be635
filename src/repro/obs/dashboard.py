"""One-page self-contained HTML performance dashboard.

:func:`render_dashboard` folds the observability surfaces — metrics
snapshot, profile tree, span waterfall, benchmark history — plus
roofline thumbnails into a single HTML document with inline CSS and
inline SVG only: no scripts, no network fetches, openable from a file
share or a CI artifact.  ``gables report dashboard out.html`` runs a
small instrumented demo workload (the Figure 6 walkthrough plus a
fraction sweep) when the current process has nothing collected yet, so
the page is never empty.

The ``viz`` package imports ``core`` which imports ``obs``, so this
module must lazy-import ``viz`` inside functions to avoid a cycle.
"""

from __future__ import annotations

import html as _html

from .bench import read_history
from .metrics import bucket_quantile, get_registry
from .profile import format_profile, summarize_spans
from .trace import enable_tracing, get_tracer

#: Cap rendered waterfall rows; beyond this the longest spans win.
MAX_WATERFALL_ROWS = 48

#: Cap sparkline panels (one per timing metric in the history).
MAX_SPARKLINES = 12

#: Cap span bars per worker lane in the fleet view.
MAX_LANE_ROWS = 10

#: Log-tail length in the fleet view.
FLEET_LOG_TAIL = 20

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; color: #0b0b0b; background: #fcfcfb; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #e4e3de; padding-bottom: 0.3rem; }
table { border-collapse: collapse; font-size: 0.85rem; }
th, td { padding: 0.25rem 0.7rem; text-align: left;
         border-bottom: 1px solid #e4e3de; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
pre { background: #f4f3ef; padding: 0.8rem; overflow-x: auto;
      font-size: 0.8rem; }
.spark { display: inline-block; margin: 0.4rem 1rem 0.4rem 0;
         vertical-align: top; font-size: 0.8rem; }
.thumb { display: inline-block; margin: 0.4rem 1rem 0.4rem 0;
         vertical-align: top; }
.empty { color: #52514e; font-style: italic; }
footer { margin-top: 3rem; color: #52514e; font-size: 0.8rem; }
"""


def _span_depths(spans) -> dict:
    by_id = {record.span_id: record for record in spans}
    depths: dict = {}

    def depth_of(record) -> int:
        cached = depths.get(record.span_id)
        if cached is not None:
            return cached
        seen = set()
        depth = 0
        parent_id = record.parent_id
        while parent_id is not None and parent_id in by_id:
            if parent_id in seen:
                break
            seen.add(parent_id)
            depth += 1
            parent_id = by_id[parent_id].parent_id
        depths[record.span_id] = depth
        return depth

    for record in spans:
        depth_of(record)
    return depths


def waterfall_svg(spans, width: int = 960) -> str:
    """Finished spans as a timeline waterfall (one bar per span).

    Bars run from each span's start to its end relative to the earliest
    start; rows follow start order, colors cycle by nesting depth.
    When there are more spans than :data:`MAX_WATERFALL_ROWS`, the
    longest survive (the short ones are exactly the ones a waterfall
    cannot resolve visually anyway).
    """
    from ..viz.svg import SERIES_COLORS, TEXT_PRIMARY, SvgCanvas

    closed = [record for record in spans if record.end_s is not None]
    if not closed:
        canvas = SvgCanvas(width=max(width, 64), height=64)
        canvas.text(12, 36, "no finished spans", size=12)
        return canvas.to_string()
    if len(closed) > MAX_WATERFALL_ROWS:
        keep = set(
            id(r) for r in sorted(
                closed, key=lambda r: -r.duration_s
            )[:MAX_WATERFALL_ROWS]
        )
        closed = [r for r in closed if id(r) in keep]
    closed.sort(key=lambda r: r.start_s)
    depths = _span_depths(closed)
    t0 = min(r.start_s for r in closed)
    t1 = max(r.end_s for r in closed)
    span_s = max(t1 - t0, 1e-12)
    row_h, gap, margin, header = 18, 2, 12, 24
    label_w = 220
    height = header + len(closed) * (row_h + gap) + margin
    canvas = SvgCanvas(width=max(width, 64), height=max(height, 64))
    plot_w = canvas.width - margin - label_w - margin
    canvas.text(margin, header - 8,
                f"{len(closed)} spans over {span_s:.6f}s",
                color=TEXT_PRIMARY, size=12, weight="bold")
    for row, record in enumerate(closed):
        y = header + row * (row_h + gap)
        depth = depths[record.span_id]
        label = ("  " * min(depth, 8)) + record.name
        if len(label) > 34:
            label = label[:33] + "…"
        canvas.text(margin, y + row_h - 5, label, size=10)
        x = margin + label_w + plot_w * (record.start_s - t0) / span_s
        bar_w = max(1.0, plot_w * record.duration_s / span_s)
        canvas.rect(
            x, y, bar_w, row_h,
            SERIES_COLORS[depth % len(SERIES_COLORS)],
            tooltip=(f"{record.name}: {record.duration_s:.6f}s "
                     f"(thread {record.thread}, status {record.status})"),
        )
    return canvas.to_string()


def sparkline_svg(values, width: int = 180, height: int = 40,
                  label: str = "") -> str:
    """A tiny trend line for one metric's history (newest right)."""
    from ..viz.svg import SERIES_COLORS, SvgCanvas

    values = [float(v) for v in values]
    canvas = SvgCanvas(width=max(width, 64), height=max(height, 64))
    if not values:
        return canvas.to_string()
    margin = 6
    lo, hi = min(values), max(values)
    spread = (hi - lo) or 1.0
    plot_w = canvas.width - 2 * margin
    plot_h = canvas.height - 2 * margin
    step = plot_w / max(len(values) - 1, 1)
    points = [
        (margin + i * step,
         margin + plot_h * (1.0 - (v - lo) / spread))
        for i, v in enumerate(values)
    ]
    if len(points) == 1:
        points = [points[0], (points[0][0] + 1, points[0][1])]
    canvas.polyline(points, SERIES_COLORS[0], width=1.5,
                    tooltip=label or None)
    canvas.circle(points[-1][0], points[-1][1], r=2.5,
                  color=SERIES_COLORS[5])
    return canvas.to_string()


def _metrics_section(snapshot) -> str:
    if not snapshot:
        return '<p class="empty">no metrics collected</p>'
    rows = []
    for name, entry in sorted(snapshot.items()):
        kind = entry.get("type", "?")
        if kind == "bucket_histogram":
            count = entry.get("count", 0)
            buckets = entry.get("buckets", ())
            value = f"n={count} sum={entry.get('sum', 0.0):.6g}"
            if count and buckets:  # no quantiles without observations
                p50, p99 = (
                    bucket_quantile(entry.get("bounds", ()), buckets,
                                    count, entry.get("max"), q)
                    for q in (0.50, 0.99)
                )
                value += f" p50<={p50:.6g} p99<={p99:.6g}"
        else:
            value = f"{entry.get('value', 0):.6g}"
        rows.append(
            f"<tr><td>{_html.escape(name)}</td>"
            f"<td>{_html.escape(kind)}</td>"
            f'<td class="num">{_html.escape(value)}</td></tr>'
        )
    return ("<table><tr><th>metric</th><th>type</th><th>value</th></tr>"
            + "".join(rows) + "</table>")


def _profile_section(nodes) -> str:
    from ..viz.flamegraph import profile_flame_svg

    nodes = tuple(nodes)
    if not nodes:
        return '<p class="empty">no spans recorded</p>'
    tree = _html.escape(format_profile(nodes))
    flame = profile_flame_svg(nodes, width=960)
    return f"<pre>{tree}</pre>{flame}"


def _sparkline_section(history) -> str:
    timings = [r for r in history if r.unit == "s"]
    if not timings:
        return ('<p class="empty">no benchmark history '
                "(run the benchmark suite to populate "
                "BENCH_HISTORY.jsonl)</p>")
    series: dict = {}
    for record in timings:
        series.setdefault(record.name, []).append(record.value)
    parts = []
    for name in sorted(series)[:MAX_SPARKLINES]:
        values = series[name]
        parts.append(
            '<span class="spark">'
            f"{sparkline_svg(values, label=name)}<br>"
            f"{_html.escape(name)}: {values[-1]:.6g}s "
            f"({len(values)} runs)</span>"
        )
    dropped = len(series) - min(len(series), MAX_SPARKLINES)
    if dropped:
        parts.append(f'<p class="empty">({dropped} more metrics in the '
                     "history file)</p>")
    return "".join(parts)


def fleet_lanes_svg(shards, width: int = 960) -> str:
    """Per-worker span lanes on one shared wall-clock axis.

    Each worker (telemetry shard) gets a band; inside it, that
    worker's longest spans (up to :data:`MAX_LANE_ROWS`) are drawn as
    bars, timestamps rebased through the shard's clock anchor so the
    lanes line up the way the merged Perfetto trace does.
    """
    from ..viz.svg import SERIES_COLORS, TEXT_PRIMARY, SvgCanvas
    from .context import anchor_offset

    lanes = []
    for shard in shards:
        offset = anchor_offset(shard.anchor)
        spans = [
            (record.start_s + offset, record.end_s + offset, record)
            for record in shard.spans if record.end_s is not None
        ]
        spans.sort(key=lambda item: -(item[1] - item[0]))
        spans = sorted(spans[:MAX_LANE_ROWS], key=lambda item: item[0])
        lanes.append((shard, spans))
    all_spans = [item for _, spans in lanes for item in spans]
    if not all_spans:
        canvas = SvgCanvas(width=max(width, 64), height=64)
        canvas.text(12, 36, "no worker spans", size=12)
        return canvas.to_string()
    t0 = min(start for start, _, _ in all_spans)
    t1 = max(end for _, end, _ in all_spans)
    total_s = max(t1 - t0, 1e-12)
    row_h, gap, margin, header, lane_pad = 14, 2, 12, 24, 10
    label_w = 200
    height = header + margin
    for _, spans in lanes:
        height += lane_pad + max(len(spans), 1) * (row_h + gap)
    canvas = SvgCanvas(width=max(width, 64), height=max(height, 64))
    plot_w = canvas.width - margin - label_w - margin
    canvas.text(margin, header - 8,
                f"{len(lanes)} worker lanes over {total_s:.6f}s",
                color=TEXT_PRIMARY, size=12, weight="bold")
    y = header
    for lane_index, (shard, spans) in enumerate(lanes):
        y += lane_pad
        label = f"worker {shard.worker_id} (pid {shard.pid})"
        canvas.text(margin, y + row_h - 4, label, size=10,
                    color=TEXT_PRIMARY, weight="bold")
        color = SERIES_COLORS[lane_index % len(SERIES_COLORS)]
        for row, (start, end, record) in enumerate(spans):
            bar_y = y + row * (row_h + gap)
            x = margin + label_w + plot_w * (start - t0) / total_s
            bar_w = max(1.0, plot_w * (end - start) / total_s)
            canvas.rect(
                x, bar_y, bar_w, row_h, color,
                tooltip=(f"{shard.worker_id}: {record.name} "
                         f"{end - start:.6f}s"),
            )
        y += max(len(spans), 1) * (row_h + gap)
    return canvas.to_string()


def _fleet_health_table(shards) -> str:
    from .collect import straggler_report

    rows = []
    for health in straggler_report(shards):
        rss = "-" if health.rss_kb is None else f"{health.rss_kb}"
        verdict = "STRAGGLER" if health.straggler else "ok"
        rows.append(
            f"<tr><td>{_html.escape(health.worker_id)}</td>"
            f'<td class="num">{health.shard}</td>'
            f'<td class="num">{health.pid}</td>'
            f'<td class="num">{health.heartbeats}</td>'
            f'<td class="num">{health.wall_s:.3f}</td>'
            f'<td class="num">{health.cpu_s:.3f}</td>'
            f'<td class="num">{rss}</td>'
            f"<td>{verdict}</td></tr>"
        )
    return (
        "<table><tr><th>worker</th><th>shard</th><th>pid</th>"
        "<th>heartbeats</th><th>wall (s)</th><th>cpu (s)</th>"
        "<th>peak rss (kB)</th><th>verdict</th></tr>"
        + "".join(rows) + "</table>"
    )


def _fleet_log_tail(merged) -> str:
    from .logging import tail_logs

    tail = tail_logs(merged.logs, FLEET_LOG_TAIL)
    if not tail:
        return '<p class="empty">no structured log records</p>'
    lines = []
    for record in tail:
        extra = ""
        if record.fields:
            extra = " " + " ".join(
                f"{key}={value}" for key, value in sorted(record.fields.items())
            )
        lines.append(
            f"{record.ts:.3f} {record.level:<7} [{record.worker_id or '-'}] "
            f"{record.event}{(' ' + record.message) if record.message else ''}"
            f"{extra}"
        )
    return f"<pre>{_html.escape(chr(10).join(lines))}</pre>"


def _fleet_section(merged) -> str:
    """The fleet tab: lanes, health table, merged flamegraph, log tail."""
    from ..viz.flamegraph import profile_flame_svg

    summary = merged.summary()
    trace = summary["trace_id"][:12] or "<none>"
    headline = (
        f"fleet run {summary['fleet_run_id'] or '<unstamped>'} — "
        f"trace {trace}…, "
        f"{len(summary['workers'])} workers, {summary['spans']} spans, "
        f"{summary['log_records']} log records"
    )
    if merged.profile:
        flame = profile_flame_svg(
            merged.profile, width=960, title="merged fleet profile"
        )
    else:
        flame = '<p class="empty">no merged profile</p>'
    return (
        f"<p>{_html.escape(headline)}</p>"
        f"<h3>Worker lanes</h3>{fleet_lanes_svg(merged.shards)}"
        f"<h3>Worker health</h3>{_fleet_health_table(merged.shards)}"
        f"<h3>Merged flamegraph</h3>{flame}"
        f"<h3>Log tail</h3>{_fleet_log_tail(merged)}"
    )


def _roofline_section(rooflines) -> str:
    rooflines = tuple(rooflines)
    if not rooflines:
        return '<p class="empty">no roofline thumbnails</p>'
    return "".join(
        f'<span class="thumb">{svg}<br>{_html.escape(label)}</span>'
        for label, svg in rooflines
    )


def render_dashboard(
    *,
    metrics=None,
    profile_nodes=None,
    spans=None,
    history=(),
    rooflines=(),
    fleet=None,
    title: str = "Gables performance observatory",
) -> str:
    """The one-page dashboard as a self-contained HTML string.

    Every argument defaults to the live global collector (metrics
    registry, tracer; the profile is :func:`summarize_spans` of the
    spans); pass explicit data to render saved artifacts instead.  ``fleet`` is an optional
    :class:`~repro.obs.collect.MergedTelemetry` — when given, a fleet
    health section (per-worker lanes, heartbeat/straggler table, merged
    flamegraph, log tail) renders first.  The output embeds everything
    inline — CSS, SVG, text — and references no external resources.
    """
    if metrics is None:
        metrics = get_registry().snapshot()
    if spans is None:
        spans = get_tracer().finished_spans()
    if profile_nodes is None:
        profile_nodes = summarize_spans(spans)
    fleet_html = ""
    if fleet is not None:
        fleet_html = (
            '<section id="fleet">\n<h2>Fleet</h2>\n'
            f"{_fleet_section(fleet)}\n</section>\n"
        )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_html.escape(title)}</h1>
{fleet_html}<section id="metrics">
<h2>Metrics</h2>
{_metrics_section(metrics)}
</section>
<section id="profile">
<h2>Phase profile</h2>
{_profile_section(profile_nodes)}
</section>
<section id="waterfall">
<h2>Span waterfall</h2>
{waterfall_svg(spans)}
</section>
<section id="sparklines">
<h2>Benchmark history</h2>
{_sparkline_section(history)}
</section>
<section id="rooflines">
<h2>Rooflines</h2>
{_roofline_section(rooflines)}
</section>
<footer>generated offline by the repro observability stack —
no scripts, no network.</footer>
</body>
</html>
"""


def demo_rooflines() -> tuple:
    """Roofline SVG thumbnails for the Figure 6 walkthrough."""
    from ..core.two_ip import FIGURE_6_SEQUENCE
    from ..viz import RooflinePlotData, roofline_svg

    thumbs = []
    for scenario in FIGURE_6_SEQUENCE:
        data = RooflinePlotData.from_model(
            scenario.soc(), scenario.workload()
        )
        thumbs.append((scenario.name, roofline_svg(data, width=300,
                                                   height=220)))
    return tuple(thumbs)


def collect_demo_activity() -> None:
    """Run a small instrumented workload into the global collectors.

    Enables tracing, evaluates the Figure 6 walkthrough
    (base model and the interconnect variant) and a 9-point fraction
    sweep, so a fresh process still renders a populated dashboard.
    Collection stays enabled so the caller's own activity keeps
    accumulating; callers that care should reset afterwards.
    """
    from ..core import evaluate, evaluate_variant, variant_from_config
    from ..core.two_ip import FIGURE_6_SEQUENCE
    from ..explore import sweep_fraction

    enable_tracing()
    for scenario in FIGURE_6_SEQUENCE:
        soc, workload = scenario.soc(), scenario.workload()
        evaluate(soc, workload)
        evaluate_variant(
            soc, workload, variant_from_config("interconnect", soc, None)
        )
    demo = FIGURE_6_SEQUENCE[1]
    sweep_fraction(
        demo.soc(), demo.workload(), 1,
        [k / 8 for k in range(9)],
    )


def write_dashboard_html(path, history_path=None, demo: bool = True) -> str:
    """Render the dashboard to ``path``; returns the HTML written.

    With ``demo`` (the default), an instrumented demo workload runs
    first whenever the global tracer has recorded nothing, so the
    page always has content.  ``history_path`` points at a
    ``BENCH_HISTORY.jsonl`` file (missing file -> empty trend section).
    """
    if demo and not get_tracer().finished_spans():
        collect_demo_activity()
    history: tuple = ()
    if history_path is not None:
        try:
            history = read_history(history_path)
        except OSError:
            history = ()
    document = render_dashboard(history=history, rooflines=demo_rooflines())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return document


def write_fleet_dashboard_html(path, telemetry_dir,
                               history_path=None) -> str:
    """Render a fleet run's merged telemetry to ``path`` as a dashboard.

    Loads every worker shard under ``telemetry_dir``, merges them, and
    renders the dashboard *from the merged view*: the fleet section on
    top, and the metrics / profile / waterfall sections showing the
    merged snapshot, tree, and renumbered spans rather than this
    process's (empty) collectors.
    """
    from .collect import (
        MergedTelemetry,
        discover_shards,
        merge_telemetry,
        read_shard,
    )

    shards = tuple(
        read_shard(d) for d in discover_shards(telemetry_dir)
    )
    if shards:
        merged = merge_telemetry(shards)
    else:
        # Zero workers (an aborted run, an empty directory) still
        # deserves a valid page, not a traceback.
        merged = MergedTelemetry(
            fleet_run_id="", trace_id="", workers=(), spans=(),
            metrics={}, profile=(), logs=(), heartbeats={}, shards=(),
        )
    history: tuple = ()
    if history_path is not None:
        try:
            history = read_history(history_path)
        except OSError:
            history = ()
    document = render_dashboard(
        metrics=merged.metrics,
        profile_nodes=merged.profile,
        spans=merged.spans,
        history=history,
        fleet=merged,
        title="Gables fleet observatory",
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return document


# ---------------------------------------------------------------------
# The live serve tab (scraped from a running gables-serve)
# ---------------------------------------------------------------------


def _http_get(url: str, path: str, *, timeout_s: float = 10.0) -> str:
    """One stdlib GET against a ``gables serve`` endpoint; body text."""
    import http.client

    from ..errors import ObservabilityError

    if url.startswith("http://"):
        netloc = url[len("http://"):]
    elif "://" in url:
        raise ObservabilityError(
            f"only http:// URLs are supported, got {url!r}"
        )
    else:
        netloc = url
    host, _, port = netloc.rstrip("/").partition(":")
    conn = http.client.HTTPConnection(
        host or "127.0.0.1", int(port) if port else 80, timeout=timeout_s
    )
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        if response.status >= 400:
            raise ObservabilityError(
                f"GET {path} on {url} answered {response.status}"
            )
        return response.read().decode("utf-8")
    except OSError as err:
        raise ObservabilityError(
            f"cannot scrape {url}{path}: {err or type(err).__name__}"
        ) from err
    finally:
        conn.close()


def _slo_section(slo: dict) -> str:
    if not slo or not slo.get("objectives"):
        return '<p class="empty">no SLO report</p>'
    from .slo import format_slo_report

    state = (
        f"SLO BREACH — severity {slo.get('severity')}"
        if slo.get("breached") else "all objectives within budget"
    )
    return (
        f"<p><strong>{_html.escape(state)}</strong> "
        f"({slo.get('window_events', 0)} events in window)</p>"
        f"<pre>{_html.escape(format_slo_report(slo))}</pre>"
    )


def render_serve_dashboard(*, metrics=None, slo=None, url: str = "",
                           refresh_s: float = 5.0,
                           title: str = "Gables serve observatory") -> str:
    """The live serve tab as a self-contained auto-refreshing page.

    Same no-scripts rule as :func:`render_dashboard` — the refresh is a
    ``<meta http-equiv="refresh">`` tag, so the page stays openable
    from a file share while tracking a live server when served fresh.
    ``metrics`` is a snapshot-shaped mapping (e.g. from
    :func:`~repro.obs.expo.parse_exposition`), ``slo`` the ``GET /slo``
    report document.
    """
    metrics = metrics or {}
    slo = slo or {}
    source = (
        f"scraped from {_html.escape(url)}" if url else "no live source"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{refresh_s:g}">
<title>{_html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_html.escape(title)}</h1>
<p>{source}; auto-refreshes every {refresh_s:g}s.</p>
<section id="slo">
<h2>SLO error budget</h2>
{_slo_section(slo)}
</section>
<section id="serve-metrics">
<h2>Serve metrics</h2>
{_metrics_section(metrics)}
</section>
<footer>generated by the repro observability stack —
no scripts, refresh via meta tag only.</footer>
</body>
</html>
"""


def write_serve_dashboard_html(path, url: str, *,
                               refresh_s: float = 5.0) -> str:
    """Scrape ``/metrics`` + ``/slo`` from ``url`` and render the serve tab.

    The page auto-refreshes via a meta tag, so pointing a browser at a
    periodically rewritten file (or serving it behind the scraper)
    yields a live view without any client-side code.
    """
    from .expo import parse_exposition

    metrics = parse_exposition(_http_get(url, "/metrics"))
    import json as _json

    slo = _json.loads(_http_get(url, "/slo"))
    document = render_serve_dashboard(
        metrics=metrics, slo=slo, url=url, refresh_s=refresh_s
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return document
