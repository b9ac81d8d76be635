"""Observability: tracing, profiling, metrics, provenance, benchmarks.

A dependency-free instrumentation layer threaded through the library's
hot paths (model evaluation, the simulator, ERT and design-space
sweeps, report generation):

- :mod:`.trace` — nestable, thread-safe spans on a process-global
  tracer that is a shared no-op when disabled;
- :mod:`.profile` — profiles as aggregated spans: ``summarize_spans``
  folds any span set into a self / cumulative timing tree, behind
  ``gables profile -- <subcommand>`` and ``gables trace summarize``;
- :mod:`.metrics` — always-on named counters, gauges and mergeable
  bucket histograms;
- :mod:`.provenance` — auditable *explain records* for any
  ``evaluate()``, cross-checked against
  :mod:`repro.analysis.bottleneck`;
- :mod:`.export` — JSONL trace events, Chrome/Perfetto trace export,
  and JSON metrics snapshots;
- :mod:`.bench` — normalized benchmark records, the append-only
  ``BENCH_HISTORY.jsonl`` store, and rolling-median regression
  detection behind ``gables bench compare``;
- :mod:`.dashboard` — the one-page self-contained HTML dashboard
  behind ``gables report dashboard``;
- :mod:`.expo` — Prometheus-style text exposition of the metrics
  registry, served live at ``GET /metrics``;
- :mod:`.slo` — declarative SLOs with multi-window error-budget
  burn-rate alerts behind ``GET /slo`` and ``gables slo check``
  (``docs/monitoring.md``).

Quickstart::

    from repro import obs

    obs.enable_tracing()
    result = evaluate(soc, workload)          # spans + counters recorded
    obs.write_trace_jsonl("trace.jsonl")
    obs.write_trace_chrome("trace.chrome.json")   # open in Perfetto
    spans = obs.get_tracer().finished_spans()
    print(obs.format_profile(obs.summarize_spans(spans)))

Everything here degrades to near-zero overhead when tracing is off —
the benchmark suite holds the instrumented batch kernels within 1% of
un-instrumented throughput.
"""

from .bench import (
    BenchRecord,
    ComparisonReport,
    ComparisonRow,
    append_history,
    compare_runs,
    git_revision,
    host_fingerprint,
    make_record,
    new_run_id,
    read_history,
    rolling_baseline,
)
from .collect import (
    MergedTelemetry,
    ShardCollector,
    TelemetryShard,
    WorkerHealth,
    discover_shards,
    load_shards,
    merge_telemetry,
    merged_chrome_trace,
    read_shard,
    resource_sample,
    straggler_report,
    write_merged,
)
from .context import (
    TraceContext,
    anchor_offset,
    clock_anchor,
    context_scope,
    current_context,
    extract_headers,
    inject_headers,
    new_context,
    new_trace_id,
    reset_context,
    set_context,
)
from .dashboard import (
    fleet_lanes_svg,
    render_dashboard,
    write_dashboard_html,
    write_fleet_dashboard_html,
    write_serve_dashboard_html,
)
from .expo import (
    exposition_content_type,
    parse_exposition,
    render_exposition,
)
from .export import (
    chrome_span_events,
    chrome_trace_events,
    read_trace_jsonl,
    write_metrics_json,
    write_trace_chrome,
    write_trace_jsonl,
)
from .logging import (
    LogRecord,
    StructuredLogger,
    configure_logging,
    format_log_summary,
    get_logger,
    log_event,
    logging_configured,
    read_log_jsonl,
    reset_logging,
    summarize_logs,
    tail_logs,
)
from .metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
    bucket_histogram,
    counter,
    encode_metric_key,
    gauge,
    get_registry,
    merge_snapshots,
    reset_metrics,
)
from .profile import (
    ProfileNode,
    format_profile,
    profile_to_dict,
    summarize_spans,
    trace_total_seconds,
    write_profile_json,
)
from .provenance import (
    ExplainRecord,
    TermExplain,
    explain,
)
from .slo import (
    BurnWindow,
    RequestWindow,
    SLOEvent,
    SLObjective,
    alert_records,
    append_alerts,
    default_objectives,
    evaluate_objective,
    evaluate_slos,
    format_slo_report,
    history_events,
    observe_request,
    read_alerts,
    request_window,
    reset_slo,
)
from .trace import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    reset_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "BenchRecord",
    "BucketHistogram",
    "BurnWindow",
    "ComparisonReport",
    "ComparisonRow",
    "Counter",
    "ExplainRecord",
    "Gauge",
    "LogRecord",
    "MergedTelemetry",
    "MetricsRegistry",
    "ProfileNode",
    "RequestWindow",
    "SLOEvent",
    "SLObjective",
    "ShardCollector",
    "SpanRecord",
    "StructuredLogger",
    "TelemetryShard",
    "TermExplain",
    "TraceContext",
    "Tracer",
    "WorkerHealth",
    "alert_records",
    "anchor_offset",
    "append_alerts",
    "append_history",
    "bucket_histogram",
    "chrome_span_events",
    "chrome_trace_events",
    "clock_anchor",
    "compare_runs",
    "configure_logging",
    "context_scope",
    "counter",
    "current_context",
    "default_objectives",
    "discover_shards",
    "disable_tracing",
    "enable_tracing",
    "encode_metric_key",
    "evaluate_objective",
    "evaluate_slos",
    "explain",
    "exposition_content_type",
    "extract_headers",
    "fleet_lanes_svg",
    "format_log_summary",
    "format_profile",
    "format_slo_report",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "git_revision",
    "history_events",
    "host_fingerprint",
    "inject_headers",
    "load_shards",
    "log_event",
    "logging_configured",
    "make_record",
    "merge_snapshots",
    "merge_telemetry",
    "merged_chrome_trace",
    "new_context",
    "new_run_id",
    "new_trace_id",
    "observe_request",
    "parse_exposition",
    "profile_to_dict",
    "read_alerts",
    "read_history",
    "read_log_jsonl",
    "read_shard",
    "read_trace_jsonl",
    "render_dashboard",
    "render_exposition",
    "request_window",
    "reset_context",
    "reset_logging",
    "reset_metrics",
    "reset_slo",
    "reset_tracing",
    "resource_sample",
    "rolling_baseline",
    "set_context",
    "span",
    "straggler_report",
    "summarize_logs",
    "summarize_spans",
    "tail_logs",
    "trace_total_seconds",
    "tracing_enabled",
    "write_dashboard_html",
    "write_fleet_dashboard_html",
    "write_merged",
    "write_serve_dashboard_html",
    "write_metrics_json",
    "write_profile_json",
    "write_trace_chrome",
    "write_trace_jsonl",
]


def reset_observability() -> None:
    """Reset every process-global collector to pristine.

    The test-suite hook: tracing disabled and emptied,
    every metric zeroed in place (handles stay live), the structured
    logger closed and removed, this thread's trace context dropped,
    and the SLO window cleared.
    """
    reset_tracing()
    reset_metrics()
    reset_logging()
    reset_context()
    reset_slo()


__all__.append("reset_observability")
