"""Docs-vs-code synchronization guards.

`docs/api.md` is generated from the packages' ``__all__`` exports;
this test regenerates it in memory and fails with a diff-ready message
when the file has drifted.  (Regenerate with
``python -m tests.test_docs_sync`` from the repo root.)
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"
DOC_PATH = Path(__file__).resolve().parent.parent / "docs" / "api.md"
OBSERVABILITY_PATH = (
    Path(__file__).resolve().parent.parent / "docs" / "observability.md"
)
ARCH_PATH = Path(__file__).resolve().parent.parent / "docs" / "architecture.md"
PROFILING_PATH = Path(__file__).resolve().parent.parent / "docs" / "profiling.md"
TELEMETRY_PATH = Path(__file__).resolve().parent.parent / "docs" / "telemetry.md"
PERFORMANCE_PATH = Path(__file__).resolve().parent.parent / "docs" / "performance.md"
SERVING_PATH = Path(__file__).resolve().parent.parent / "docs" / "serving.md"
MONITORING_PATH = Path(__file__).resolve().parent.parent / "docs" / "monitoring.md"

#: Packages indexed in the public API doc, in presentation order.
PACKAGES = (
    ("repro.core", "The Gables model"),
    ("repro.core.extensions", "Model extensions (Section V and beyond)"),
    ("repro.analysis", "Bottleneck & operational analysis"),
    ("repro.baselines", "Related performance models"),
    ("repro.soc", "SoC descriptions"),
    ("repro.usecases", "Usecases and dataflows"),
    ("repro.sim", "The simulated SoC"),
    ("repro.ert", "Empirical roofline toolkit"),
    ("repro.market", "Market dataset (Figure 2)"),
    ("repro.explore", "Design-space exploration"),
    ("repro.power", "Power and energy"),
    ("repro.viz", "Visualization"),
    ("repro.io", "Serialization"),
    ("repro.obs", "Observability"),
    ("repro.resilience", "Resilience: faults, retries, partial failure"),
    ("repro.serve", "Serving: the HTTP evaluation service"),
)


def generate_api_doc() -> str:
    """Render the API index from the live packages."""
    lines = [
        "# Public API index",
        "",
        "Generated from each package's `__all__`; kept in sync by",
        "`tests/test_docs_sync.py`.  See the docstrings (every public",
        "item has one) for signatures and semantics.  For the batch",
        "evaluation engine and when to use it over the scalar",
        "evaluator, see [performance.md](performance.md); for the",
        "lowered variant pipeline every model variant evaluates",
        "through, see [architecture.md](architecture.md).",
        "",
        "The per-item records `IPTerm`, `SweepPoint` and `GridCell`",
        "are named tuples: read their fields by name, and copy one",
        "with some fields changed by `record._replace(field=...)`.",
        "",
    ]
    for module_name, title in PACKAGES:
        module = importlib.import_module(module_name)
        exports = sorted(getattr(module, "__all__"))
        lines.append(f"## `{module_name}` — {title}")
        lines.append("")
        lines.append(", ".join(f"`{name}`" for name in exports))
        lines.append("")
    return "\n".join(lines)


def test_api_doc_is_current():
    expected = generate_api_doc()
    assert DOC_PATH.exists(), (
        "docs/api.md missing; regenerate with "
        "`python -m tests.test_docs_sync`"
    )
    actual = DOC_PATH.read_text(encoding="utf-8")
    assert actual == expected, (
        "docs/api.md is stale; regenerate with "
        "`python -m tests.test_docs_sync`"
    )


def test_architecture_doc_names_every_variant():
    """docs/architecture.md stays in step with the variant registry:
    every CLI variant name and every load-bearing pipeline symbol must
    appear in the doc."""
    from repro.core.variants import VARIANT_CHOICES

    assert ARCH_PATH.exists(), "docs/architecture.md missing"
    text = ARCH_PATH.read_text(encoding="utf-8")
    anchors = VARIANT_CHOICES + (
        "ModelVariant",
        "LoweredPhase",
        "BusConstraint",
        "RouteSolver",
        "LoweredModel",
        "execute_lowered_phase",
        "evaluate_lowered_batch",
        "evaluate_variant",
        "evaluate_variant_batch",
        "compose_result",
        "variant_from_config",
    )
    missing = [name for name in anchors if name not in text]
    assert not missing, (
        "docs/architecture.md no longer mentions: " + ", ".join(missing)
    )


def test_profiling_doc_names_every_observatory_surface():
    """docs/profiling.md stays in step with the performance
    observatory: every public entry point and CLI surface it documents
    must still appear, and the doc must be cross-linked from the pages
    that feed into it."""
    assert PROFILING_PATH.exists(), "docs/profiling.md missing"
    text = PROFILING_PATH.read_text(encoding="utf-8")
    anchors = (
        "summarize_spans",
        "format_profile",
        "write_profile_json",
        "profile_flame_svg",
        "gables profile",
        "trace export",
        "traceEvents",
        "BENCH_HISTORY.jsonl",
        "bench compare",
        "render_dashboard",
        "write_dashboard_html",
        "report dashboard",
    )
    missing = [name for name in anchors if name not in text]
    assert not missing, (
        "docs/profiling.md no longer mentions: " + ", ".join(missing)
    )
    root = PROFILING_PATH.parent
    for page in ("observability.md", "performance.md", "cli.md"):
        assert "profiling.md" in (root / page).read_text(encoding="utf-8"), (
            f"docs/{page} lost its cross-link to profiling.md"
        )


def span_names_in_src() -> set:
    """Every span name passed as a literal to ``span``/``_span`` in
    ``src/``.  An f-string name shows its placeholders as ``<expr>``:
    ``f"report.{experiment}"`` reads ``report.<experiment>``."""
    names = set()
    for path in SRC_ROOT.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else (
                getattr(func, "id", "")
            )
            if called not in ("span", "_span"):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                names.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                names.add("".join(
                    part.value if isinstance(part, ast.Constant)
                    else f"<{ast.unparse(part.value)}>"
                    for part in name.values
                ))
    return names


def test_observability_doc_tables_every_span():
    """docs/observability.md has one table of every span the library
    opens; each span-name literal in src/ needs its row."""
    names = span_names_in_src()
    assert {"core.evaluate", "cli.<command>", "report.<experiment>"} <= names
    text = OBSERVABILITY_PATH.read_text(encoding="utf-8")
    missing = sorted(name for name in names if f"| `{name}` |" not in text)
    assert not missing, (
        "docs/observability.md's span table lacks: " + ", ".join(missing)
    )


def test_telemetry_doc_names_every_fleet_surface():
    """docs/telemetry.md stays in step with the cross-process layer:
    every public entry point and CLI surface it documents must still
    appear, and the doc must be cross-linked from the pages (and the
    README) that feed into it."""
    assert TELEMETRY_PATH.exists(), "docs/telemetry.md missing"
    text = TELEMETRY_PATH.read_text(encoding="utf-8")
    anchors = (
        "TraceContext",
        "new_context",
        "context_scope",
        "clock_anchor",
        "configure_logging",
        "log_event",
        "read_log_jsonl",
        "summarize_logs",
        "ShardCollector",
        "load_shards",
        "merge_telemetry",
        "merged_chrome_trace",
        "write_merged",
        "straggler_report",
        "run_fleet_sweep",
        "market_spec_population",
        "fleet_bench_records",
        "worker_checkpoint_path",
        "write_fleet_dashboard_html",
        "provenance_key",
        "gables fleet run",
        "telemetry merge",
        "logs summarize",
        "BENCH_HISTORY.jsonl",
    )
    missing = [name for name in anchors if name not in text]
    assert not missing, (
        "docs/telemetry.md no longer mentions: " + ", ".join(missing)
    )
    root = TELEMETRY_PATH.parent
    for page in ("observability.md", "profiling.md", "cli.md"):
        assert "telemetry.md" in (root / page).read_text(encoding="utf-8"), (
            f"docs/{page} lost its cross-link to telemetry.md"
        )
    readme = root.parent / "README.md"
    assert "docs/telemetry.md" in readme.read_text(encoding="utf-8"), (
        "README.md lost its pointer to docs/telemetry.md"
    )


def test_serving_doc_names_every_service_surface():
    """docs/serving.md stays in step with the evaluation service:
    every endpoint, error code family, resilience mechanism, and CLI
    surface it documents must still appear, and the doc must be
    cross-linked from the pages (and the README) that feed into it."""
    assert SERVING_PATH.exists(), "docs/serving.md missing"
    text = SERVING_PATH.read_text(encoding="utf-8")
    anchors = (
        "GablesServer",
        "ServiceClient",
        "error_from_payload",
        "canonical_request_key",
        "HTTP_STATUS_BY_CODE",
        "run_load",
        "/eval",
        "/sweep",
        "/variants",
        "/healthz",
        "/readyz",
        "X-Gables-Request-Id",
        "SERVE_OVERLOADED",
        "SERVE_DEADLINE_EXCEEDED",
        "SERVE_WORKER_CRASHED",
        "SERVE_SHUTTING_DOWN",
        "Retry-After",
        "evaluate_batch",
        "read_jsonl_tolerant",
        "append_jsonl",
        "deadline_s",
        "gables serve",
        "gables client",
        "chaos-default",
        "queue_limit",
        "serve.loadgen.p99",
        "BENCH_HISTORY.jsonl",
    )
    missing = [name for name in anchors if name not in text]
    assert not missing, (
        "docs/serving.md no longer mentions: " + ", ".join(missing)
    )
    root = SERVING_PATH.parent
    for page in ("robustness.md", "cli.md"):
        assert "serving.md" in (root / page).read_text(encoding="utf-8"), (
            f"docs/{page} lost its cross-link to serving.md"
        )
    readme = root.parent / "README.md"
    assert "docs/serving.md" in readme.read_text(encoding="utf-8"), (
        "README.md lost its pointer to docs/serving.md"
    )


def test_monitoring_doc_names_every_telemetry_plane_surface():
    """docs/monitoring.md stays in step with the live telemetry plane:
    every exposition, propagation, and SLO surface it documents must
    still appear, and the doc must be cross-linked from the pages (and
    the README) that feed into it."""
    assert MONITORING_PATH.exists(), "docs/monitoring.md missing"
    text = MONITORING_PATH.read_text(encoding="utf-8")
    anchors = (
        "GET /metrics",
        "render_exposition",
        "parse_exposition",
        "exposition_content_type",
        "BucketHistogram",
        "serve.http.requests",
        "serve.request.seconds",
        "serve.inflight",
        "X-Gables-Trace-Id",
        "X-Gables-Parent-Span",
        "X-Gables-Request-Id",
        "extract_headers",
        "context_scope",
        "SLObjective",
        "BurnWindow",
        "RequestWindow",
        "evaluate_slos",
        "history_events",
        "append_alerts",
        "GET /slo",
        "gables slo check",
        "gables slo dashboard",
        "write_serve_dashboard_html",
        "SLO_BURN_RATE_EXCEEDED",
        "SLO_BAD_OBJECTIVE",
        "OBS_EXPOSITION_MALFORMED",
        "ALERTS.jsonl",
        "BENCH_HISTORY.jsonl",
        "serve.loadgen.p99",
        "default_objectives",
    )
    missing = [name for name in anchors if name not in text]
    assert not missing, (
        "docs/monitoring.md no longer mentions: " + ", ".join(missing)
    )
    root = MONITORING_PATH.parent
    for page in ("observability.md", "serving.md", "telemetry.md",
                 "cli.md"):
        assert "monitoring.md" in (root / page).read_text(
            encoding="utf-8"
        ), f"docs/{page} lost its cross-link to monitoring.md"
    readme = root.parent / "README.md"
    assert "docs/monitoring.md" in readme.read_text(encoding="utf-8"), (
        "README.md lost its pointer to docs/monitoring.md"
    )


def test_performance_doc_names_every_compiler_surface():
    """docs/performance.md stays in step with the kernel compiler:
    every engine tier, fallback rule, and fleet entry point it
    documents must still appear, and the doc must be
    cross-linked from the architecture page and the README."""
    assert PERFORMANCE_PATH.exists(), "docs/performance.md missing"
    text = PERFORMANCE_PATH.read_text(encoding="utf-8")
    anchors = (
        "engine=",
        '"interpreted"',
        '"compiled"',
        '"auto"',
        "compile_phase",
        "CompiledPhaseKernel",
        "FusedBatchResult",
        "run_fleet_grid_sweep",
        "gables fleet run --grid",
        "GridChunkSummary",
        "BENCH_HISTORY.jsonl",
        "bench compare",
        "tests/test_compile.py",
        "benchmarks/test_bench_compile.py",
        "perfbench/run.py",
    )
    missing = [name for name in anchors if name not in text]
    assert not missing, (
        "docs/performance.md no longer mentions: " + ", ".join(missing)
    )
    root = PERFORMANCE_PATH.parent
    assert "performance.md" in ARCH_PATH.read_text(encoding="utf-8"), (
        "docs/architecture.md lost its cross-link to performance.md"
    )
    readme = root.parent / "README.md"
    assert "docs/performance.md" in readme.read_text(encoding="utf-8"), (
        "README.md lost its pointer to docs/performance.md"
    )


def test_every_indexed_package_importable():
    for module_name, _ in PACKAGES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__"):
            assert hasattr(module, name), f"{module_name}.{name}"


if __name__ == "__main__":
    DOC_PATH.write_text(generate_api_doc(), encoding="utf-8")
    print(f"wrote {DOC_PATH}")
