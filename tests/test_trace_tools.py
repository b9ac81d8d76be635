"""Trace tooling: Chrome trace-event export and summarize wrapping."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs.trace import SpanRecord
from repro.viz.tables import _wrap_span_rows, trace_summary_table


def _span(name, span_id, parent_id=None, *, thread="MainThread",
          start=0.0, end=1.0, status="ok", attributes=None):
    return SpanRecord(
        name=name, span_id=span_id, parent_id=parent_id, thread=thread,
        start_s=start, end_s=end, status=status,
        attributes=dict(attributes or {}),
    )


def _deep_spans(depth=12, name="pipeline.deeply.nested.stage"):
    """A strictly nested chain of ``depth`` spans, root first."""
    spans = []
    for level in range(depth):
        spans.append(_span(
            f"{name}{level + 1}", span_id=level + 1,
            parent_id=level or None,
            start=0.001 * level, end=1.0 - 0.001 * level,
        ))
    return spans


class TestChromeTraceEvents:
    def test_document_shape(self):
        doc = obs.chrome_trace_events([
            _span("root", 1, start=0.5, end=0.8),
            _span("child", 2, 1, start=0.6, end=0.7),
        ])
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        phases = [event["ph"] for event in doc["traceEvents"]]
        assert phases == ["M", "X", "X"]

    def test_metadata_event_names_the_thread(self):
        doc = obs.chrome_trace_events([_span("root", 1, thread="worker")])
        meta = doc["traceEvents"][0]
        assert meta["name"] == "thread_name"
        assert meta["args"] == {"name": "worker"}
        # Real pid so merged multi-process traces get separate lanes.
        assert meta["pid"] == os.getpid()

    def test_pid_and_process_name_overrides(self):
        doc = obs.chrome_trace_events(
            [_span("root", 1)], pid=4242, process_name="worker w1",
        )
        proc_meta = doc["traceEvents"][0]
        assert proc_meta["name"] == "process_name"
        assert proc_meta["args"] == {"name": "worker w1"}
        assert all(e["pid"] == 4242 for e in doc["traceEvents"])

    def test_chrome_span_events_rebases_onto_shared_clock(self):
        events = obs.chrome_span_events(
            [_span("root", 1, start=2.0, end=3.0)],
            pid=7, clock_offset_s=100.0, t0=101.0,
        )
        span_event = [e for e in events if e["ph"] == "X"][0]
        # (2.0 + 100.0 - 101.0) seconds → 1e6 microseconds.
        assert span_event["ts"] == pytest.approx(1_000_000.0)

    def test_timestamps_are_relative_microseconds(self):
        doc = obs.chrome_trace_events([
            _span("root", 1, start=2.0, end=2.5),
            _span("child", 2, 1, start=2.1, end=2.3),
        ])
        root, child = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert root["ts"] == pytest.approx(0.0)
        assert root["dur"] == pytest.approx(500_000.0)
        assert child["ts"] == pytest.approx(100_000.0)
        assert child["dur"] == pytest.approx(200_000.0)

    def test_args_carry_ids_attributes_and_error_status(self):
        doc = obs.chrome_trace_events([
            _span("root", 7, start=0.0, end=1.0),
            _span("child", 9, 7, status="error",
                  attributes={"points": 10}, start=0.1, end=0.2),
        ])
        root, child = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert root["args"] == {"span_id": 7}
        assert child["args"] == {
            "points": 10, "span_id": 9, "parent_id": 7, "status": "error",
        }
        assert child["cat"] == "repro"

    def test_threads_get_distinct_tids(self):
        doc = obs.chrome_trace_events([
            _span("a", 1, thread="MainThread"),
            _span("b", 2, thread="worker"),
        ])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in events} == {1, 2}

    def test_open_spans_are_dropped(self):
        doc = obs.chrome_trace_events([
            _span("done", 1),
            SpanRecord("open", 2, None, "MainThread", 0.0, end_s=None),
        ])
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["done"]

    def test_non_finite_attributes_become_strict_json(self):
        doc = obs.chrome_trace_events([
            _span("root", 1, attributes={"ratio": float("inf")}),
        ])
        # allow_nan=False is exactly what Perfetto's loader enforces.
        text = json.dumps(doc, allow_nan=False)
        assert json.loads(text)["traceEvents"][1]["args"]["ratio"] == "inf"

    def test_global_tracer_is_the_default_source(self):
        obs.enable_tracing()
        with obs.span("unit.root"):
            pass
        doc = obs.chrome_trace_events()
        assert [e["name"] for e in doc["traceEvents"]] == [
            "thread_name", "unit.root",
        ]

    def test_write_trace_chrome_counts_span_events(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        written = obs.write_trace_chrome(
            path, [_span("root", 1), _span("child", 2, 1)]
        )
        assert written == 2
        doc = json.loads(path.read_text())
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 2


class TestTraceExportCli:
    def _trace_file(self, tmp_path):
        obs.enable_tracing()
        with obs.span("cli.root"):
            with obs.span("cli.child"):
                pass
        path = tmp_path / "run.jsonl"
        obs.write_trace_jsonl(path)
        return path

    def test_export_default_out_path(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path)
        assert main(["trace", "export", str(trace)]) == 0
        out_path = tmp_path / "run.chrome.json"
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "wrote 2 span events" in out
        assert "perfetto" in out.lower()

    def test_export_explicit_out(self, tmp_path):
        trace = self._trace_file(tmp_path)
        dest = tmp_path / "custom.json"
        assert main(["trace", "export", str(trace),
                     "--out", str(dest)]) == 0
        doc = json.loads(dest.read_text())
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert sorted(names) == ["cli.child", "cli.root"]

    def test_export_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "nope.jsonl")]) != 0
        assert "cannot read trace file" in capsys.readouterr().err


class TestSummarizeWrapping:
    def test_narrow_width_wraps_instead_of_truncating(self):
        (root,) = obs.summarize_spans(_deep_spans(12))
        wide = trace_summary_table((root,))
        narrow = trace_summary_table((root,), width=60)
        # Every character of every span name survives the wrap.
        flat = "".join(
            line.split("|")[1].strip()
            for line in narrow.splitlines()[2:]
        )
        for _depth, node in root.walk():
            assert node.name in flat
        assert len(narrow.splitlines()) > len(wide.splitlines())

    def test_unwrapped_when_width_is_none(self):
        (root,) = obs.summarize_spans(_deep_spans(12))
        table = trace_summary_table((root,), width=None)
        # One header row, one rule, one row per tree node — no wraps.
        assert len(table.splitlines()) == 2 + len(list(root.walk()))

    def test_wrap_preserves_indentation_and_blanks_stats(self):
        rows = [("    " + "x" * 200, "1", "0.1", "0.1", "0.0", "50.0")]
        wrapped = _wrap_span_rows(rows, width=60)
        assert len(wrapped) > 1
        head, *rest = wrapped
        assert head[1:] == rows[0][1:]
        for row in rest:
            assert row[0].startswith("    ")
            assert all(cell == "" for cell in row[1:])
        rebuilt = "".join(row[0].lstrip(" ") for row in wrapped)
        assert rebuilt == "x" * 200

    def test_short_rows_pass_through_untouched(self):
        rows = [("root", 1, "0.1", "0.1", "0.1", "100.0")]
        assert _wrap_span_rows(rows, width=80) == rows

    def test_budget_floor_keeps_narrow_terminals_usable(self):
        rows = [("name" * 20, 1, "0.1", "0.1", "0.1", "100.0")]
        wrapped = _wrap_span_rows(rows, width=10)
        assert all(len(row[0]) <= 16 for row in wrapped)

    def test_cli_summarize_wraps_twelve_deep_trace(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        obs.write_trace_jsonl(path, _deep_spans(12))
        assert main(["trace", "summarize", str(path),
                     "--width", "72"]) == 0
        out = capsys.readouterr().out
        table_lines = [row for row in out.splitlines() if row.startswith("|")]
        assert all(len(line) <= 72 for line in table_lines)
        # The deepest span name is intact somewhere in the span column.
        flat = "".join(
            line.split("|")[1].strip() for line in table_lines[2:]
        )
        assert "pipeline.deeply.nested.stage12" in flat

    def test_cli_summarize_honours_explicit_wide_width(self, tmp_path,
                                                       capsys):
        path = tmp_path / "deep.jsonl"
        obs.write_trace_jsonl(path, _deep_spans(12))
        assert main(["trace", "summarize", str(path),
                     "--width", "4000"]) == 0
        out = capsys.readouterr().out
        table_lines = [row for row in out.splitlines() if row.startswith("|")]
        # Wide enough: one row per summary, nothing wrapped.
        assert len(table_lines) == 2 + 12
