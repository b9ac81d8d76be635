"""CLI-level tests for the observability flags and trace subcommand."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main


class TestTraceFlag:
    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["--trace", str(path), "eval", "--figure", "6b"]) == 0
        err = capsys.readouterr().err
        assert f"wrote 2 trace events to {path}" in err
        compose, event = [json.loads(line) for line in
                          path.read_text().splitlines()]
        # Completion order: the result is composed inside evaluate().
        assert compose["name"] == "core.compose_result"
        assert compose["parent_id"] == event["span_id"]
        assert event["name"] == "core.evaluate"
        assert event["attributes"]["bottleneck"] == "memory"

    def test_trace_flag_accepted_after_subcommand(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["sweep", "--figure", "6b", "--param", "f",
                     "--trace", str(path)]) == 0
        names = {json.loads(line)["name"]
                 for line in path.read_text().splitlines()}
        # The sweep rides the batch engine: one batch span, not one
        # scalar-evaluate span per point.
        assert names == {"explore.sweep", "core.evaluate_batch"}

    def test_tracing_disabled_again_after_run(self, tmp_path):
        assert main(["--trace", str(tmp_path / "t.jsonl"),
                     "eval", "--figure", "6b"]) == 0
        assert not obs.tracing_enabled()

    def test_each_run_gets_a_fresh_trace(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        main(["--trace", str(first), "eval", "--figure", "6b"])
        main(["--trace", str(second), "eval", "--figure", "6b"])
        # The second file must not accumulate the first run's spans.
        assert len(second.read_text().splitlines()) == 2


class TestTraceSummarize:
    def test_summarize_prints_span_tree_table(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        main(["sweep", "--figure", "6b", "--param", "f",
              "--trace", str(path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        # Golden shape: header, tree rows with the child indented,
        # counts, and a 100% root.
        assert "| span | count | total (s) | mean (s) | self (s) " \
               "| % of trace |" in out
        assert "| explore.sweep | 1 |" in out
        assert "|   core.evaluate_batch | 1 |" in out
        assert "| 100.0 |" in out
        assert "2 spans" in out

    def test_summarize_csv_format(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        main(["--trace", str(path), "eval", "--figure", "6b"])
        capsys.readouterr()
        assert main(["trace", "summarize", str(path),
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "span,count,total (s),mean (s),self (s),% of trace" in out
        assert "core.evaluate,1," in out

    def test_summarize_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "summarize", str(path)]) == 0
        assert "no finished spans" in capsys.readouterr().out

    def test_summarize_malformed_trace_errors_cleanly(self, tmp_path,
                                                      capsys):
        from repro.errors import ObservabilityError

        path = tmp_path / "bad.jsonl"
        # Corruption before the last line: a bad *final* line is a torn
        # tail, which the reader drops.
        path.write_text('not json\n{"name": "ok", "span_id": 1, '
                        '"parent_id": null, "thread": "t", "start_s": 0, '
                        '"end_s": 1}\n')
        # The CLI exits with the failing class's status (see
        # repro.errors.exit_code_for), not a blanket 2.
        assert main(
            ["trace", "summarize", str(path)]
        ) == ObservabilityError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestMetricsFlag:
    def test_metrics_flag_writes_snapshot(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["--metrics", str(path),
                     "eval", "--figure", "6b"]) == 0
        assert f"wrote metrics snapshot to {path}" in capsys.readouterr().err
        snapshot = json.loads(path.read_text())
        assert snapshot["core.evaluate.calls"]["value"] >= 1.0

    def test_metrics_capture_sweep_counters(self, tmp_path):
        path = tmp_path / "m.json"
        assert main(["sweep", "--figure", "6b", "--param", "f",
                     "--metrics", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["explore.sweep.points"]["value"] == 9.0


class TestExplainFlag:
    def test_eval_explain_prints_provenance(self, capsys):
        assert main(["eval", "--figure", "6b", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "bound by 'memory'" in out
        assert out.splitlines()[-1] == "audit vs bottleneck analysis: agrees"

    def test_eval_without_explain_is_unchanged(self, capsys):
        assert main(["eval", "--figure", "6b"]) == 0
        assert "audit" not in capsys.readouterr().out


class TestLogging:
    def test_verbose_logs_dispatch_to_stderr(self, capsys):
        assert main(["-v", "presets"]) == 0
        assert "dispatching 'presets'" in capsys.readouterr().err

    def test_quiet_by_default(self, capsys):
        assert main(["presets"]) == 0
        assert "dispatching" not in capsys.readouterr().err

    def test_log_level_flag(self, capsys):
        assert main(["--log-level", "info", "presets"]) == 0
        assert "dispatching 'presets'" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def _restore_logging():
    """main() may reconfigure the root logger; undo it per test."""
    import logging

    yield
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.WARNING)
