"""Benchmark history: records, the JSONL store, regression detection."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs.bench import (
    BenchRecord,
    append_history,
    compare_runs,
    host_fingerprint,
    make_record,
    new_run_id,
    read_history,
    rolling_baseline,
)


def _timing(name, value, run_id):
    return BenchRecord(name=name, value=value, unit="s", run_id=run_id)


def _history(values, name="bench.sweep", prefix="run"):
    """One timing record per run, oldest first."""
    return [
        _timing(name, value, f"{prefix}{index}")
        for index, value in enumerate(values)
    ]


class TestBenchRecord:
    def test_round_trip(self):
        record = make_record(
            "bench.sweep", 0.125, run_id="r1", git_rev="abc1234",
            host={"machine": "x86_64"}, meta={"points": 10_000},
        )
        again = BenchRecord.from_dict(record.to_dict())
        assert again == record
        assert record.to_dict()["schema"] == 1

    def test_from_dict_tolerates_missing_provenance(self):
        record = BenchRecord.from_dict({"name": "bench.x", "value": 1})
        assert record.unit == "s"
        assert record.git_rev == "unknown"
        assert record.host == {}

    def test_empty_name_rejected(self):
        with pytest.raises(ObservabilityError):
            make_record("", 1.0)

    def test_run_id_is_sortable_timestamp(self):
        run_id = new_run_id(now=0)
        assert run_id.startswith("19700101T000000-")

    def test_host_fingerprint_shape(self):
        host = host_fingerprint()
        assert {"platform", "python", "machine", "cpus"} <= set(host)
        assert host["cpus"] >= 1


class TestHistoryFile:
    def test_append_then_read_round_trips(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = [_timing("bench.a", 0.1, "r1")]
        second = [_timing("bench.a", 0.2, "r2"),
                  _timing("bench.b", 0.3, "r2")]
        assert append_history(path, first) == 1
        assert append_history(path, second) == 2
        records = read_history(path)
        assert [r.run_id for r in records] == ["r1", "r2", "r2"]
        assert records[0].value == pytest.approx(0.1)

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, [_timing("bench.a", 0.1, "r1")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "bench.b", "val')  # crashed appender
        records = read_history(path)
        assert [r.name for r in records] == ["bench.a"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        append_history(path, [_timing("bench.a", 0.1, "r1")])
        with pytest.raises(ObservabilityError, match="bad benchmark record"):
            read_history(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, [_timing("bench.a", 0.1, "r1")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        append_history(path, [_timing("bench.a", 0.2, "r2")])
        assert len(read_history(path)) == 2


class TestRollingBaseline:
    def test_median_and_mad(self):
        median, mad = rolling_baseline([1.0, 1.2, 1.1, 100.0, 1.3])
        # The outlier shifts the median barely and the MAD not at all.
        assert median == pytest.approx(1.2)
        assert mad == pytest.approx(0.1)

    def test_window_keeps_the_newest(self):
        median, _ = rolling_baseline([10.0, 10.0, 1.0, 1.0, 1.0], window=3)
        assert median == pytest.approx(1.0)

    def test_empty_and_bad_window_raise(self):
        with pytest.raises(ObservabilityError):
            rolling_baseline([])
        with pytest.raises(ObservabilityError):
            rolling_baseline([1.0], window=0)


class TestRegressionDetection:
    def test_synthetic_25pct_slowdown_is_flagged(self):
        history = _history([1.0, 1.01, 0.99, 1.0, 1.25])
        (row,) = compare_runs(history).regressions
        assert row.name == "bench.sweep"
        assert row.ratio == pytest.approx(1.25)

    def test_10pct_slowdown_is_not_flagged(self):
        history = _history([1.0, 1.01, 0.99, 1.0, 1.10])
        assert compare_runs(history).regressions == ()

    def test_noisy_baseline_mad_gate_suppresses_flag(self):
        # A 25% jump that is within 3 sigma of a very noisy baseline.
        history = _history([1.0, 1.6, 0.7, 1.4, 0.8, 1.25])
        assert compare_runs(history).regressions == ()

    def test_min_samples_guard(self):
        history = _history([1.0, 2.0])  # one baseline run only
        report = compare_runs(history)
        (row,) = report.rows
        assert row.baseline_median is None
        assert not row.regressed
        assert "no baseline" in report.format()

    def test_only_timing_units_are_judged(self):
        history = [
            BenchRecord("metrics.evals", 100, unit="count", run_id="r0"),
            BenchRecord("metrics.evals", 100, unit="count", run_id="r1"),
            BenchRecord("metrics.evals", 900, unit="count", run_id="r2"),
        ]
        report = compare_runs(history)
        assert report.rows == ()

    def test_current_run_defaults_to_newest(self):
        history = _history([1.0, 1.0, 1.0, 5.0])
        report = compare_runs(history)
        assert report.run_id == "run3"
        assert report.regressions

    def test_explicit_current_run(self):
        history = _history([1.0, 1.0, 5.0, 1.0])
        report = compare_runs(history, current_run="run3")
        (row,) = report.rows
        # run2's spike sits in the baseline, not under judgement.
        assert not row.regressed

    def test_unknown_current_run_raises(self):
        with pytest.raises(ObservabilityError, match="no timing records"):
            compare_runs(_history([1.0, 1.0]), current_run="nope")

    def test_report_format_marks_regressions(self):
        history = _history([1.0, 1.0, 1.0, 1.5])
        text = compare_runs(history).format()
        assert "REGRESSED" in text
        assert "1 regression(s) in 1 timing metric(s)" in text

    def test_clean_report_says_ok(self):
        history = _history([1.0, 1.0, 1.0, 1.0])
        text = compare_runs(history).format()
        assert "REGRESSED" not in text
        assert " ok" in text


class TestBenchCompareCli:
    def _write_history(self, tmp_path, values):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, _history(values))
        return path

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        path = self._write_history(tmp_path, [1.0, 1.0, 1.0, 1.5])
        assert main(["bench", "compare", "--history", str(path)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_report_only_exits_zero(self, tmp_path, capsys):
        path = self._write_history(tmp_path, [1.0, 1.0, 1.0, 1.5])
        assert main(["bench", "compare", "--history", str(path),
                     "--report-only"]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        path = self._write_history(tmp_path, [1.0, 1.0, 1.0, 1.0])
        assert main(["bench", "compare", "--history", str(path)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_missing_history_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        assert main(["bench", "compare", "--history", str(path)]) == 0
        assert "no benchmark history yet" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path, capsys):
        path = self._write_history(tmp_path, [1.0, 1.0, 1.0, 1.15])
        assert main(["bench", "compare", "--history", str(path)]) == 0
        assert main(["bench", "compare", "--history", str(path),
                     "--threshold", "0.10"]) == 1
