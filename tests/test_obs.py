"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro import obs
from repro.core import FIGURE_6A, FIGURE_6B, FIGURE_6C, FIGURE_6D
from repro.errors import ObservabilityError, ReproError
from repro.obs.trace import NULL_SPAN


class TestSpans:
    def test_disabled_tracer_hands_out_the_null_singleton(self):
        assert not obs.tracing_enabled()
        assert obs.span("anything", key="value") is NULL_SPAN
        with obs.span("ignored") as sp:
            sp.set_attribute("also", "ignored")
        assert obs.get_tracer().finished_spans() == ()

    def test_spans_nest_and_record_parents(self):
        obs.enable_tracing()
        with obs.span("outer", engine="gpu"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.get_tracer().finished_spans()
        assert [s.name for s in spans] == ["inner", "inner", "outer"]
        outer = spans[-1]
        assert outer.parent_id is None
        assert outer.attributes == {"engine": "gpu"}
        for inner in spans[:2]:
            assert inner.parent_id == outer.span_id
        assert all(s.duration_s >= 0 for s in spans)

    def test_set_attribute_chains(self):
        obs.enable_tracing()
        with obs.span("s") as sp:
            sp.set_attribute("a", 1).set_attribute("b", 2)
        (span,) = obs.get_tracer().finished_spans()
        assert span.attributes == {"a": 1, "b": 2}

    def test_exception_marks_span_and_propagates(self):
        obs.enable_tracing()
        with pytest.raises(ValueError, match="boom"):
            with obs.span("outer"):
                with obs.span("failing"):
                    raise ValueError("boom")
        failing, outer = obs.get_tracer().finished_spans()
        assert failing.status == "error"
        assert failing.attributes["error.type"] == "ValueError"
        assert outer.status == "error"  # the exception crossed it too
        assert obs.get_tracer().active_depth() == 0

    def test_exception_inside_span_body_leaves_stack_clean(self):
        obs.enable_tracing()
        with pytest.raises(RuntimeError):
            with obs.span("a"):
                raise RuntimeError
        with obs.span("fresh"):
            pass
        fresh = obs.get_tracer().finished_spans()[-1]
        assert fresh.parent_id is None  # nothing leaked on the stack

    def test_threads_get_independent_stacks(self):
        obs.enable_tracing()
        seen = []

        def worker():
            with obs.span("worker-span"):
                seen.append(obs.get_tracer().active_depth())

        with obs.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [1]  # the worker never saw main's open span
        worker_span = next(
            s for s in obs.get_tracer().finished_spans()
            if s.name == "worker-span"
        )
        assert worker_span.parent_id is None

    def test_reset_drops_spans_but_keeps_enabled_flag(self):
        obs.enable_tracing()
        with obs.span("s"):
            pass
        obs.get_tracer().reset()
        assert obs.get_tracer().finished_spans() == ()
        assert obs.tracing_enabled()


class TestMetrics:
    def test_counter_counts(self):
        c = obs.counter("t.counter")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            obs.counter("t.counter").inc(-1)

    def test_gauge_last_write_wins(self):
        g = obs.gauge("t.gauge")
        g.set(7)
        g.set(3)
        assert g.value == 3.0

    def test_histogram_aggregates(self):
        h = obs.bucket_histogram("t.hist")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.record(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.min == 1.0 and h.max == 10.0
        assert h.mean == 4.0
        assert sum(h.buckets) == 4
        # The median (2.0) reported as its bucket's upper bound: an
        # over-estimate by at most one factor-2 bucket width.
        assert 2.0 <= h.quantile(0.5) <= 4.0

    def test_same_name_returns_same_instrument(self):
        assert obs.counter("t.same") is obs.counter("t.same")

    def test_type_conflict_is_an_error(self):
        obs.counter("t.conflict")
        with pytest.raises(ObservabilityError, match="already registered"):
            obs.gauge("t.conflict")

    def test_observability_errors_are_repro_errors(self):
        assert issubclass(ObservabilityError, ReproError)
        assert issubclass(ObservabilityError, RuntimeError)

    def test_reset_zeroes_in_place_keeping_handles(self):
        c = obs.counter("t.reset")
        c.inc(5)
        obs.reset_metrics()
        assert c.value == 0.0
        c.inc()  # the pre-reset handle still feeds the registry
        assert obs.get_registry().snapshot()["t.reset"]["value"] == 1.0

    def test_registry_reset_between_tests_part1(self):
        obs.counter("t.crosstest").inc(99)

    def test_registry_reset_between_tests_part2(self):
        # The autouse fixture must have zeroed part1's increment.
        assert obs.counter("t.crosstest").value == 0.0

    def test_snapshot_shape(self):
        obs.counter("t.snap.c").inc()
        obs.gauge("t.snap.g").set(2)
        obs.bucket_histogram("t.snap.h").record(4)
        snap = obs.get_registry().snapshot()
        assert snap["t.snap.c"] == {"type": "counter", "value": 1.0}
        assert snap["t.snap.g"] == {"type": "gauge", "value": 2.0}
        assert snap["t.snap.h"]["count"] == 1


class TestInstrumentedPaths:
    def test_evaluate_counts_and_spans(self, fig6):
        obs.enable_tracing()
        calls = obs.counter("core.evaluate.calls")
        before = calls.value
        result = fig6["b"].evaluate()
        assert calls.value == before + 1
        span = obs.get_tracer().finished_spans()[-1]
        assert span.name == "core.evaluate"
        assert span.attributes["bottleneck"] == result.bottleneck

    def test_simulator_contention_rounds_counted(self, platform):
        from repro.sim import ConcurrentJob
        from repro.sim.kernel import KernelSpec

        rounds = obs.counter("sim.dram.contention_rounds")
        assert rounds.value == 0.0
        kernel = KernelSpec(elements=1 << 22).with_intensity(1.0)
        platform.run_concurrent([
            ConcurrentJob("CPU", kernel, 1e9),
            ConcurrentJob("GPU", kernel, 1e9),
        ])
        assert rounds.value >= 1
        assert obs.counter("sim.concurrent.runs").value == 1

    def test_ert_sweep_points_counted(self, platform):
        from repro.ert import run_sweep

        run_sweep(platform, "CPU", intensities=(1.0, 2.0),
                  footprints=(16384, 65536))
        assert obs.counter("ert.sweep.points").value == 4
        assert obs.counter("sim.kernel.runs").value == 4

    def test_explore_sweep_points_counted(self, fig6):
        from repro.explore import sweep_fraction

        scenario = fig6["b"]
        sweep_fraction(scenario.soc(), scenario.workload(), 1,
                       [0.0, 0.5, 1.0])
        assert obs.counter("explore.sweep.points").value == 3

    def test_pareto_candidates_counted(self, fig6):
        from repro.explore import explore_bandwidth_frontier

        scenario = fig6["b"]
        explore_bandwidth_frontier(
            scenario.soc(), scenario.workload(), [5e9, 10e9, 20e9]
        )
        assert obs.counter("explore.pareto.candidates").value == 3


class TestProvenance:
    @pytest.mark.parametrize(
        "scenario", [FIGURE_6A, FIGURE_6B, FIGURE_6C, FIGURE_6D],
        ids=["6a", "6b", "6c", "6d"],
    )
    def test_explain_matches_bottleneck_analysis(self, scenario):
        """The explain record must agree with the independent
        series-composition attribution of analysis/bottleneck.py."""
        from repro.analysis import bottleneck_of

        record = obs.explain(scenario.soc(), scenario.workload())
        report = bottleneck_of(record.to_system())
        assert report.stage.name == record.bottleneck
        assert report.throughput == pytest.approx(record.attainable)
        assert record.audit()

    def test_record_echoes_terms(self):
        record = obs.explain(FIGURE_6B.soc(), FIGURE_6B.workload())
        limits = {t.name: t.limiter for t in record.terms}
        assert limits == {"CPU": "compute", "GPU": "bandwidth"}
        assert record.binding_components == ("memory",)

    def test_narrative_names_the_winner(self):
        record = obs.explain(FIGURE_6B.soc(), FIGURE_6B.workload())
        text = record.narrative()
        assert "bound by 'memory'" in text
        assert "slowest component wins the max()" in text

    def test_to_dict_is_json_ready(self):
        record = obs.explain(FIGURE_6B.soc(), FIGURE_6B.workload())
        encoded = json.dumps(record.to_dict())
        decoded = json.loads(encoded)
        assert decoded["bottleneck"] == "memory"
        assert len(decoded["terms"]) == 2

    def test_infinite_intensity_serializes(self):
        from repro.core import SoCSpec, Workload

        soc = SoCSpec.two_ip(40e9, 10e9, acceleration=5,
                             cpu_bandwidth=6e9, acc_bandwidth=15e9)
        workload = Workload(fractions=(1.0, 0.0),
                            intensities=(math.inf, 1.0))
        record = obs.explain(soc, workload)
        data = record.to_dict()
        assert data["intensities"][0] == "inf"
        assert record.audit()


class TestExport:
    def _collect_spans(self):
        obs.enable_tracing()
        with obs.span("root", phase="demo"):
            with obs.span("child"):
                pass
            with obs.span("child"):
                pass
        obs.disable_tracing()
        return obs.get_tracer().finished_spans()

    def test_jsonl_round_trip(self, tmp_path):
        spans = self._collect_spans()
        path = tmp_path / "trace.jsonl"
        written = obs.write_trace_jsonl(path, spans)
        assert written == 3
        loaded = obs.read_trace_jsonl(path)
        assert loaded == spans

    def test_jsonl_lines_are_json_objects(self, tmp_path):
        self._collect_spans()
        path = tmp_path / "trace.jsonl"
        obs.write_trace_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            event = json.loads(line)
            assert {"name", "span_id", "parent_id", "start_s", "end_s",
                    "duration_s", "status", "attributes"} <= set(event)

    def test_malformed_trace_file_raises_with_location(self, tmp_path):
        good = ('{"name": "ok", "span_id": 1, "parent_id": null,'
                ' "thread": "t", "start_s": 0, "end_s": 1}\n')
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "not json\n" + good)
        with pytest.raises(ObservabilityError, match="bad.jsonl:2"):
            obs.read_trace_jsonl(path)

    def test_torn_final_line_is_dropped(self, tmp_path):
        """A writer killed mid-append tears only the last line: the
        trace reader drops it, as the shard reader does."""
        spans = self._collect_spans()
        path = tmp_path / "trace.jsonl"
        obs.write_trace_jsonl(path, spans)
        path.write_bytes(path.read_bytes()[:-40])
        assert obs.read_trace_jsonl(path) == spans[:-1]

    def test_summarize_groups_by_path(self):
        spans = self._collect_spans()
        (root,) = obs.summarize_spans(spans)
        (child,) = root.children
        assert (root.name, root.count) == ("root", 1)
        assert (child.name, child.count) == ("child", 2)
        assert root.self_s == pytest.approx(root.total_s - child.total_s)
        # Walk order: parent row precedes its children.
        assert [node.name for _, node in root.walk()] == ["root", "child"]

    def test_metrics_snapshot_file(self, tmp_path):
        obs.counter("t.export").inc(3)
        path = tmp_path / "metrics.json"
        snapshot = obs.write_metrics_json(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == snapshot
        assert on_disk["t.export"]["value"] == 3.0
