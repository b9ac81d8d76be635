"""Profiles as aggregated spans: tree building, rendering, CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core import FIGURE_6B, evaluate, evaluate_variant
from repro.obs.profile import ProfileNode
from repro.obs.trace import SpanRecord, Tracer


class FakeClock:
    """A deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _tracer() -> Tracer:
    """An enabled tracer on a clock that ticks one second per read."""
    tracer = Tracer(clock=FakeClock())
    tracer.enabled = True
    return tracer


def _profile(tracer=None) -> tuple:
    """The profile of a tracer's spans (default: the global tracer)."""
    tracer = tracer or obs.get_tracer()
    return obs.summarize_spans(tracer.finished_spans())


def _record(name, span_id, parent_id, start, end) -> SpanRecord:
    return SpanRecord(
        name=name, span_id=span_id, parent_id=parent_id,
        thread="MainThread", start_s=start, end_s=end,
    )


def _paths_and_counts(nodes) -> dict:
    """``{name path: call count}`` over a whole profile forest."""
    counts = {}

    def visit(node, prefix):
        path = prefix + (node.name,)
        counts[path] = node.count
        for child in node.children:
            visit(child, path)

    for node in nodes:
        visit(node, ())
    return counts


class TestProfiler:
    """``summarize_spans`` over a :class:`Tracer` on a fake clock."""

    def test_nested_scopes_build_a_tree(self):
        tracer = _tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (root,) = _profile(tracer)
        assert (root.name, root.count) == ("outer", 1)
        (child,) = root.children
        assert (child.name, child.count) == ("inner", 1)

    def test_repeated_scopes_aggregate_into_one_node(self):
        tracer = _tracer()
        for _ in range(5):
            with tracer.span("stage"):
                pass
        (root,) = _profile(tracer)
        assert root.count == 5
        assert root.total_s == 5.0

    def test_deterministic_totals_with_injected_clock(self):
        # A span reads the clock once when opened and once when closed,
        # so the inner span lasts 1 tick, the outer 3, leaving it 2.
        tracer = _tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (root,) = _profile(tracer)
        (child,) = root.children
        assert child.total_s == 1.0
        assert root.total_s == 3.0
        assert root.self_s == 2.0

    def test_self_time_clamped_at_zero(self):
        # A child that outlasts its parent (clock jitter) leaves the
        # parent no self time, never a negative one.
        (root,) = obs.summarize_spans([
            _record("p", 1, None, 0.0, 1.0),
            _record("c", 2, 1, 0.0, 2.0),
        ])
        assert root.self_s == 0.0
        # from_dict round-trip preserves the clamped value.
        assert ProfileNode.from_dict(root.to_dict()) == root

    def test_same_name_different_parents_are_distinct_nodes(self):
        tracer = _tracer()
        with tracer.span("a"):
            with tracer.span("shared"):
                pass
        with tracer.span("b"):
            with tracer.span("shared"):
                pass
        roots = _profile(tracer)
        assert {r.name for r in roots} == {"a", "b"}
        for root in roots:
            assert [c.name for c in root.children] == ["shared"]
            assert root.children[0].count == 1

    def test_exception_unwinds_open_scopes(self):
        tracer = _tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.active_depth() == 0
        (root,) = _profile(tracer)
        assert root.count == 1
        assert [(c.name, c.count) for c in root.children] == [("inner", 1)]

    def test_reset_keeps_enabled_flag(self):
        tracer = _tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.enabled
        assert _profile(tracer) == ()

    def test_report_orders_children_by_descending_total(self):
        roots = obs.summarize_spans([
            _record("root", 1, None, 0.0, 10.0),
            _record("cheap", 2, 1, 0.0, 1.0),
            _record("dear", 3, 1, 1.0, 6.0),
            _record("also_cheap", 4, 1, 6.0, 7.0),
            _record("short", 5, None, 10.0, 11.0),
        ])
        assert [r.name for r in roots] == ["root", "short"]
        # Ties in total time fall back to name order.
        assert [c.name for c in roots[0].children] == [
            "dear", "also_cheap", "cheap",
        ]

    def test_open_spans_are_skipped_and_orphans_become_roots(self):
        roots = obs.summarize_spans([
            _record("open", 1, None, 0.0, None),
            _record("orphan", 2, 1, 0.0, 1.0),
            _record("stray", 3, 99, 0.0, 2.0),
        ])
        assert [(r.name, r.count) for r in roots] == [
            ("stray", 1), ("orphan", 1),
        ]


class TestInstrumentedPipeline:
    def test_evaluate_records_core_scope(self):
        obs.enable_tracing()
        evaluate(FIGURE_6B.soc(), FIGURE_6B.workload())
        (root,) = _profile()
        assert root.name == "core.evaluate"
        child_names = {c.name for c in root.children}
        assert "core.compose_result" in child_names

    def test_evaluate_variant_records_lower_and_execute(self):
        obs.enable_tracing()
        evaluate_variant(FIGURE_6B.soc(), FIGURE_6B.workload(), None)
        roots = _profile()
        names = {r.name for r in roots}
        assert "core.variant.lower" in names
        assert "core.evaluate_variant" in names
        (variant_root,) = [
            r for r in roots if r.name == "core.evaluate_variant"
        ]
        assert [c.name for c in variant_root.children] == [
            "core.execute_lowered_phase"
        ]

    def test_profiling_off_adds_nothing(self):
        evaluate(FIGURE_6B.soc(), FIGURE_6B.workload())
        assert _profile() == ()

    def test_reset_observability_empties_the_profile(self):
        obs.enable_tracing()
        evaluate(FIGURE_6B.soc(), FIGURE_6B.workload())
        assert _profile()
        obs.reset_observability()
        assert not obs.tracing_enabled()
        assert _profile() == ()


class TestRendering:
    def _nodes(self):
        tracer = _tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        return _profile(tracer)

    def test_format_profile_header_and_indent(self):
        text = obs.format_profile(self._nodes())
        lines = text.splitlines()
        assert lines[0].split() == [
            "phase", "calls", "total", "(s)", "self", "(s)", "%", "total"
        ]
        assert lines[1].startswith("outer")
        assert lines[2].startswith("  inner")

    def test_format_profile_external_total_reports_coverage(self):
        text = obs.format_profile(self._nodes(), total_s=6.0)
        # Root total is 3 ticks of a 6s wall: 50%.
        assert "50.0" in text

    def test_profile_json_round_trip(self, tmp_path):
        nodes = self._nodes()
        path = tmp_path / "profile.json"
        document = obs.write_profile_json(path, nodes)
        loaded = json.loads(path.read_text())
        assert loaded == document
        assert loaded["schema"] == 1
        (tree_root,) = loaded["tree"]
        assert ProfileNode.from_dict(tree_root) == nodes[0]

    def test_flamegraph_svg_renders_deep_trees(self):
        tracer = _tracer()

        def nest(depth):
            if depth == 0:
                return
            with tracer.span(f"level{depth}"):
                nest(depth - 1)

        nest(12)
        from repro.viz import profile_flame_svg

        svg = profile_flame_svg(_profile(tracer))
        assert svg.startswith("<svg")
        assert "level12" in svg  # root bar is wide enough for a label


class TestProfileCli:
    def test_profile_wraps_subcommand_and_prints_tree(self, capsys):
        assert main(["profile", "--", "eval", "--figure", "6b"]) == 0
        out = capsys.readouterr().out
        assert "cli.eval" in out
        assert "core.evaluate" in out
        assert "% coverage" in out

    def test_profile_stage_totals_cover_the_wall_time(self, capsys):
        # Acceptance criterion: the root stage total stays within 5%
        # of the end-to-end wall time the CLI reports.
        assert main(["profile", "--", "sweep", "--figure", "6b",
                     "--steps", "99"]) == 0
        out = capsys.readouterr().out
        line = next(row for row in out.splitlines() if "coverage" in row)
        coverage = float(line.rsplit("(", 1)[1].split("%")[0])
        assert coverage >= 95.0

    def test_profile_out_json(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["profile", "--out", str(path), "--",
                     "eval", "--figure", "6b"]) == 0
        document = json.loads(path.read_text())
        assert document["schema"] == 1
        assert document["tree"][0]["name"] == "cli.eval"

    def test_profile_out_svg_flamegraph(self, tmp_path):
        path = tmp_path / "p.svg"
        assert main(["profile", "--out", str(path), "--",
                     "eval", "--figure", "6b"]) == 0
        assert path.read_text().startswith("<svg")

    def test_profile_without_subcommand_errors(self, capsys):
        assert main(["profile", "--"]) != 0
        assert "usage" in capsys.readouterr().err

    def test_profile_cannot_nest(self, capsys):
        assert main(["profile", "--", "profile", "--",
                     "eval", "--figure", "6b"]) != 0
        assert "nest" in capsys.readouterr().err

    def test_profiling_disabled_after_run(self):
        main(["profile", "--", "eval", "--figure", "6b"])
        assert not obs.tracing_enabled()

    def test_profile_tree_is_the_trace_summary_under_cli_root(
        self, tmp_path, capsys
    ):
        profile_path = tmp_path / "p.json"
        trace_path = tmp_path / "t.jsonl"
        command = ["sweep", "--figure", "6b", "--steps", "99"]
        assert main(["profile", "--out", str(profile_path), "--",
                     *command]) == 0
        assert main(["--trace", str(trace_path), *command]) == 0
        (cli_root,) = json.loads(profile_path.read_text())["tree"]
        assert cli_root["name"] == "cli.sweep"
        under_root = _paths_and_counts(
            ProfileNode.from_dict(child) for child in cli_root["children"]
        )
        traced = _paths_and_counts(
            obs.summarize_spans(obs.read_trace_jsonl(trace_path))
        )
        assert under_root == traced
        assert ("explore.sweep",) in traced

    def test_profile_under_global_trace_writes_its_spans(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.jsonl"
        assert main(["--trace", str(trace_path), "profile", "--",
                     "eval", "--figure", "6b"]) == 0
        assert "cli.eval" in capsys.readouterr().out
        assert not obs.tracing_enabled()
        (root,) = obs.summarize_spans(obs.read_trace_jsonl(trace_path))
        assert root.name == "cli.eval"
        assert [c.name for c in root.children] == ["core.evaluate"]

