"""Telemetry shards and the merger: union laws, pinned by properties.

The merge contract (``repro.obs.collect``): spans are a renumbered,
clock-rebased union; metrics obey the snapshot addition laws; the
merged profile is the span summary of the union, so same-name-path
counts add and totals are the exact ``fsum`` of the shard-local span
durations.  The hypothesis properties here generate arbitrary little
fleets and check merged == union.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs import (
    LogRecord,
    ShardCollector,
    SpanRecord,
    TelemetryShard,
    TraceContext,
    load_shards,
    merge_telemetry,
    merged_chrome_trace,
    straggler_report,
    write_merged,
)

TRACE_ID = "ab" * 16

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
duration = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False,
                     allow_infinity=False)


def make_shard(worker, shard_idx, *, spans=(), metrics=None,
               logs=(), heartbeats=(), wall=1000.0, mono=0.0, pid=100,
               trace_id=TRACE_ID):
    context = TraceContext(
        trace_id=trace_id, fleet_run_id="run-1",
        worker_id=worker, shard=shard_idx,
    )
    return TelemetryShard(
        dir=f"telemetry/worker-{worker}",
        context=context,
        pid=pid,
        anchor={"wall_s": wall, "mono_s": mono, "pid": pid},
        spans=tuple(spans),
        metrics=dict(metrics or {}),
        logs=tuple(logs),
        heartbeats=tuple(heartbeats),
    )


@st.composite
def span_forests(draw):
    """One shard's spans: parents precede children, and names repeat
    within and across shards so name paths collide."""
    count = draw(st.integers(min_value=0, max_value=6))
    spans = []
    for span_id in range(count):
        parent = None
        if span_id and draw(st.booleans()):
            parent = draw(st.integers(min_value=0, max_value=span_id - 1))
        start = draw(finite)
        spans.append(SpanRecord(
            name=draw(st.sampled_from(["load", "eval", "fit"])),
            span_id=span_id, parent_id=parent,
            thread="MainThread", start_s=start,
            end_s=start + draw(duration),
        ))
    return spans


def local_name_paths(spans):
    """``(name path, shard-local duration)`` for every span of a shard."""
    by_id = {record.span_id: record for record in spans}
    for record in spans:
        path, parent = (record.name,), record.parent_id
        while parent is not None:
            path = (by_id[parent].name,) + path
            parent = by_id[parent].parent_id
        yield path, record.end_s - record.start_s


def flatten(nodes, prefix=()):
    for node in nodes:
        path = prefix + (node.name,)
        yield path, node
        yield from flatten(node.children, path)


@st.composite
def metric_snapshots(draw):
    snapshot = {}
    for key in draw(st.sets(st.sampled_from(["a", "b", "c"]))):
        snapshot[key] = {"type": "counter", "value": draw(finite)}
    if draw(st.booleans()):
        histogram = obs.BucketHistogram("h")
        for value in draw(st.lists(finite, min_size=1, max_size=50)):
            histogram.record(value)
        snapshot["h"] = histogram.to_dict()
    return snapshot


@st.composite
def fleets(draw):
    workers = draw(st.integers(min_value=1, max_value=4))
    return tuple(
        make_shard(
            f"w{i}", i,
            spans=draw(span_forests()),
            metrics=draw(metric_snapshots()),
            wall=1000.0 + draw(finite),
            mono=draw(finite),
            pid=100 + i,
        )
        for i in range(workers)
    )


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(fleets())
    def test_merged_spans_are_a_renumbered_union(self, shards):
        merged = merge_telemetry(shards)
        assert len(merged.spans) == sum(len(s.spans) for s in shards)
        ids = [record.span_id for record in merged.spans]
        assert len(ids) == len(set(ids)), "span ids must not collide"
        # Parent links stay intra-shard: every parent id resolves to a
        # merged span, and durations survive the clock rebase exactly.
        by_id = {record.span_id: record for record in merged.spans}
        for record in merged.spans:
            if record.parent_id is not None:
                assert record.parent_id in by_id
        originals = [r for s in shards for r in s.spans]
        for original, rebased in zip(originals, merged.spans):
            assert rebased.duration_s == pytest.approx(
                original.duration_s, abs=1e-9
            )

    @settings(max_examples=60, deadline=None)
    @given(fleets())
    def test_merged_metric_totals_equal_the_union(self, shards):
        merged = merge_telemetry(shards).metrics
        for key in ("a", "b", "c"):
            entries = [s.metrics[key] for s in shards if key in s.metrics]
            if not entries:
                assert key not in merged
                continue
            expected = math.fsum(e["value"] for e in entries)
            assert merged[key]["value"] == pytest.approx(expected, abs=1e-9)
        histograms = [s.metrics["h"] for s in shards if "h" in s.metrics]
        if histograms:
            assert merged["h"]["count"] == sum(h["count"] for h in histograms)
            assert merged["h"]["sum"] == pytest.approx(
                math.fsum(h["sum"] for h in histograms), abs=1e-6
            )
            assert merged["h"]["min"] == min(h["min"] for h in histograms)
            assert merged["h"]["max"] == max(h["max"] for h in histograms)
            # Bucket counts add element-wise: the merge is exactly the
            # histogram of every shard's observations.
            assert merged["h"]["buckets"] == [
                sum(column) for column in zip(*(h["buckets"]
                                                for h in histograms))
            ]

    @settings(max_examples=60, deadline=None)
    @given(fleets())
    def test_merged_profile_sums_same_name_paths(self, shards):
        merged = merge_telemetry(shards).profile
        expected: dict = {}
        for shard in shards:
            for path, duration_s in local_name_paths(shard.spans):
                expected.setdefault(path, []).append(duration_s)
        got = dict(flatten(merged))
        assert set(got) == set(expected)
        for path, durations in expected.items():
            node = got[path]
            assert node.count == len(durations)
            assert node.total_s == math.fsum(durations)  # exact
            assert node.self_s == max(0.0, node.total_s - math.fsum(
                child.total_s for child in node.children
            ))


class TestMergeMechanics:
    def test_merge_rejects_empty_and_mixed_traces(self):
        with pytest.raises(ObservabilityError, match="at least one"):
            merge_telemetry(())
        shards = (
            make_shard("w0", 0),
            make_shard("w1", 1, trace_id="cd" * 16),
        )
        with pytest.raises(ObservabilityError, match="different traces"):
            merge_telemetry(shards)

    def test_span_times_rebase_onto_the_shared_wall_clock(self):
        span = SpanRecord(name="s", span_id=0, parent_id=None,
                          thread="MainThread", start_s=2.0, end_s=3.0)
        shard = make_shard("w0", 0, spans=[span], wall=1000.0, mono=0.0)
        (rebased,) = merge_telemetry([shard]).spans
        assert rebased.start_s == pytest.approx(1002.0)
        assert rebased.end_s == pytest.approx(1003.0)

    def test_logs_merge_in_timestamp_order(self):
        early = LogRecord(ts=1.0, level="info", event="early",
                          worker_id="w1")
        late = LogRecord(ts=2.0, level="info", event="late",
                         worker_id="w0")
        merged = merge_telemetry((
            make_shard("w0", 0, logs=[late]),
            make_shard("w1", 1, logs=[early]),
        ))
        assert [r.event for r in merged.logs] == ["early", "late"]
        assert merged.workers == ("w0", "w1")

    def test_merged_profile_orders_by_descending_total(self):
        def one(name, seconds):
            return [SpanRecord(name=name, span_id=0, parent_id=None,
                               thread="MainThread", start_s=0.0,
                               end_s=seconds)]

        merged = merge_telemetry((
            make_shard("w0", 0, spans=one("small", 1.0)),
            make_shard("w1", 1, spans=one("big", 5.0)),
        ))
        assert [node.name for node in merged.profile] == ["big", "small"]

    def test_merged_profile_is_exact_at_wall_clock_anchors(self):
        # Microsecond spans on each worker's monotonic clock, anchored
        # ~1.7e9 s away on the wall clock.  At that magnitude one ulp
        # is ~0.24 us, so rebased stamps no longer give back the
        # durations; the profile sums the shard-local ones instead.
        def worker_spans(skew):
            spans = [SpanRecord(name="fleet.shard", span_id=1,
                                parent_id=None, thread="MainThread",
                                start_s=12.5, end_s=12.5 + 97.3e-6 + skew)]
            for point in range(2, 12):
                start = 12.5 + point * 7.1e-6 + skew
                spans.append(SpanRecord(
                    name="fleet.point", span_id=point, parent_id=1,
                    thread="MainThread", start_s=start,
                    end_s=start + 3.3e-6 * point + skew,
                ))
            return spans

        shards = (
            make_shard("w0", 0, spans=worker_spans(1.1e-8),
                       wall=1.7e9 + 0.1234567, mono=12.4),
            make_shard("w1", 1, spans=worker_spans(2.3e-8),
                       wall=1.7e9 + 0.4567891, mono=3.25),
        )
        merged = merge_telemetry(shards)
        local = {}
        for shard in shards:
            for path, duration_s in local_name_paths(shard.spans):
                local.setdefault(path, []).append(duration_s)
        got = dict(flatten(merged.profile))
        assert set(got) == {("fleet.shard",), ("fleet.shard", "fleet.point")}
        for path, durations in local.items():
            assert got[path].count == len(durations)
            assert got[path].total_s == math.fsum(durations)
        rebased = [record.duration_s for record in merged.spans]
        originals = [r.duration_s for s in shards for r in s.spans]
        assert rebased != originals

    def test_merged_chrome_trace_keeps_per_worker_lanes(self):
        spans = [SpanRecord(name="work", span_id=0, parent_id=None,
                            thread="MainThread", start_s=1.0, end_s=2.0)]
        shards = (
            make_shard("w0", 0, spans=spans, pid=111, wall=1000.0),
            make_shard("w1", 1, spans=spans, pid=222, wall=1005.0),
        )
        document = merged_chrome_trace(shards)
        events = document["traceEvents"]
        labels = {e["args"]["name"] for e in events
                  if e.get("name") == "process_name"}
        assert labels == {"worker w0 (shard 0)", "worker w1 (shard 1)"}
        assert {e["pid"] for e in events} == {111, 222}
        xs = [e for e in events if e["ph"] == "X"]
        # Shared zero point: the earliest span across the fleet is t=0,
        # the other lane sits at its true wall-clock distance (5s).
        assert min(e["ts"] for e in xs) == pytest.approx(0.0)
        assert max(e["ts"] for e in xs) == pytest.approx(5e6)

    def test_write_merged_emits_every_view(self, tmp_path):
        shard = make_shard("w0", 0, metrics={"a": {"type": "counter",
                                                   "value": 2.0}})
        paths = write_merged(tmp_path / "merged", merge_telemetry([shard]))
        assert sorted(paths) == [
            "logs.jsonl", "metrics.json", "profile.json", "spans.jsonl",
            "summary.json", "trace.chrome.json",
        ]
        summary = json.loads((tmp_path / "merged" / "summary.json")
                             .read_text())
        assert summary["workers"] == ["w0"]
        assert summary["metrics"] == 1


class TestStragglerReport:
    @staticmethod
    def _beats(start, *offsets):
        return tuple({"ts": start + o, "cpu_s": o, "rss_kb": 1000}
                     for o in offsets)

    def test_slow_worker_flagged_against_fleet_median(self):
        shards = (
            make_shard("w0", 0, heartbeats=self._beats(0.0, 0, 1.0)),
            make_shard("w1", 1, heartbeats=self._beats(0.0, 0, 1.1)),
            make_shard("w2", 2, heartbeats=self._beats(0.0, 0, 9.0)),
        )
        rows = straggler_report(shards)
        assert [r.straggler for r in rows] == [False, False, True]
        assert rows[2].wall_s == pytest.approx(9.0)
        assert rows[2].rss_kb == 1000

    def test_two_workers_flag_the_slow_one(self):
        # The median of two windows is their mean, not the slower one.
        shards = (
            make_shard("w0", 0, heartbeats=self._beats(0.0, 0, 1.0)),
            make_shard("w1", 1, heartbeats=self._beats(0.0, 0, 4.0)),
        )
        rows = straggler_report(shards)
        assert [r.straggler for r in rows] == [False, True]

    def test_zero_heartbeat_worker_is_never_flagged(self):
        shards = (
            make_shard("w0", 0, heartbeats=self._beats(0.0, 0, 1.0)),
            make_shard("w1", 1),
        )
        rows = straggler_report(shards)
        assert rows[1].heartbeats == 0
        assert rows[1].straggler is False

    def test_threshold_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="threshold"):
            straggler_report((), threshold=0.0)


def write_shard(root, spans: int = 3) -> Path:
    """A finalized one-worker shard holding ``spans`` root spans."""
    obs.enable_tracing()
    collector = ShardCollector(root, TraceContext(
        trace_id=TRACE_ID, fleet_run_id="run-1", worker_id="w0", shard=0,
    ))
    for index in range(spans):
        with obs.span(f"step.{index}"):
            pass
    collector.heartbeat()
    collector.heartbeat()
    collector.finalize()
    obs.reset_tracing()
    return Path(collector.dir)


class TestShardFiles:
    def test_torn_final_span_line_merges_without_it(self, tmp_path, capsys):
        shard_dir = write_shard(tmp_path)
        spans_file = shard_dir / "spans.jsonl"
        spans_file.write_bytes(spans_file.read_bytes()[:-40])
        (shard,) = load_shards(tmp_path)
        assert [r.name for r in shard.spans] == ["step.0", "step.1"]
        assert main(["telemetry", "merge", str(tmp_path)]) == 0
        assert "2 spans" in capsys.readouterr().out

    def test_torn_final_heartbeat_is_dropped(self, tmp_path):
        shard_dir = write_shard(tmp_path)
        beats_file = shard_dir / "heartbeats.jsonl"
        beats_file.write_bytes(beats_file.read_bytes()[:-5])
        (shard,) = load_shards(tmp_path)
        assert len(shard.heartbeats) == 1

    def test_corrupt_earlier_span_line_names_the_file(self, tmp_path):
        shard_dir = write_shard(tmp_path)
        spans_file = shard_dir / "spans.jsonl"
        spans_file.write_bytes(b"not json\n" + spans_file.read_bytes())
        with pytest.raises(ObservabilityError, match="spans.jsonl:1"):
            load_shards(tmp_path)

    def test_truncated_metrics_snapshot_is_a_clean_error(
        self, tmp_path, capsys
    ):
        shard_dir = write_shard(tmp_path)
        metrics_file = shard_dir / "metrics.json"
        metrics_file.write_text(metrics_file.read_text()[:-10])
        assert main(["telemetry", "merge", str(tmp_path)]) != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "metrics.json" in err
        assert "Traceback" not in err
