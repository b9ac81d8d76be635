"""Tests for the exposition plane: BucketHistogram + /metrics text.

The load-bearing contracts:

- :class:`~repro.obs.metrics.BucketHistogram` merges *exactly* — the
  merged snapshot of two histograms is bitwise the histogram of the
  union of their observations (a hypothesis property);
- :func:`~repro.obs.expo.render_exposition` round-trips through
  :func:`~repro.obs.expo.parse_exposition`, so the CI scrape job can
  assert on what a real Prometheus would ingest.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.expo import (
    exposition_content_type,
    parse_exposition,
    render_exposition,
)
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    BucketHistogram,
    MetricsRegistry,
    bucket_histogram,
    counter,
    gauge,
    get_registry,
    merge_snapshots,
)

values = st.floats(
    min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
)


class TestBucketHistogram:
    def test_le_semantics_and_overflow(self):
        h = BucketHistogram("t", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 4.0, 99.0):
            h.record(v)
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket (le semantics); 99 overflows into +Inf.
        assert h.buckets == [2, 1, 1, 1]
        assert h.count == 5
        assert h.max == 99.0

    def test_quantile_is_bucket_upper_bound(self):
        h = BucketHistogram("t", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.record(v)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_overflow_quantile_reports_exact_max(self):
        h = BucketHistogram("t", bounds=(1.0,))
        h.record(17.5)
        assert h.quantile(0.99) == 17.5

    def test_empty_quantile_raises(self):
        h = BucketHistogram("t")
        with pytest.raises(ObservabilityError, match="no observations"):
            h.quantile(0.5)
        with pytest.raises(ObservabilityError, match="quantile"):
            BucketHistogram("u").quantile(1.5)

    def test_bad_bounds_rejected(self):
        for bounds in ((), (2.0, 1.0), (1.0, 1.0), (1.0, math.inf)):
            with pytest.raises(ObservabilityError, match="bounds"):
                BucketHistogram("t", bounds=bounds)

    def test_default_bounds_cover_serve_latencies(self):
        # 100 us .. ~105 s in powers of two: every plausible request
        # latency has a finite bucket.
        assert DEFAULT_BUCKET_BOUNDS[0] == pytest.approx(1e-4)
        assert DEFAULT_BUCKET_BOUNDS[-1] > 100.0

    def test_registry_reset_zeroes_in_place(self):
        h = bucket_histogram("t.reset.bucket")
        h.record(1.0)
        get_registry().reset()
        assert h.count == 0
        assert h.buckets == [0] * (len(h.bounds) + 1)
        assert bucket_histogram("t.reset.bucket") is h

    @given(st.lists(values, max_size=60), st.lists(values, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_exactly_the_union(self, left, right):
        a = MetricsRegistry()
        b = MetricsRegistry()
        u = MetricsRegistry()
        for v in left:
            a.bucket_histogram("m").record(v)
            u.bucket_histogram("m").record(v)
        for v in right:
            b.bucket_histogram("m").record(v)
            u.bucket_histogram("m").record(v)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        union = u.snapshot()
        if not left and not right:
            return
        # Bucket counts merge bitwise; count/min/max are exact.
        assert merged["m"]["buckets"] == union["m"]["buckets"]
        assert merged["m"]["count"] == union["m"]["count"]
        assert merged["m"]["min"] == union["m"]["min"]
        assert merged["m"]["max"] == union["m"]["max"]
        assert merged["m"]["sum"] == pytest.approx(union["m"]["sum"])

    def test_merge_rejects_mismatched_bounds(self):
        a = BucketHistogram("m", bounds=(1.0, 2.0))
        b = BucketHistogram("m", bounds=(1.0, 3.0))
        a.record(1.0)
        b.record(1.0)
        with pytest.raises(ObservabilityError, match="bounds"):
            merge_snapshots({"m": a.to_dict()}, {"m": b.to_dict()})

    def test_merge_does_not_alias_first_snapshot(self):
        h = BucketHistogram("m", bounds=(1.0,))
        h.record(0.5)
        snap = {"m": h.to_dict()}
        merged = merge_snapshots(snap)
        merged["m"]["buckets"][0] += 100
        assert snap["m"]["buckets"][0] == 1


class TestExposition:
    def test_content_type_is_prometheus_text(self):
        assert exposition_content_type().startswith(
            "text/plain; version=0.0.4"
        )

    def test_counter_gauge_round_trip(self):
        counter("serve.http.requests",
                labels={"endpoint": "/eval", "outcome": "ok"}).inc(3)
        gauge("serve.queue.depth").set(7)
        parsed = parse_exposition(render_exposition())
        key = "serve_http_requests{endpoint=/eval,outcome=ok}"
        assert parsed[key] == {"type": "counter", "value": 3.0,
                               "labels": {"endpoint": "/eval",
                                          "outcome": "ok"}}
        assert parsed["serve_queue_depth"]["value"] == 7.0
        assert parsed["serve_queue_depth"]["type"] == "gauge"

    def test_bucket_histogram_renders_cumulative_and_round_trips(self):
        h = bucket_histogram("expo.request.seconds",
                             labels={"endpoint": "/eval"})
        for v in (0.001, 0.004, 0.3):
            h.record(v)
        text = render_exposition()
        assert '# TYPE expo_request_seconds histogram' in text
        assert 'le="+Inf"' in text
        # Cumulative buckets never decrease (within the one series).
        counts = [
            float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
            if line.startswith("expo_request_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3.0
        parsed = parse_exposition(text)
        entry = parsed["expo_request_seconds{endpoint=/eval}"]
        assert entry["type"] == "bucket_histogram"
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(0.305)
        assert entry["buckets"] == h.to_dict()["buckets"]
        assert entry["bounds"] == list(h.bounds)

    def test_names_are_sanitized(self):
        counter("weird.name-with/slash").inc()
        text = render_exposition()
        assert "weird_name_with_slash 1" in text

    def test_label_values_are_escaped(self):
        counter("esc", labels={"path": 'a"b\\c\nd'}).inc()
        text = render_exposition()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        # And the parser undoes the escapes exactly.
        parsed = parse_exposition(text)
        (key,) = [k for k in parsed if k.startswith("esc")]
        assert parsed[key]["labels"]["path"] == 'a"b\\c\nd'

    def test_parse_rejects_garbage(self):
        for bad in ("# TYPE m histogram\nwhat even is this line",
                    "# TYPE m histogram\n"
                    'm_bucket{le="+Inf"} 1\nm_bucket{le="0.1"} 2\n'
                    "m_sum 1\nm_count 1",
                    # The registry renders no summaries, so a summary
                    # family is not exposition this parser accepts.
                    '# TYPE m summary\nm{quantile="0.5"} 0.2\n'
                    "m_sum 0.6\nm_count 3"):
            with pytest.raises(ObservabilityError) as excinfo:
                parse_exposition(bad)
            assert excinfo.value.code == "OBS_EXPOSITION_MALFORMED"

    def test_parse_rejects_histogram_without_inf_bucket(self):
        text = ("# TYPE m histogram\n"
                'm_bucket{le="0.1"} 1\nm_sum 0.05\nm_count 1\n')
        with pytest.raises(ObservabilityError) as excinfo:
            parse_exposition(text)
        assert excinfo.value.code == "OBS_EXPOSITION_MALFORMED"

    def test_full_registry_snapshot_round_trips(self):
        counter("a").inc(2)
        gauge("b").set(-1.5)
        bucket_histogram("c").record(0.01)
        parsed = parse_exposition(render_exposition())
        assert parsed["a"]["value"] == 2.0
        assert parsed["b"]["value"] == -1.5
        assert parsed["c"]["count"] == 1
