"""Tests for the shared torn-tail-tolerant JSONL reader and appender.

Every append-only JSONL artifact in the repo — sweep checkpoints,
benchmark history, structured logs, the serving result cache — reads
through :func:`repro.io.read_jsonl_tolerant`, so its contract is
pinned here once:

1. a torn *final* line (a writer killed mid-append) is dropped
   silently — crash-only recovery;
2. corruption anywhere *earlier* raises the caller's error class with
   the file and line number named;
3. :func:`repro.io.append_jsonl` emits lines the reader round-trips.

The property tests drive the crash story exhaustively: for any record
sequence and any byte-level truncation point, recovery never raises
and never invents or loses a record other than the torn last one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError, SerializationError
from repro.io import append_jsonl, read_jsonl_tolerant

#: JSON-representable record payloads (no NaN — append_jsonl refuses).
_record = st.fixed_dictionaries({
    "key": st.text(min_size=0, max_size=8),
    "value": st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=12),
        st.booleans(),
        st.none(),
    ),
})


class TestReadJsonlTolerant:
    def test_reads_clean_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        for index in range(3):
            append_jsonl(path, {"index": index})
        records = read_jsonl_tolerant(path)
        assert records == ({"index": 0}, {"index": 1}, {"index": 2})

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert read_jsonl_tolerant(path) == ({"a": 1}, {"a": 2})

    def test_decode_hook_applies_per_record(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        assert read_jsonl_tolerant(
            path, lambda record: record["a"]
        ) == (1, 2)

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n{"a": 2')
        assert read_jsonl_tolerant(path) == ({"a": 1},)

    def test_corruption_earlier_raises_with_location(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"a": 3}\n')
        with pytest.raises(SerializationError, match=r"data\.jsonl:2"):
            read_jsonl_tolerant(path)

    def test_decode_failure_at_tail_is_torn_tail(self, tmp_path):
        """A record the decoder rejects on the last line is treated
        exactly like torn JSON: the writer may have died mid-record."""
        path = tmp_path / "data.jsonl"
        path.write_text('{"key": "a"}\n{"wrong": 1}\n')
        records = read_jsonl_tolerant(path, lambda r: r["key"])
        assert records == ("a",)

    def test_decode_failure_earlier_raises_caller_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"wrong": 1}\n{"key": "a"}\n')
        with pytest.raises(ObservabilityError, match="bad thing"):
            read_jsonl_tolerant(
                path, lambda r: r["key"],
                error=ObservabilityError, label="thing",
            )

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_jsonl_tolerant(tmp_path / "absent.jsonl")


class TestAppendJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        documents = [{"b": 2, "a": 1}, {"nested": {"x": [1, 2]}}]
        for document in documents:
            append_jsonl(path, document)
        assert list(read_jsonl_tolerant(path)) == documents

    def test_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            append_jsonl(tmp_path / "data.jsonl", {"x": float("nan")})

    def test_one_line_per_document(self, tmp_path):
        path = tmp_path / "data.jsonl"
        append_jsonl(path, {"text": "with\nnewline? no: escaped"})
        assert path.read_text().count("\n") == 1


class TestTruncationProperty:
    """Crash-only recovery, quantified over all truncation points."""

    @given(records=st.lists(_record, min_size=1, max_size=6),
           cut=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_any_truncation_recovers_a_prefix(self, tmp_path_factory,
                                              records, cut):
        """Truncating the file at *any* byte offset loses at most the
        final record and never raises: the reader returns an exact
        prefix of what was written."""
        path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        for record in records:
            append_jsonl(path, record)
        raw = path.read_bytes()
        cut = min(cut, len(raw))
        path.write_bytes(raw[:cut])
        recovered = read_jsonl_tolerant(path)
        assert list(recovered) == records[:len(recovered)]
        # Every *complete* line must survive: only the torn tail may go.
        complete = raw[:cut].count(b"\n")
        assert len(recovered) >= complete - (
            1 if cut < len(raw) and raw[cut - 1:cut] == b"\n" else 0
        )
        assert len(recovered) >= raw[:cut].count(b"\n") - 1
        if cut == len(raw):
            assert list(recovered) == records

    @given(records=st.lists(_record, min_size=1, max_size=5),
           garbage=st.binary(min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_trailing_garbage_never_raises(self, tmp_path_factory,
                                           records, garbage):
        """Appending arbitrary bytes (a torn write of the *next*
        record) still yields every complete record."""
        path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        for record in records:
            append_jsonl(path, record)
        with open(path, "ab") as handle:
            handle.write(garbage.replace(b"\n", b" "))
        recovered = read_jsonl_tolerant(path)
        assert len(recovered) >= len(records) - 1
        assert list(recovered)[:len(records)] == records[:len(recovered)]


class TestSharedReaders:
    """The three pre-existing readers stay on the shared contract."""

    def test_checkpoint_reader_drops_torn_tail(self, tmp_path):
        from repro.resilience import load_checkpoint

        path = tmp_path / "sweep.jsonl"
        path.write_text(
            '{"key": "a", "payload": 1}\n{"key": "b", "payl'
        )
        assert load_checkpoint(path) == {"a": 1}

    def test_bench_history_reader_drops_torn_tail(self, tmp_path):
        from repro.obs.bench import append_history, make_record, read_history

        path = tmp_path / "history.jsonl"
        append_history(path, [make_record("metric", 1.0, "s")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "torn"')
        records = read_history(path)
        assert [r.name for r in records] == ["metric"]

    def test_log_reader_drops_torn_tail(self, tmp_path):
        from repro.obs.logging import (
            configure_logging,
            read_log_jsonl,
            reset_logging,
        )

        path = tmp_path / "logs.jsonl"
        logger = configure_logging(path)
        logger.info("event.one")
        reset_logging()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 1.0, "lev')
        records = read_log_jsonl(path)
        assert [r.event for r in records] == ["event.one"]
