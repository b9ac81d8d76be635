"""Trace context: ids, the per-thread current context, clock anchors."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    TraceContext,
    anchor_offset,
    clock_anchor,
    configure_logging,
    context_scope,
    current_context,
    log_event,
    new_context,
    new_trace_id,
    read_log_jsonl,
    set_context,
)


class TestTraceContext:
    def test_new_trace_id_is_32_hex_and_unique(self):
        first, second = new_trace_id(), new_trace_id()
        assert len(first) == 32
        assert set(first) <= set("0123456789abcdef")
        assert first != second

    def test_empty_trace_id_rejected(self):
        with pytest.raises(ObservabilityError, match="trace_id"):
            TraceContext(trace_id="")

    def test_child_keeps_trace_identity(self):
        parent = new_context("run-1")
        child = parent.child(worker_id="w3", shard=3)
        assert child.trace_id == parent.trace_id
        assert child.fleet_run_id == "run-1"
        assert (child.worker_id, child.shard) == ("w3", 3)
        # The parent is frozen; deriving a child never mutates it.
        assert parent.worker_id == ""
        assert parent.shard is None

    def test_dict_round_trip(self):
        context = TraceContext(
            trace_id="ab" * 16, parent_span_id=17,
            fleet_run_id="run-2", worker_id="w0", shard=0,
        )
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_current_context_install_and_scope(self):
        assert current_context() is None
        outer = new_context()
        set_context(outer)
        inner = outer.child(worker_id="w1", shard=1)
        with context_scope(inner):
            assert current_context() is inner
        assert current_context() is outer

    def test_set_context_rejects_non_context(self):
        with pytest.raises(ObservabilityError, match="TraceContext"):
            set_context("not a context")

    def test_overlapping_thread_scopes_keep_their_own_context(
        self, tmp_path
    ):
        """Two handler threads of a threaded server, interleaved: each
        log record carries its own request id, and neither request's
        context outlives it."""
        path = tmp_path / "log.jsonl"
        configure_logging(path)
        a_in, b_in, a_logged, b_logged, a_out = (
            threading.Event() for _ in range(5)
        )

        def request(name, entered, log_after, logged, exit_after):
            context = TraceContext(trace_id=new_trace_id(),
                                   request_id=f"req-{name}")
            with context_scope(context):
                entered.set()
                log_after.wait(5)
                log_event("info", f"request.{name}")
                logged.set()
                exit_after.wait(5)

        # A enters, B enters, A logs, B logs, A exits, B exits.
        def request_a():
            request("a", a_in, b_in, a_logged, b_logged)
            a_out.set()

        def request_b():
            a_in.wait(5)
            request("b", b_in, a_logged, b_logged, a_out)

        threads = [threading.Thread(target=request_a),
                   threading.Thread(target=request_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        records = {r.event: r.request_id for r in read_log_jsonl(path)}
        assert records == {"request.a": "req-a", "request.b": "req-b"}
        assert current_context() is None


class TestClockAnchor:
    def test_anchor_samples_this_process(self):
        before = time.time()
        anchor = clock_anchor()
        after = time.time()
        assert before <= anchor["wall_s"] <= after
        assert anchor["pid"] == os.getpid()

    def test_offset_rebases_monotonic_onto_wall(self):
        anchor = clock_anchor()
        now_mono = time.perf_counter()
        rebased = now_mono + anchor_offset(anchor)
        assert abs(rebased - time.time()) < 0.5

    def test_offset_rejects_malformed_anchor(self):
        with pytest.raises(ObservabilityError, match="anchor"):
            anchor_offset({"wall_s": "not a number"})
