"""Trace and metrics serialization: JSONL events, JSON snapshots.

The on-disk trace format is one JSON object per line (JSONL), one line
per *finished* span, in completion order::

    {"name": "core.evaluate", "span_id": 3, "parent_id": 1,
     "thread": "MainThread", "start_s": 0.01, "end_s": 0.02,
     "duration_s": 0.01, "status": "ok", "attributes": {...}}

JSONL keeps traces appendable and greppable; :func:`read_trace_jsonl`
round-trips them back into :class:`~repro.obs.trace.SpanRecord`
objects (which :func:`repro.obs.profile.summarize_spans` folds into the
``gables trace summarize`` tree), and :func:`write_trace_chrome`
re-emits them in the Chrome trace-event format for Perfetto (the
``gables trace export --format chrome`` path).

Metrics snapshots are a single JSON document keyed by metric name (see
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`).
"""

from __future__ import annotations

import json
import math
import os

from ..errors import ObservabilityError
from ..io.jsonl import read_jsonl_tolerant
from .metrics import get_registry
from .trace import SpanRecord, get_tracer


def write_trace_jsonl(path, spans=None) -> int:
    """Write spans (default: the global tracer's) as JSONL.

    Returns the number of events written.
    """
    if spans is None:
        spans = get_tracer().finished_spans()
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_trace_jsonl(path) -> tuple:
    """Parse a JSONL trace file back into :class:`SpanRecord` objects.

    A torn final line (a writer killed mid-append) is dropped; a bad
    line anywhere earlier raises :class:`ObservabilityError` naming the
    file and line (:func:`repro.io.jsonl.read_jsonl_tolerant`).
    """
    return read_jsonl_tolerant(
        path, SpanRecord.from_dict, error=ObservabilityError,
        label="trace event",
    )


def write_metrics_json(path, registry=None) -> dict:
    """Write a metrics snapshot (default: the global registry) as JSON.

    Returns the snapshot that was written.
    """
    if registry is None:
        registry = get_registry()
    snapshot = registry.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot


# ---------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------


def _json_safe(value):
    """Chrome's trace loader wants strict JSON: no Infinity/NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def chrome_span_events(
    spans,
    *,
    pid: int,
    process_name: str | None = None,
    clock_offset_s: float = 0.0,
    t0: float = 0.0,
) -> list:
    """One process's spans as raw Chrome trace events (no envelope).

    The multi-process building block behind :func:`chrome_trace_events`
    and the telemetry merger: events are stamped with the *real*
    ``pid`` of the emitting process (so merged traces render one
    Perfetto process lane per worker), threads get stable per-process
    ``tid`` ordinals, ``clock_offset_s`` rebases this process's
    monotonic span stamps onto a shared clock (the wall↔monotonic
    anchor offset, see :func:`repro.obs.context.anchor_offset`), and
    ``t0`` is the shared zero point *after* rebasing.
    """
    closed = [record for record in spans if record.end_s is not None]
    thread_ids: dict = {}
    for record in closed:
        thread_ids.setdefault(record.thread, len(thread_ids) + 1)
    events = []
    if process_name is not None:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        })
    events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in thread_ids.items()
    )
    for record in closed:
        args = {
            key: _json_safe(value)
            for key, value in record.attributes.items()
        }
        args["span_id"] = record.span_id
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        if record.status != "ok":
            args["status"] = record.status
        events.append({
            "name": record.name,
            "cat": "repro",
            "ph": "X",
            "ts": (record.start_s + clock_offset_s - t0) * 1e6,
            "dur": record.duration_s * 1e6,
            "pid": pid,
            "tid": thread_ids[record.thread],
            "args": args,
        })
    return events


def chrome_trace_events(
    spans=None,
    *,
    pid: int | None = None,
    process_name: str | None = None,
) -> dict:
    """Spans (default: the global tracer's) as a Chrome trace document.

    Produces the JSON-object flavour of the trace-event format —
    ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — with one
    complete (``"ph": "X"``) event per finished span, one
    ``thread_name`` metadata (``"ph": "M"``) event per thread, and an
    optional ``process_name`` metadata event, loadable in Perfetto
    (https://ui.perfetto.dev) and ``chrome://tracing``.  Events carry
    the real ``pid`` of this process (override with ``pid=``) so
    multi-process traces merged from telemetry shards render as
    separate Perfetto lanes.  Timestamps are microseconds relative to
    the earliest span start, so the trace viewport starts at zero.
    """
    if spans is None:
        spans = get_tracer().finished_spans()
    closed = [record for record in spans if record.end_s is not None]
    t0 = min((record.start_s for record in closed), default=0.0)
    events = chrome_span_events(
        closed,
        pid=os.getpid() if pid is None else pid,
        process_name=process_name,
        t0=t0,
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace_chrome(path, spans=None) -> int:
    """Write spans as a Chrome trace-event JSON file.

    Returns the number of span (``"X"``) events written.
    """
    document = chrome_trace_events(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, allow_nan=False)
        handle.write("\n")
    return sum(
        1 for event in document["traceEvents"] if event["ph"] == "X"
    )
