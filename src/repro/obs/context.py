"""Trace context: ids, the current context, clock anchors.

A single process correlates its telemetry implicitly — spans nest on a
thread, metrics live in one registry.  A *fleet* of worker processes
needs an explicit thread of identity: every shard of telemetry must
say which trace it belongs to, which fleet run spawned it, and which
worker produced it.  This module provides that identity as a frozen
:class:`TraceContext`, installed per thread with :func:`set_context`
or :func:`context_scope` and read back by the structured logger and
the service client (:func:`current_context`).

It travels explicitly, in the data the receiver gets: the fleet runner
(:mod:`repro.explore.fleet`) puts each shard's context in the shard's
payload, which a forked worker inherits and a spawned one is sent, and
installs it for the shard's duration, and the
service propagates it across HTTP as ``X-Gables-*`` headers
(:func:`inject_headers` / :func:`extract_headers`), so a child's
telemetry carries its parent's ``trace_id`` and everything merges into
one trace.

Because spans are timed with ``time.perf_counter`` — a *per-process*
monotonic clock with an arbitrary epoch — cross-process timestamps are
meaningless until re-anchored.  :func:`clock_anchor` captures a
wall-clock↔monotonic correspondence for the current process; the
telemetry merger (:mod:`repro.obs.collect`) uses each shard's anchor to
rebase span times onto the shared wall clock so Perfetto lanes from
different workers line up.

Everything here is stdlib-only and adds nothing to hot paths: the
context is consulted when telemetry is *serialized*, not per event.
"""

from __future__ import annotations

import contextvars
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..errors import ObservabilityError

#: HTTP header names used for wire-level propagation.  The service
#: client injects these on every request; the server adopts them so
#: client and server spans join into one trace (``docs/monitoring.md``).
HEADER_TRACE_ID = "X-Gables-Trace-Id"
HEADER_PARENT_SPAN = "X-Gables-Parent-Span"

#: All context-carrying HTTP headers, in injection order.
CONTEXT_HEADERS = (HEADER_TRACE_ID, HEADER_PARENT_SPAN)


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (random, collision-negligible)."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class TraceContext:
    """Identity one process's telemetry carries.

    ``trace_id`` names the distributed trace (one fleet run = one
    trace); ``parent_span_id`` is the span in the *parent* process
    under which this process's root spans logically nest.
    ``fleet_run_id``/``worker_id``/``shard`` are the fleet provenance
    fields stamped into logs, shard manifests, and bench records.
    """

    trace_id: str
    parent_span_id: int | None = None
    fleet_run_id: str = ""
    worker_id: str = ""
    shard: int | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.trace_id:
            raise ObservabilityError("TraceContext needs a non-empty trace_id")

    def child(self, *, worker_id: str, shard: int) -> "TraceContext":
        """The context a worker adopts: same trace, own provenance."""
        return replace(self, worker_id=worker_id, shard=int(shard))

    def to_dict(self) -> dict:
        """A JSON-ready mapping (the shard-manifest field)."""
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "fleet_run_id": self.fleet_run_id,
            "worker_id": self.worker_id,
            "shard": self.shard,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        """Inverse of :meth:`to_dict`."""
        shard = data.get("shard")
        parent = data.get("parent_span_id")
        return cls(
            trace_id=str(data["trace_id"]),
            parent_span_id=None if parent is None else int(parent),
            fleet_run_id=str(data.get("fleet_run_id", "")),
            worker_id=str(data.get("worker_id", "")),
            shard=None if shard is None else int(shard),
            request_id=str(data.get("request_id", "")),
        )


def new_context(fleet_run_id: str = "") -> TraceContext:
    """A root context for a fresh trace (the fleet parent's)."""
    return TraceContext(trace_id=new_trace_id(), fleet_run_id=fleet_run_id)


#: This thread's context.  A threaded server's handlers each hold their
#: own, and a new thread starts with none.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """This thread's :class:`TraceContext`, or ``None``."""
    return _CURRENT.get()


def set_context(context: TraceContext | None) -> TraceContext | None:
    """Install ``context`` as this thread's; returns the previous one."""
    if context is not None and not isinstance(context, TraceContext):
        raise ObservabilityError("set_context needs a TraceContext or None")
    previous = _CURRENT.get()
    _CURRENT.set(context)
    return previous


def reset_context() -> None:
    """Drop this thread's context (test-suite hook)."""
    set_context(None)


@contextmanager
def context_scope(context: TraceContext):
    """Install ``context`` as this thread's for a ``with`` block."""
    previous = set_context(context)
    try:
        yield context
    finally:
        set_context(previous)


# ---------------------------------------------------------------------
# HTTP-header propagation
# ---------------------------------------------------------------------


def inject_headers(context: TraceContext, headers=None,
                   *, parent_span_id=None) -> dict:
    """Serialize ``context`` into HTTP request ``headers``.

    Writes ``X-Gables-Trace-Id`` and, when known, ``X-Gables-Parent-Span``
    (``parent_span_id`` overrides the context's own, letting a client
    name its *live* request span as the parent).  Returns the mapping
    that was written.
    """
    if headers is None:
        headers = {}
    headers[HEADER_TRACE_ID] = context.trace_id
    if parent_span_id is None:
        parent_span_id = context.parent_span_id
    if parent_span_id is None:
        headers.pop(HEADER_PARENT_SPAN, None)
    else:
        headers[HEADER_PARENT_SPAN] = str(parent_span_id)
    return headers


def extract_headers(headers) -> TraceContext | None:
    """Read a :class:`TraceContext` back out of HTTP ``headers``.

    ``headers`` is any mapping with ``.get`` (an
    ``http.server`` message object works, and is case-insensitive).
    Returns ``None`` when no trace id is present; a malformed parent
    span id raises :class:`~repro.errors.ObservabilityError`.
    """
    trace_id = headers.get(HEADER_TRACE_ID)
    if not trace_id:
        return None
    raw_parent = headers.get(HEADER_PARENT_SPAN)
    if raw_parent is None or raw_parent == "":
        parent_span_id = None
    else:
        try:
            parent_span_id = int(raw_parent)
        except ValueError:
            raise ObservabilityError(
                f"header {HEADER_PARENT_SPAN}={raw_parent!r} is not an "
                "integer"
            ) from None
    return TraceContext(trace_id=str(trace_id),
                        parent_span_id=parent_span_id)


# ---------------------------------------------------------------------
# Wall-clock ↔ monotonic anchoring
# ---------------------------------------------------------------------


def clock_anchor() -> dict:
    """A wall↔monotonic correspondence for *this* process, JSON-ready.

    ``wall_s`` (``time.time``) and ``mono_s`` (``time.perf_counter``)
    are sampled back to back; ``mono_s`` is re-sampled after and the
    midpoint used, bounding the skew of the pair to half the sampling
    gap.  ``wall_s - mono_s`` is the offset that rebases this process's
    span timestamps onto the shared wall clock.
    """
    mono_before = time.perf_counter()
    wall = time.time()
    mono_after = time.perf_counter()
    return {
        "wall_s": wall,
        "mono_s": 0.5 * (mono_before + mono_after),
        "pid": os.getpid(),
    }


def anchor_offset(anchor: dict) -> float:
    """``wall_s - mono_s``: add to a monotonic stamp for wall time."""
    try:
        return float(anchor["wall_s"]) - float(anchor["mono_s"])
    except (KeyError, TypeError, ValueError):
        raise ObservabilityError(
            f"clock anchor must carry numeric wall_s/mono_s, got {anchor!r}"
        ) from None
