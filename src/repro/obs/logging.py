"""Dependency-free structured JSONL logging, correlated to traces.

``logging.basicConfig`` gives humans lines to read; a fleet of worker
processes needs logs a *program* can merge, filter, and join against
spans.  This module writes one JSON object per line with the fields
that make cross-process debugging possible::

    {"ts": 1754650000.123, "level": "info", "event": "fleet.point",
     "message": "", "pid": 4242, "thread": "MainThread",
     "trace_id": "9f1c...", "span_id": 17, "worker_id": "w1",
     "fields": {"spec": "Qualcomm-2016-003"}}

Correlation is automatic: every record stamps the calling thread's
:class:`~repro.obs.context.TraceContext` (trace id, worker id) and the
innermost *active* span id of the global tracer, so a merged log line
can be joined back to the exact span that emitted it.

Design constraints mirror the rest of ``repro.obs``:

1. *Disabled is free.*  :func:`log_event` is one module-global ``None``
   check when no logger is configured — cheap enough to leave in the
   fleet evaluation loop, and the benchmark suite holds the hooked
   loop within the 1% disabled-overhead budget.
2. *Crash tolerant.*  Records are appended and flushed eagerly;
   :func:`read_log_jsonl` tolerates a torn final line (an interrupted
   append) exactly like :mod:`repro.resilience.checkpoint`, but fails
   loudly on corruption anywhere else.
3. *Dependency free.*  ``json``, ``time``, ``threading`` only.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from ..errors import ObservabilityError
from .context import current_context
from .trace import get_tracer

#: Accepted levels, least to most severe (the filtering order).
LOG_LEVELS = ("debug", "info", "warning", "error")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LOG_LEVELS)}


@dataclass(frozen=True)
class LogRecord:
    """One structured log line (the JSONL schema, field for field)."""

    ts: float  # wall-clock epoch seconds (time.time)
    level: str
    event: str
    message: str = ""
    pid: int = 0
    thread: str = ""
    trace_id: str = ""
    span_id: int | None = None
    worker_id: str = ""
    request_id: str = ""
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "level": self.level,
            "event": self.event,
            "message": self.message,
            "pid": self.pid,
            "thread": self.thread,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "worker_id": self.worker_id,
            "request_id": self.request_id,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogRecord":
        span_id = data.get("span_id")
        return cls(
            ts=float(data["ts"]),
            level=str(data["level"]),
            event=str(data["event"]),
            message=str(data.get("message", "")),
            pid=int(data.get("pid", 0)),
            thread=str(data.get("thread", "")),
            trace_id=str(data.get("trace_id", "")),
            span_id=None if span_id is None else int(span_id),
            worker_id=str(data.get("worker_id", "")),
            request_id=str(data.get("request_id", "")),
            fields=dict(data.get("fields", {})),
        )


class StructuredLogger:
    """Appends correlated JSONL records to one file.

    Thread safe (one lock around the append) and crash tolerant (each
    record is flushed before the lock is released).  The logger keeps
    its file handle open for the lifetime of the run; :meth:`close` is
    idempotent.
    """

    def __init__(self, path, *, min_level: str = "debug",
                 clock=time.time) -> None:
        if min_level not in _LEVEL_RANK:
            raise ObservabilityError(
                f"min_level must be one of {LOG_LEVELS}, got {min_level!r}"
            )
        self.path = os.fspath(path)
        self.min_level = min_level
        self._min_rank = _LEVEL_RANK[min_level]
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._written = 0

    @property
    def written(self) -> int:
        """Records written since construction."""
        return self._written

    def log(self, level: str, event: str, message: str = "",
            **fields) -> LogRecord | None:
        """Append one record; returns it, or ``None`` when filtered.

        The active span id comes from the calling thread's innermost
        open span (the tracer's stack), so a log line emitted inside
        ``with span(...)`` joins to that span after merge.
        """
        rank = _LEVEL_RANK.get(level)
        if rank is None:
            raise ObservabilityError(
                f"log level must be one of {LOG_LEVELS}, got {level!r}"
            )
        if rank < self._min_rank:
            return None
        context = current_context()
        stack = get_tracer()._stack()
        record = LogRecord(
            ts=self._clock(),
            level=level,
            event=event,
            message=message,
            pid=os.getpid(),
            thread=threading.current_thread().name,
            trace_id=context.trace_id if context else "",
            span_id=stack[-1].span_id if stack else None,
            worker_id=context.worker_id if context else "",
            request_id=context.request_id if context else "",
            fields=fields,
        )
        line = json.dumps(record.to_dict(), sort_keys=True, default=repr)
        with self._lock:
            if self._handle.closed:
                return None
            self._handle.write(line + "\n")
            self._handle.flush()
            self._written += 1
        return record

    def debug(self, event: str, message: str = "", **fields):
        return self.log("debug", event, message, **fields)

    def info(self, event: str, message: str = "", **fields):
        return self.log("info", event, message, **fields)

    def warning(self, event: str, message: str = "", **fields):
        return self.log("warning", event, message, **fields)

    def error(self, event: str, message: str = "", **fields):
        return self.log("error", event, message, **fields)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


#: The process-global logger; ``None`` keeps :func:`log_event` free.
_LOGGER: StructuredLogger | None = None


def configure_logging(path, *, min_level: str = "debug") -> StructuredLogger:
    """Install a global :class:`StructuredLogger` writing to ``path``."""
    global _LOGGER
    if _LOGGER is not None:
        _LOGGER.close()
    _LOGGER = StructuredLogger(path, min_level=min_level)
    return _LOGGER


def get_logger() -> StructuredLogger | None:
    """The global structured logger, or ``None`` when unconfigured."""
    return _LOGGER


def logging_configured() -> bool:
    """True when :func:`log_event` currently writes anywhere."""
    return _LOGGER is not None


def reset_logging() -> None:
    """Close and remove the global logger (test-suite hook)."""
    global _LOGGER
    if _LOGGER is not None:
        _LOGGER.close()
    _LOGGER = None


def log_event(level: str, event: str, message: str = "", **fields):
    """Log through the global logger, or no-op when none is configured.

    The disabled path is a single module-global ``None`` check — cheap
    enough for per-point instrumentation in the fleet evaluation loop.
    """
    if _LOGGER is None:
        return None
    return _LOGGER.log(level, event, message, **fields)


# ---------------------------------------------------------------------
# Reading and summarizing
# ---------------------------------------------------------------------


def read_log_jsonl(path) -> tuple:
    """Parse a JSONL log file back into :class:`LogRecord` objects.

    A torn *final* line (a crashed or killed writer) is skipped
    silently; corruption anywhere else raises — same contract as the
    checkpoint and bench-history readers.
    """
    from ..io.jsonl import read_jsonl_tolerant

    return read_jsonl_tolerant(
        path,
        LogRecord.from_dict,
        error=ObservabilityError,
        label="log record",
    )


def summarize_logs(records) -> dict:
    """Fold log records into a JSON-ready overview.

    Counts per level and per event, the covered wall-clock window, the
    distinct workers/traces seen, and the error records verbatim (they
    are the lines a summary must never hide).
    """
    records = tuple(records)
    by_level = {level: 0 for level in LOG_LEVELS}
    by_event: dict = {}
    by_request: dict = {}
    workers: set = set()
    traces: set = set()
    errors = []
    for record in records:
        by_level[record.level] = by_level.get(record.level, 0) + 1
        by_event[record.event] = by_event.get(record.event, 0) + 1
        if record.worker_id:
            workers.add(record.worker_id)
        if record.trace_id:
            traces.add(record.trace_id)
        if record.request_id:
            by_request[record.request_id] = (
                by_request.get(record.request_id, 0) + 1
            )
        if record.level == "error":
            errors.append(record.to_dict())
    summary = {
        "records": len(records),
        "levels": {k: v for k, v in by_level.items() if v},
        "events": dict(sorted(by_event.items())),
        "workers": sorted(workers),
        "traces": sorted(traces),
        "requests": dict(sorted(by_request.items())),
        "errors": errors,
    }
    if records:
        times = [r.ts for r in records]
        summary["first_ts"] = min(times)
        summary["last_ts"] = max(times)
        summary["window_s"] = max(times) - min(times)
    return summary


def format_log_summary(summary: dict) -> str:
    """The :func:`summarize_logs` overview as aligned text."""
    lines = [f"{summary['records']} log record(s)"]
    if "window_s" in summary:
        lines[0] += f" over {summary['window_s']:.3f}s"
    if summary.get("workers"):
        lines.append("workers: " + ", ".join(summary["workers"]))
    if summary.get("levels"):
        lines.append("levels:  " + ", ".join(
            f"{level}={count}"
            for level, count in summary["levels"].items()
        ))
    if summary.get("requests"):
        lines.append(
            f"requests: {len(summary['requests'])} distinct "
            "(X-Gables-Request-Id)"
        )
    if summary.get("events"):
        width = max(len(event) for event in summary["events"])
        lines.append("events:")
        for event, count in summary["events"].items():
            lines.append(f"  {event:<{width}}  {count}")
    for entry in summary.get("errors", ()):
        lines.append(
            f"ERROR {entry['event']}: {entry.get('message', '')} "
            f"(worker {entry.get('worker_id') or '-'})"
        )
    return "\n".join(lines)


def tail_logs(records, n: int = 20) -> tuple:
    """The last ``n`` records by timestamp (stable for ties)."""
    if n < 0:
        raise ObservabilityError(f"tail length must be >= 0, got {n}")
    ordered = sorted(records, key=lambda r: r.ts)
    return tuple(ordered[-n:]) if n else ()
