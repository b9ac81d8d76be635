"""Per-worker telemetry shards and the cross-process merger.

A fleet run spreads one logical sweep across worker processes; each
worker collects its own telemetry — spans, metrics, structured logs,
and liveness heartbeats — because the process-global collectors in
:mod:`repro.obs` are exactly that: per process.  This
module gives every worker a *shard directory* to drain its collectors
into, and gives the parent a merger that folds the shards back into
one coherent trace, one metrics snapshot, one profile tree, and one
log stream.

Shard layout (one directory per worker under the telemetry root)::

    telemetry/
      worker-w0/
        manifest.json     identity: context, pid, clock anchor
        spans.jsonl       finished spans (repro.obs.export JSONL)
        metrics.json      registry snapshot
        logs.jsonl        structured log records
        heartbeats.jsonl  periodic CPU/RSS liveness samples
      worker-w1/
        ...

The manifest is written *eagerly* at collector construction, so a
worker that crashes mid-shard still leaves its identity and clock
anchor behind; every JSONL stream tolerates a torn final line on read
(:func:`repro.io.read_jsonl_tolerant`, the checkpoint and log readers'
contract), and a malformed stream or ``metrics.json`` raises
:class:`~repro.errors.ObservabilityError` naming the file.

Merging obeys three laws, each pinned by a property test:

- **spans are a union** — span ids are renumbered into disjoint
  per-shard ranges (ids are only unique per process) and timestamps
  are rebased onto the shared wall clock via each shard's
  wall↔monotonic anchor, so nothing collides and Perfetto lanes line
  up;
- **metrics add** — :func:`repro.obs.metrics.merge_snapshots`;
- **profiles add** — the merged profile is
  :func:`~repro.obs.profile.summarize_spans` over the renumbered spans
  on each shard's *own* clock (not rebased: at wall-clock magnitudes
  one ulp is ~0.24 µs), so every node's count is the sum over shards
  and its total the exact ``math.fsum`` of the shard-local durations.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field, replace

from ..errors import ObservabilityError
from ..io.jsonl import read_jsonl_tolerant
from .context import TraceContext, anchor_offset, clock_anchor
from .export import chrome_span_events, read_trace_jsonl, write_trace_jsonl
from .logging import get_logger, read_log_jsonl
from .metrics import get_registry, merge_snapshots
from .profile import profile_to_dict, summarize_spans
from .trace import get_tracer

#: Shard file names (the on-disk contract of a worker directory).
MANIFEST_FILE = "manifest.json"
SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"
LOGS_FILE = "logs.jsonl"
HEARTBEATS_FILE = "heartbeats.jsonl"

#: The merged view's profile tree (derived from spans, never sharded).
PROFILE_FILE = "profile.json"

MANIFEST_SCHEMA = 1


def resource_sample() -> dict:
    """One CPU/RSS liveness sample for the current process, JSON-ready.

    ``cpu_s`` is user+system time from ``os.times``; ``rss_kb`` is the
    peak resident set from ``getrusage`` (kilobytes on Linux), or
    ``None`` where the ``resource`` module is unavailable.
    """
    times = os.times()
    sample = {
        "ts": time.time(),
        "cpu_s": times.user + times.system,
        "rss_kb": None,
    }
    try:
        import resource

        sample["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        pass
    return sample


def shard_dir_name(worker_id: str) -> str:
    """The shard directory name for one worker."""
    if not worker_id:
        raise ObservabilityError("shard directories need a worker_id")
    return f"worker-{worker_id}"


class ShardCollector:
    """Drains one worker's process-global collectors into a shard.

    Construction creates the shard directory and writes the manifest
    (identity + clock anchor) immediately; :meth:`heartbeat` appends a
    liveness sample; :meth:`finalize` snapshots the tracer and registry
    into the shard files.  The structured-log path is exposed as
    :attr:`log_path` for ``configure_logging``.
    """

    def __init__(self, root, context: TraceContext) -> None:
        self.context = context
        self.dir = os.path.join(os.fspath(root), shard_dir_name(context.worker_id))
        os.makedirs(self.dir, exist_ok=True)
        self.anchor = clock_anchor()
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "pid": os.getpid(),
            "anchor": self.anchor,
            "context": context.to_dict(),
        }
        with open(self.path(MANIFEST_FILE), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self._heartbeats = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    @property
    def log_path(self) -> str:
        """Where this shard's structured log belongs."""
        return self.path(LOGS_FILE)

    def heartbeat(self) -> dict:
        """Append one :func:`resource_sample` to the heartbeat stream."""
        sample = resource_sample()
        with open(self.path(HEARTBEATS_FILE), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(sample, sort_keys=True) + "\n")
            handle.flush()
        self._heartbeats += 1
        return sample

    @property
    def heartbeats_written(self) -> int:
        return self._heartbeats

    def finalize(self) -> dict:
        """Snapshot tracer/registry into the shard files.

        Returns ``{"spans": n, "metrics": n}`` so callers can log what
        the shard holds.  The structured logger, if it points at this
        shard, is flushed by its own eager writes.
        """
        spans = get_tracer().finished_spans()
        write_trace_jsonl(self.path(SPANS_FILE), spans)
        snapshot = get_registry().snapshot()
        with open(self.path(METRICS_FILE), "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger = get_logger()
        if logger is not None and logger.path == self.log_path:
            logger.close()
        return {"spans": len(spans), "metrics": len(snapshot)}


@dataclass(frozen=True)
class TelemetryShard:
    """One worker's telemetry, read back from its shard directory."""

    dir: str
    context: TraceContext
    pid: int
    anchor: dict
    spans: tuple = ()
    metrics: dict = field(default_factory=dict)
    logs: tuple = ()
    heartbeats: tuple = ()

    @property
    def worker_id(self) -> str:
        return self.context.worker_id

    @property
    def shard(self):
        return self.context.shard


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_metrics(path) -> dict:
    try:
        snapshot = _read_json(path)
    except ValueError as err:
        raise ObservabilityError(
            f"{path}: unreadable metrics snapshot ({err})"
        ) from None
    if not isinstance(snapshot, dict):
        raise ObservabilityError(
            f"{path}: metrics snapshot is not a JSON object"
        )
    return snapshot


def _read_heartbeats(path) -> tuple:
    return read_jsonl_tolerant(
        path, error=ObservabilityError, label="heartbeat sample"
    )


def read_shard(shard_dir) -> TelemetryShard:
    """Read one worker directory back into a :class:`TelemetryShard`.

    The manifest is mandatory — a directory without one is not a shard.
    Every other stream is optional (a crashed worker may never have
    finalized); missing files read as empty, and a torn final JSONL
    line is dropped.
    """
    shard_dir = os.fspath(shard_dir)
    manifest_path = os.path.join(shard_dir, MANIFEST_FILE)
    try:
        manifest = _read_json(manifest_path)
        context = TraceContext.from_dict(manifest["context"])
        pid = int(manifest["pid"])
        anchor = dict(manifest["anchor"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ObservabilityError(
            f"{shard_dir}: unreadable shard manifest ({err})"
        ) from None

    def optional(name, empty, reader):
        path = os.path.join(shard_dir, name)
        if not os.path.exists(path):
            return empty
        return reader(path)

    return TelemetryShard(
        dir=shard_dir,
        context=context,
        pid=pid,
        anchor=anchor,
        spans=optional(SPANS_FILE, (), read_trace_jsonl),
        metrics=optional(METRICS_FILE, {}, _read_metrics),
        logs=optional(LOGS_FILE, (), read_log_jsonl),
        heartbeats=optional(HEARTBEATS_FILE, (), _read_heartbeats),
    )


def discover_shards(root) -> tuple:
    """Shard directories under ``root`` (sorted by worker directory name)."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise ObservabilityError(f"telemetry directory not found: {root}")
    found = []
    for name in sorted(os.listdir(root)):
        candidate = os.path.join(root, name)
        if os.path.isdir(candidate) and os.path.exists(
            os.path.join(candidate, MANIFEST_FILE)
        ):
            found.append(candidate)
    return tuple(found)


def load_shards(root) -> tuple:
    """Read every shard under ``root``; raises when none exist."""
    dirs = discover_shards(root)
    if not dirs:
        raise ObservabilityError(
            f"no telemetry shards (worker-*/{MANIFEST_FILE}) under {root}"
        )
    return tuple(read_shard(d) for d in dirs)


# ---------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class MergedTelemetry:
    """The fleet's telemetry folded back into one coherent view.

    ``spans`` are renumbered (disjoint id ranges per shard) and rebased
    onto the wall clock; ``metrics`` obey the snapshot addition laws;
    ``profile`` is :func:`~repro.obs.profile.summarize_spans` over the
    renumbered spans on each shard's own clock; ``logs`` are every
    worker's records in timestamp order.
    """

    fleet_run_id: str
    trace_id: str
    workers: tuple
    spans: tuple
    metrics: dict
    profile: tuple
    logs: tuple
    heartbeats: dict  # worker_id -> tuple of samples
    shards: tuple = ()

    def summary(self) -> dict:
        """Counts and identity, JSON-ready (the merge report)."""
        return {
            "fleet_run_id": self.fleet_run_id,
            "trace_id": self.trace_id,
            "workers": list(self.workers),
            "spans": len(self.spans),
            "metrics": len(self.metrics),
            "profile_roots": len(self.profile),
            "log_records": len(self.logs),
            "heartbeats": {
                worker: len(samples)
                for worker, samples in sorted(self.heartbeats.items())
            },
        }


def _renumbered(spans, id_offset: int) -> list:
    return [
        replace(
            record,
            span_id=record.span_id + id_offset,
            parent_id=(
                None if record.parent_id is None
                else record.parent_id + id_offset
            ),
        )
        for record in spans
    ]


def _rebased(spans, offset_s: float) -> list:
    return [
        replace(
            record,
            start_s=record.start_s + offset_s,
            end_s=None if record.end_s is None else record.end_s + offset_s,
        )
        for record in spans
    ]


def merge_telemetry(shards) -> MergedTelemetry:
    """Fold worker shards into one :class:`MergedTelemetry`.

    Shards are processed in ``(shard index, worker id)`` order so the
    merge is deterministic regardless of directory listing order.
    """
    shards = tuple(shards)
    if not shards:
        raise ObservabilityError("merge_telemetry needs at least one shard")
    ordered = sorted(
        shards,
        key=lambda s: (s.shard if s.shard is not None else -1, s.worker_id),
    )
    trace_ids = {s.context.trace_id for s in ordered}
    if len(trace_ids) > 1:
        raise ObservabilityError(
            "shards belong to different traces: "
            + ", ".join(sorted(trace_ids))
        )
    local, spans = [], []
    id_offset = 0
    for shard in ordered:
        renumbered = _renumbered(shard.spans, id_offset)
        local.extend(renumbered)
        spans.extend(_rebased(renumbered, anchor_offset(shard.anchor)))
        if shard.spans:
            id_offset += max(r.span_id for r in shard.spans) + 1
    logs = tuple(sorted(
        (record for shard in ordered for record in shard.logs),
        key=lambda r: (r.ts, r.worker_id),
    ))
    return MergedTelemetry(
        fleet_run_id=ordered[0].context.fleet_run_id,
        trace_id=ordered[0].context.trace_id,
        workers=tuple(s.worker_id for s in ordered),
        spans=tuple(spans),
        metrics=merge_snapshots(*(s.metrics for s in ordered)),
        profile=summarize_spans(local),
        logs=logs,
        heartbeats={s.worker_id: s.heartbeats for s in ordered},
        shards=ordered,
    )


def merged_chrome_trace(shards) -> dict:
    """Every shard's spans as one Chrome trace document.

    Each worker keeps its real ``pid`` (its own Perfetto process lane,
    labelled ``worker <id>``), and all timestamps share a single zero
    point: the earliest wall-rebased span start across the fleet.
    """
    shards = tuple(shards)
    starts = [
        record.start_s + anchor_offset(shard.anchor)
        for shard in shards
        for record in shard.spans
        if record.end_s is not None
    ]
    t0 = min(starts, default=0.0)
    events = []
    for shard in shards:
        label = f"worker {shard.worker_id}"
        if shard.shard is not None:
            label += f" (shard {shard.shard})"
        events.extend(chrome_span_events(
            shard.spans,
            pid=shard.pid,
            process_name=label,
            clock_offset_s=anchor_offset(shard.anchor),
            t0=t0,
        ))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_merged(out_dir, merged: MergedTelemetry) -> dict:
    """Write a merged view under ``out_dir``; returns name -> path.

    Emits ``trace.chrome.json`` (one Perfetto lane per worker),
    ``spans.jsonl`` (the renumbered union), ``metrics.json``,
    ``profile.json``, ``logs.jsonl``, and ``summary.json``.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def emit_json(name, document):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths[name] = path

    spans_path = os.path.join(out_dir, SPANS_FILE)
    write_trace_jsonl(spans_path, merged.spans)
    paths[SPANS_FILE] = spans_path
    logs_path = os.path.join(out_dir, LOGS_FILE)
    with open(logs_path, "w", encoding="utf-8") as handle:
        for record in merged.logs:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    paths[LOGS_FILE] = logs_path
    emit_json("trace.chrome.json", merged_chrome_trace(merged.shards))
    emit_json(METRICS_FILE, merged.metrics)
    emit_json(PROFILE_FILE, profile_to_dict(merged.profile))
    emit_json("summary.json", merged.summary())
    return paths


# ---------------------------------------------------------------------
# Fleet health: heartbeat / straggler analysis
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's liveness digest for the fleet health table."""

    worker_id: str
    shard: int | None
    pid: int
    heartbeats: int
    wall_s: float  # first..last heartbeat window
    cpu_s: float  # last cumulative CPU sample
    rss_kb: int | None  # peak RSS across samples
    straggler: bool


def straggler_report(shards, *, threshold: float = 1.5) -> tuple:
    """Per-worker health rows; flags workers ``threshold``× the median.

    A worker whose heartbeat window exceeds ``threshold`` times the
    fleet median wall window (``statistics.median``: with two workers,
    the mean of both) is flagged a straggler.  Workers with no
    heartbeats report a zero window and are never flagged (they either
    finished before the first beat or never started — the log stream
    says which).
    """
    if threshold <= 0:
        raise ObservabilityError(
            f"straggler threshold must be > 0, got {threshold!r}"
        )
    shards = tuple(shards)
    windows = {}
    for shard in shards:
        times = [sample["ts"] for sample in shard.heartbeats]
        windows[shard.worker_id] = (max(times) - min(times)) if times else 0.0
    active = [w for w in windows.values() if w > 0]
    median = statistics.median(active) if active else 0.0
    rows = []
    for shard in shards:
        wall = windows[shard.worker_id]
        cpu = 0.0
        rss = None
        for sample in shard.heartbeats:
            cpu = max(cpu, float(sample.get("cpu_s") or 0.0))
            sample_rss = sample.get("rss_kb")
            if sample_rss is not None:
                rss = max(rss or 0, int(sample_rss))
        rows.append(WorkerHealth(
            worker_id=shard.worker_id,
            shard=shard.shard,
            pid=shard.pid,
            heartbeats=len(shard.heartbeats),
            wall_s=wall,
            cpu_s=cpu,
            rss_kb=rss,
            straggler=bool(median > 0 and wall > threshold * median),
        ))
    rows.sort(key=lambda r: (r.shard if r.shard is not None else -1,
                             r.worker_id))
    return tuple(rows)
