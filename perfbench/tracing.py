"""Benchmark-owned tracing: wrappers, in-memory spans, self time.

The program is not edited.  :class:`Tracer` replaces public functions
*where they are imported* (``repro.serve.service.evaluate_batch``, the
``EvaluationService.handle_*`` methods, ...) with thin wrappers that
record one span per call, and :meth:`Tracer.restore` puts every
original back.  Spans stay in memory until :meth:`Tracer.dump` writes
them as JSON lines at the end of a run.

A span carries a name, its layer, start and end (``perf_counter_ns``),
the enclosing span on the same thread (``parent``), its nesting depth,
and the served request id when one is current (``rid``).  A layer's
self time is its span minus the part its child spans cover
(:func:`attribute`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass

#: (module[:class], attribute, layer) wrapped in every traced process.
#: The attribute is replaced in the module that *imports* the
#: function, so the calls made from that module are the ones traced.
CORE_TARGETS = (
    ("repro.explore.sweep", "evaluate_batch", "core.batch"),
    ("repro.explore.sweep", "evaluate_variant_batch", "core.batch"),
    ("repro.explore.sweep2d", "evaluate_batch", "core.batch"),
    ("repro.explore.sweep2d", "evaluate_variant_batch", "core.batch"),
    ("repro.core.batch", "evaluate_lowered_batch", "core.batch"),
    ("repro.core.batch", "prepare_batch", "core.batch.prepare"),
    ("repro.core.batch", "compile_phase", "core.compile"),
)

#: Extra targets inside the server process.
SERVE_TARGETS = (
    ("repro.serve.service", "parse_eval_request", "serve.protocol"),
    ("repro.serve.service", "parse_sweep_request", "serve.protocol"),
    ("repro.serve.service", "parse_variants_request", "serve.protocol"),
    ("repro.serve.service", "evaluate_batch", "core.batch"),
    ("repro.serve.service", "encode_result", "io.json_codec"),
    ("repro.serve.service", "sweep_fraction", "explore.sweep"),
    ("repro.serve.service", "sweep_intensity", "explore.sweep"),
    ("repro.serve.service", "sweep_memory_bandwidth", "explore.sweep"),
    ("repro.serve.service:EvaluationService", "handle_eval",
     "serve.service"),
    ("repro.serve.service:EvaluationService", "handle_sweep",
     "serve.service"),
    ("repro.serve.service:EvaluationService", "handle_variants",
     "serve.service"),
    ("repro.serve.service:ResultCache", "get", "serve.service.cache"),
    ("repro.serve.service:ResultCache", "put", "serve.service.cache"),
) + CORE_TARGETS


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: int
    end: int
    thread: int
    depth: int
    rid: str | None
    attrs: dict

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "layer": self.layer, "start": self.start, "end": self.end,
            "thread": self.thread, "depth": self.depth, "rid": self.rid,
            "attrs": self.attrs,
        }


def _rows(args, kwargs) -> int | None:
    """K of a batch call: the leading dimension of its first grid."""
    candidates = (*args[1:4], kwargs.get("fractions"),
                  kwargs.get("memory_bandwidth"))
    for value in candidates:
        k = getattr(value, "k", None)
        if isinstance(k, int):
            return k
        shape = getattr(value, "shape", None)
        if shape:
            return int(shape[0])
    return None


def _describe(layer: str, args, kwargs, result) -> dict:
    """Per-span attributes: batch rows and tier, sweep points."""
    if layer == "core.batch":
        return {
            "rows": _rows(args, kwargs),
            "compiled": type(result).__name__ == "FusedBatchResult",
        }
    if layer == "explore.sweep":
        points = getattr(result, "points", None)
        if points is None:
            points = getattr(result, "cells", ())
        return {"points": len(points)}
    return {}


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag the spans this thread records from now on with ``rid``.

        Served requests are matched to their spans after the run
        instead (the server cannot see the client's request numbers);
        see :func:`perfbench.serve.match_requests`.
        """
        self._local.rid = rid

    def call(self, fn, name: str, layer: str, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one recorded span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        rid = getattr(self._local, "rid", None)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(
                sid, parent, name, layer, start, end,
                threading.get_ident(), len(stack), rid,
                _describe(layer, args, kwargs, result),
            ))

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(fn, name, layer, *args, **kwargs)

        return wrapper

    def install(self, targets) -> int:
        """Wrap every importable target; returns how many were wrapped.

        A target that no longer exists is skipped, so a refactor that
        renames an internal entry point loses that layer's spans
        instead of breaking the benchmark.
        """
        count = 0
        for owner_path, attr, layer in targets:
            module_path, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_path)
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            if class_name:
                # The raw function from the class body, so restoring
                # puts back exactly what was there.
                original = owner.__dict__.get(attr, original)
            name = f"{owner_path.replace(':', '.')}.{attr}"
            setattr(owner, attr, self.wrap(original, name, layer))
            self._installed.append((owner, attr, original))
            count += 1
        return count

    def restore(self) -> None:
        """Put every wrapped original back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def self_seconds(roots, spans) -> dict:
    """Self seconds per layer under each root span, summed.

    Each root's window is attributed (:func:`attribute`) over the
    spans nested in it on the same thread.
    """
    by_thread: dict = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    for group in by_thread.values():
        group.sort(key=lambda s: s.start)
    layers: dict = {}
    for root in roots:
        group = by_thread.get(root.thread, ())
        nested = [
            (s.id, s.start, s.end, s.depth) for s in group
            if root.start <= s.start and s.end <= root.end
        ]
        layer_of = {s.id: s.layer for s in group}
        for key, ns in attribute(root.start, root.end, nested).items():
            layer = layer_of.get(key, root.layer)
            layers[layer] = layers.get(layer, 0.0) + ns / 1e9
    return layers


def batch_counters(spans) -> dict:
    """Counts at the ``core.batch`` and ``explore.sweep`` boundaries.

    A batch call is a ``core.batch`` span not nested in another one
    (``evaluate_variant_batch`` reaches ``evaluate_lowered_batch``:
    one call).  Swept points are batched when the driver's span has a
    batch call beneath it.
    """
    by_id = {s.id: s for s in spans}

    def parent_layer(span):
        parent = by_id.get(span.parent)
        return None if parent is None else parent.layer

    calls = [
        s for s in spans
        if s.layer == "core.batch" and parent_layer(s) != "core.batch"
    ]
    rows = sum(s.attrs.get("rows") or 0 for s in calls)
    compiled_rows = sum(
        s.attrs.get("rows") or 0 for s in calls if s.attrs.get("compiled")
    )
    drivers = [s for s in spans if s.layer == "explore.sweep"]
    batched = sum(
        s.attrs.get("rows") or 0 for s in calls
        if parent_layer(s) == "explore.sweep"
    )
    return {
        "calls": len(calls),
        "rows": rows,
        "compiled_rows": compiled_rows,
        "batch_s": sum(s.duration for s in calls) / 1e9,
        "prepare_s": sum(
            s.duration for s in spans if s.layer == "core.batch.prepare"
        ) / 1e9,
        "swept_points": sum(s.attrs.get("points") or 0 for s in drivers),
        "batched_points": batched,
    }


def attribute(start: int, end: int, spans) -> dict:
    """Self time of each span inside the window ``[start, end)``.

    ``spans`` are ``(key, start, end, depth)`` tuples.  Every instant
    of the window goes to the deepest span covering it (ties to the
    later one in the list), or to ``None`` when no span covers it, so
    the returned values always sum to ``end - start``.
    """
    clipped = [
        (key, max(s, start), min(e, end), depth)
        for key, s, e, depth in spans
        if min(e, end) > max(s, start)
    ]
    bounds = sorted({start, end, *(s for _, s, _, _ in clipped),
                     *(e for _, _, e, _ in clipped)})
    totals: dict = {}
    for left, right in zip(bounds, bounds[1:]):
        owner, best = None, -1
        for key, s, e, depth in clipped:
            if s <= left and e >= right and depth >= best:
                owner, best = key, depth
        totals[owner] = totals.get(owner, 0) + (right - left)
    return totals
