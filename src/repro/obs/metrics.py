"""Named counters, gauges, and bucket histograms in a process-global registry.

Instrumented library code records *what happened* (how many DRAM
arbitration rounds, how many sweep points, how many Pareto candidates)
without deciding where the numbers go; callers snapshot the registry
(:meth:`MetricsRegistry.snapshot`) or export it as JSON
(:func:`repro.obs.export.write_metrics_json`).

Conventions
-----------
Metric names are dotted paths, subsystem first::

    core.evaluate.calls          counter
    sim.dram.contention_rounds   counter
    sim.thermal.throttle_events  counter
    ert.sweep.points             counter
    explore.pareto.candidates    counter

Unlike tracing, metrics are *always on*: an increment is a plain
attribute add on a pre-resolved instrument handle, cheap enough for
every hot path, and the benchmark harness relies on them being
collected with tracing disabled.  Increments are not individually
locked — under CPython's GIL a lost update needs an adversarial thread
interleaving, and these metrics inform engineering judgement, not
billing.  Registry *structure* (instrument creation, reset, snapshot)
is lock-protected.

Two extensions serve the cross-process telemetry layer
(``docs/telemetry.md``):

- **labels** — every instrument accessor takes an optional ``labels``
  mapping (``counter("fleet.points", labels={"worker": "w1"})``); each
  distinct label set is its own instrument, keyed in snapshots as
  ``name{key=value,...}``.  The unlabeled API is unchanged.
- **mergeable snapshots** — :func:`merge_snapshots` combines worker
  snapshots under the addition laws: counter values and histogram
  count, sum and per-bucket counts add, histogram min/max take
  extremes, gauges keep the last writer (they have no meaningful sum).
  The merged histogram is exactly the histogram of every worker's
  observations, so its quantiles lose nothing.
"""

from __future__ import annotations

import bisect
import math
import threading

from ..errors import ObservabilityError

#: Default upper bounds for :class:`BucketHistogram`: a geometric
#: ladder from 100 µs to ~3.5 min (factor 2), tuned for request
#: latencies.  Powers of two keep the bounds bitwise-identical across
#: processes, which the exact merge law depends on.
DEFAULT_BUCKET_BOUNDS = tuple(1e-4 * 2.0 ** i for i in range(21))


def encode_metric_key(name: str, labels=None) -> str:
    """The snapshot key for an instrument: ``name`` or ``name{k=v,...}``.

    Labels are sorted so the encoding is canonical; values are
    stringified (label values are identity, not data).
    """
    if not name:
        raise ObservabilityError("metric name must be non-empty")
    if "{" in name or "}" in name:
        raise ObservabilityError(
            f"metric name {name!r} may not contain braces; pass labels "
            "via the labels mapping"
        )
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels=None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else None
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount!r})"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def to_dict(self) -> dict:
        data = {"type": "counter", "value": self.value}
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels=None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else None
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def to_dict(self) -> dict:
        data = {"type": "gauge", "value": self.value}
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


def bucket_quantile(bounds, buckets, count: int, maximum, q: float):
    """Upper bound of the bucket holding the ``q``-th of ``count``
    observations (``buckets`` per-bucket, one more than ``bounds``).

    An over-estimate by at most one bucket width; the overflow bucket
    reports ``maximum``, the exact observed max.  The one quantile rule
    behind :meth:`BucketHistogram.quantile` and the dashboard's rows.
    """
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        cumulative += bucket_count
        if cumulative >= rank:
            if index < len(bounds):
                return bounds[index]
            return maximum
    return maximum


class BucketHistogram:
    """Fixed log-bucketed distribution with *exact* merge laws.

    The one distribution instrument: it trades per-sample fidelity for
    bucket counts that merge bitwise across processes, and its memory
    stays fixed however long a run records.  Merging two bucket
    histograms (same bounds) yields exactly the histogram of the union
    of their observations, quantiles included.  Upper bounds use
    ``le`` semantics (a value lands in the first bucket whose bound is
    >= value); values above the last bound land in the implicit
    ``+Inf`` overflow bucket.
    """

    __slots__ = ("name", "count", "total", "min", "max", "labels",
                 "bounds", "buckets")

    def __init__(self, name: str, bounds=None, labels=None) -> None:
        bounds = tuple(
            float(b) for b in (DEFAULT_BUCKET_BOUNDS if bounds is None
                               else bounds)
        )
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ObservabilityError(
                f"bucket histogram {name!r} needs finite, strictly "
                "increasing bounds"
            )
        self.name = name
        self.labels = dict(labels) if labels else None
        self.bounds = bounds
        self._init_state()

    def _init_state(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        # One slot per bound plus the +Inf overflow bucket.
        self.buckets = [0] * (len(self.bounds) + 1)

    def record(self, value: float) -> None:
        """Observe one value."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (q in [0, 1]).

        Returns the upper bound of the bucket holding the q-th
        observation — an over-estimate by at most one bucket width,
        which is the histogram's contract.  The overflow bucket
        reports the exact observed max.
        """
        if not 0 <= q <= 1:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            raise ObservabilityError(
                f"bucket histogram {self.name!r} has no observations"
            )
        return bucket_quantile(
            self.bounds, self.buckets, self.count, self.max, q
        )

    def reset(self) -> None:
        self._init_state()

    def to_dict(self) -> dict:
        data = {
            "type": "bucket_histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


class MetricsRegistry:
    """Get-or-create home for named instruments.

    ``reset()`` zeroes every instrument *in place* so module-level
    handles (``_CALLS = counter("core.evaluate.calls")``) stay wired to
    the live registry across test-suite resets.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict = {}

    def _get_or_create(self, name: str, cls, labels=None):
        key = encode_metric_key(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = cls(name, labels=labels)
            elif not isinstance(instrument, cls):
                raise ObservabilityError(
                    f"metric {key!r} already registered as "
                    f"{type(instrument).__name__.lower()}, not "
                    f"{cls.__name__.lower()}"
                )
            return instrument

    def counter(self, name: str, labels=None) -> Counter:
        return self._get_or_create(name, Counter, labels)

    def gauge(self, name: str, labels=None) -> Gauge:
        return self._get_or_create(name, Gauge, labels)

    def bucket_histogram(self, name: str, labels=None) -> BucketHistogram:
        return self._get_or_create(name, BucketHistogram, labels)

    def names(self) -> tuple:
        """Registered metric names, sorted."""
        with self._lock:
            return tuple(sorted(self._instruments))

    def snapshot(self) -> dict:
        """All instruments as a name -> JSON-ready mapping, sorted."""
        with self._lock:
            return {
                name: self._instruments[name].to_dict()
                for name in sorted(self._instruments)
            }

    def reset(self) -> None:
        """Zero every instrument, keeping registrations and handles."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument.reset()

    def clear(self) -> None:
        """Drop every instrument (detaches existing handles)."""
        with self._lock:
            self._instruments.clear()


#: The process-global registry used by all library instrumentation.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def counter(name: str, labels=None) -> Counter:
    """Get or create a counter in the global registry."""
    return _REGISTRY.counter(name, labels)


def gauge(name: str, labels=None) -> Gauge:
    """Get or create a gauge in the global registry."""
    return _REGISTRY.gauge(name, labels)


def bucket_histogram(name: str, labels=None) -> BucketHistogram:
    """Get or create a bucket histogram in the global registry."""
    return _REGISTRY.bucket_histogram(name, labels)


def reset_metrics() -> None:
    """Zero every instrument in the global registry."""
    _REGISTRY.reset()


# ---------------------------------------------------------------------
# Snapshot merging (the cross-process addition laws)
# ---------------------------------------------------------------------


def _merge_entry(merged: dict, entry: dict, key: str) -> dict:
    kind = entry.get("type")
    if merged.get("type") != kind:
        raise ObservabilityError(
            f"cannot merge metric {key!r}: {merged.get('type')!r} vs "
            f"{kind!r}"
        )
    if kind == "counter":
        merged["value"] = merged.get("value", 0.0) + entry.get("value", 0.0)
    elif kind == "gauge":
        merged["value"] = entry.get("value", 0.0)  # last writer wins
    elif kind == "bucket_histogram":
        if list(merged.get("bounds", ())) != list(entry.get("bounds", ())):
            raise ObservabilityError(
                f"cannot merge bucket histogram {key!r}: bucket bounds "
                "differ between snapshots"
            )
        merged["count"] = merged.get("count", 0) + entry.get("count", 0)
        merged["sum"] = merged.get("sum", 0.0) + entry.get("sum", 0.0)
        for field, pick in (("min", min), ("max", max)):
            a, b = merged.get(field), entry.get(field)
            if a is None:
                merged[field] = b
            elif b is not None:
                merged[field] = pick(a, b)
        merged["mean"] = (
            merged["sum"] / merged["count"] if merged["count"] else 0.0
        )
        # The exact law: bucket counts are integers that add bitwise,
        # so the merge *is* the histogram of the union of observations.
        merged["buckets"] = [
            a + b for a, b in zip(merged["buckets"], entry["buckets"])
        ]
    else:
        raise ObservabilityError(
            f"cannot merge metric {key!r} of unknown type {kind!r}"
        )
    return merged


def merge_snapshots(*snapshots) -> dict:
    """Combine metric snapshots under the addition laws, keys sorted.

    Counters and histogram count/sum/buckets add exactly (the union of
    the inputs); histogram min/max take the extremes; gauges keep the
    last snapshot's value.  Type conflicts for the same key raise — a
    counter in one worker and a gauge in another is a bug, not data.
    """
    merged: dict = {}
    for snapshot in snapshots:
        for key, entry in snapshot.items():
            if key not in merged:
                merged[key] = dict(entry)
                if merged[key].get("type") == "bucket_histogram":
                    # Detach mutable fields from the input snapshot.
                    merged[key]["bounds"] = list(entry.get("bounds", ()))
                    merged[key]["buckets"] = list(entry.get("buckets", ()))
            else:
                _merge_entry(merged[key], entry, key)
    return {key: merged[key] for key in sorted(merged)}
