"""Metric names, percentile helpers and the printed report.

:data:`END_TO_END` and :data:`PER_LAYER` are the names the final JSON
line carries (``--trace 0`` and ``--trace 1`` respectively); the
self-tests pin them to ``BENCHMARK.json``.  Every workload reports
every one of them.  The workload-specific figures (``eval_p99_ms``,
``fleet_market_wall_s``, ``serve.server.overhead_ms``, ...) are
printed above the JSON line, each with its unit and sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric.  Time spent in a layer is
#: given as its share of the traced operation time (the shares of a
#: workload sum to 1), so a layer the workload never reaches reads 0.
PER_LAYER = {
    "serve.server.overhead_share": "ratio",
    "serve.server.response_bytes": "B",
    "serve.protocol.self_share": "ratio",
    "serve.service.self_share": "ratio",
    "serve.service.batch_rows": "rows",
    "serve.service.cache_hit_ratio": "ratio",
    "serve.service.shed": "count",
    "serve.service.deadline_exceeded": "count",
    "serve.service.breaker_fallbacks": "count",
    "explore.sweep.self_share": "ratio",
    "explore.sweep.batched_point_share": "ratio",
    "core.batch.self_share": "ratio",
    "core.batch.calls": "count",
    "core.batch.rows_per_call": "rows",
    "core.compile.self_share": "ratio",
    "core.compile.hit_ratio": "ratio",
    "core.compile.builds": "count",
    "core.compile.native_build_s": "s",
    "core.compile.interpreted_row_share": "ratio",
    "io.json_codec.self_share": "ratio",
    "explore.fleet.spawn_share": "ratio",
    "explore.fleet.shard_eval_share": "ratio",
    "explore.fleet.merge_share": "ratio",
    "reports.self_share": "ratio",
    "obs.trace_overhead": "ratio",
}

#: Layer label of a span -> the ``*_share`` metric its self time feeds.
SHARE_OF_LAYER = {
    "serve.server": "serve.server.overhead_share",
    "serve.protocol": "serve.protocol.self_share",
    "serve.service": "serve.service.self_share",
    "serve.service.cache": "serve.service.self_share",
    "explore.sweep": "explore.sweep.self_share",
    "core.batch": "core.batch.self_share",
    "core.batch.prepare": "core.batch.self_share",
    "core.compile": "core.compile.self_share",
    "io.json_codec": "io.json_codec.self_share",
    "explore.fleet.spawn": "explore.fleet.spawn_share",
    "explore.fleet.shard_eval": "explore.fleet.shard_eval_share",
    "explore.fleet.merge": "explore.fleet.merge_share",
    "reports": "reports.self_share",
}

#: Tail percentiles tried, highest first (see :func:`tail`).
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple:
    """``(q, value)`` of the highest percentile in
    :data:`TAIL_CANDIDATES` with at least ten samples beyond it, or
    ``(None, nan)`` when there are too few samples."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n - max(1, math.ceil(q / 100.0 * n)) >= 10:
            return q, percentile(values, q)
    return None, math.nan


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass
class Line:
    """One printed figure: name, value, unit and its sample base."""

    name: str
    value: float
    unit: str
    n: int | None = None
    note: str = ""

    def render(self) -> str:
        base = f"  n={self.n}" if self.n is not None else ""
        note = f"  ({self.note})" if self.note else ""
        return (f"  {self.name:<40} {_fmt(self.value):>14} {self.unit:<9}"
                f"{base}{note}")


def _fmt(value) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return f"{value:.6g}"


@dataclass
class Outcome:
    """Everything one workload run produced."""

    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Reference piece times of the measurement (:mod:`perfbench.speed`).
    reference_s: list = field(default_factory=list)

    def show(self, name: str, value, unit: str, n=None,
             note: str = "") -> None:
        self.lines.append(Line(name, value, unit, n, note))

    def fail(self, problem: str) -> None:
        """Count one failed operation and keep its first few causes."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics,
            "lines": [vars(line) for line in self.lines],
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "reference_s": self.reference_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Outcome":
        return cls(
            metrics=dict(data["metrics"]),
            lines=[Line(**line) for line in data["lines"]],
            attempted=int(data["attempted"]),
            failed=int(data["failed"]),
            problems=list(data["problems"]),
            reference_s=list(data["reference_s"]),
        )


def shares(seconds_by_layer: dict, total: float) -> dict:
    """The ``*_share`` metrics from self seconds per span layer."""
    result = dict.fromkeys(sorted(set(SHARE_OF_LAYER.values())), 0.0)
    for layer, seconds in seconds_by_layer.items():
        metric = SHARE_OF_LAYER.get(layer)
        if metric is not None:
            result[metric] += ratio(seconds, total)
    return result


def finite(value: float, cap: float = 1e12) -> float:
    """JSON has no infinity: a failed request's latency is capped."""
    if math.isnan(value):
        return cap
    return min(value, cap)
