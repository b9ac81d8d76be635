"""Benchmark history: append-only run records with regression detection.

One normalized record shape — :class:`BenchRecord`: a named scalar
plus host fingerprint, git revision, run id, and timestamp — and two
capabilities on top of it:

- **history**: every benchmark run appends its records to
  ``BENCH_HISTORY.jsonl`` (:func:`append_history`), a greppable JSONL
  trajectory that survives across PRs and CI runs, and the one
  benchmark-record format;
- **regression detection**: :func:`compare_runs` compares the
  latest run against a rolling-median baseline with a MAD noise gate,
  flagging timing metrics that got >= 20% slower — the check behind
  ``gables bench compare`` and the CI ``bench-history`` job.

The rolling median + MAD rule: a current value is a regression when it
exceeds *both* ``median * (1 + threshold)`` (the material-slowdown
bar) and ``median + 3 * 1.4826 * MAD`` (the this-isn't-just-noise
bar).  With fewer than ``DEFAULT_MIN_SAMPLES`` baseline points nothing is
flagged — one noisy first run must not poison the trajectory.
"""

from __future__ import annotations

import json
import math
import os
import platform as _platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field

from ..errors import ObservabilityError

#: Record schema version stamped into every serialized record.
SCHEMA_VERSION = 1

#: Default regression bar: flag when >= 20% slower than the baseline.
DEFAULT_THRESHOLD = 0.20

#: Default rolling-baseline window (runs, newest first).
DEFAULT_WINDOW = 10

#: Baseline runs needed before anything can be flagged.
DEFAULT_MIN_SAMPLES = 2

#: Scale factor making the MAD a consistent sigma estimate.
MAD_SIGMA = 1.4826


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark observation: a named scalar with provenance.

    ``unit`` is ``"s"`` for timings (the only unit regression detection
    judges — bigger is worse), ``"count"``/``"x"``/... for everything
    else.  ``run_id`` groups the records of one benchmark-suite
    invocation; ``meta`` carries free-form context (grid size, variant
    name, pytest node id).

    ``worker_id``/``shard``/``fleet_run_id`` are fleet provenance for
    records produced by sharded runs (``gables fleet run``), and
    ``engine`` names the batch-evaluation tier that produced a timing
    (``"compiled"``/``"interpreted"``).  All are serialized only when
    set, so single-process histories keep their exact prior shape — no
    schema bump, and old readers (which ignore unknown keys) stay
    compatible.
    """

    name: str
    value: float
    unit: str = "s"
    run_id: str = ""
    timestamp: str = ""
    git_rev: str = "unknown"
    host: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    worker_id: str = ""
    shard: int | None = None
    fleet_run_id: str = ""
    engine: str = ""

    def to_dict(self) -> dict:
        """A JSON-ready mapping (the JSONL history schema)."""
        data = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "git_rev": self.git_rev,
            "host": dict(self.host),
            "meta": dict(self.meta),
        }
        if self.worker_id:
            data["worker_id"] = self.worker_id
        if self.shard is not None:
            data["shard"] = self.shard
        if self.fleet_run_id:
            data["fleet_run_id"] = self.fleet_run_id
        if self.engine:
            data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        """Inverse of :meth:`to_dict` (tolerates missing provenance)."""
        shard = data.get("shard")
        return cls(
            name=data["name"],
            value=float(data["value"]),
            unit=str(data.get("unit", "s")),
            run_id=str(data.get("run_id", "")),
            timestamp=str(data.get("timestamp", "")),
            git_rev=str(data.get("git_rev", "unknown")),
            host=dict(data.get("host", {})),
            meta=dict(data.get("meta", {})),
            worker_id=str(data.get("worker_id", "")),
            shard=None if shard is None else int(shard),
            fleet_run_id=str(data.get("fleet_run_id", "")),
            engine=str(data.get("engine", "")),
        )

    @property
    def provenance_key(self) -> str:
        """The comparison key: name, suffixed with provenance.

        ``fleet.worker.throughput[worker=w1;shard=1]`` when the fleet
        fields are present, ``...[engine=compiled]`` when an engine tag
        is, the bare name otherwise — so sharded records compare
        worker-against-same-worker and compiled lanes against compiled
        baselines instead of collapsing everything into one series.
        ``fleet_run_id`` identifies a single run (like ``run_id``) and
        is deliberately *not* part of the key.
        """
        parts = []
        if self.worker_id:
            parts.append(f"worker={self.worker_id}")
        if self.shard is not None:
            parts.append(f"shard={self.shard}")
        if self.engine:
            parts.append(f"engine={self.engine}")
        if not parts:
            return self.name
        return f"{self.name}[{';'.join(parts)}]"


def host_fingerprint() -> dict:
    """Where this run happened: platform, python, machine, cpu count.

    Timing comparisons across different fingerprints are meaningless;
    :func:`compare_runs` and the overhead benchmarks use this to
    restrict baselines to same-host records.
    """
    return {
        "platform": _platform.platform(),
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def git_revision(root=None) -> str:
    """The current short git revision, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def new_run_id(now=None) -> str:
    """A sortable run identifier: UTC timestamp plus pid."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    return f"{stamp}-{os.getpid()}"


def make_record(
    name: str,
    value: float,
    unit: str = "s",
    *,
    run_id: str | None = None,
    git_rev: str | None = None,
    host: dict | None = None,
    meta: dict | None = None,
    worker_id: str = "",
    shard: int | None = None,
    fleet_run_id: str = "",
    engine: str = "",
) -> BenchRecord:
    """A fully provenance-stamped record for *this* host and revision."""
    if not name:
        raise ObservabilityError("benchmark record name must be non-empty")
    return BenchRecord(
        name=name,
        value=float(value),
        unit=unit,
        run_id=run_id if run_id is not None else new_run_id(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        git_rev=git_rev if git_rev is not None else git_revision(),
        host=host if host is not None else host_fingerprint(),
        meta=dict(meta) if meta else {},
        worker_id=worker_id,
        shard=shard,
        fleet_run_id=fleet_run_id,
        engine=engine,
    )


# ---------------------------------------------------------------------
# History file (JSONL, append-only)
# ---------------------------------------------------------------------


def append_history(path, records) -> int:
    """Append records to a JSONL history file; returns the count."""
    count = 0
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_history(path) -> tuple:
    """Read a JSONL history file back into records, oldest first.

    A torn *final* line (a crashed appender) is skipped silently;
    corruption anywhere else raises — the history is an artifact worth
    failing loudly over.
    """
    from ..io.jsonl import read_jsonl_tolerant

    return read_jsonl_tolerant(
        path,
        BenchRecord.from_dict,
        error=ObservabilityError,
        label="benchmark record",
    )


# ---------------------------------------------------------------------
# Rolling-baseline comparison
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """One metric's current value against its rolling baseline."""

    name: str
    unit: str
    current: float
    baseline_median: float | None
    baseline_mad: float
    baseline_runs: int
    regressed: bool

    @property
    def ratio(self) -> float:
        """current / baseline median (``inf`` with no or zero baseline)."""
        if not self.baseline_median:
            return math.inf
        return self.current / self.baseline_median


@dataclass(frozen=True)
class ComparisonReport:
    """The full ``bench compare`` verdict."""

    run_id: str
    rows: tuple
    threshold: float

    @property
    def regressions(self) -> tuple:
        """The rows that breached the regression bar."""
        return tuple(row for row in self.rows if row.regressed)

    def format(self) -> str:
        """A human-readable comparison table."""
        lines = [
            f"run {self.run_id or '<unstamped>'} vs rolling baseline "
            f"(threshold +{self.threshold:.0%}):"
        ]
        header = (f"  {'metric':<44} {'current':>12} {'baseline':>12} "
                  f"{'ratio':>7}  verdict")
        lines.append(header)
        for row in self.rows:
            if row.baseline_median is None:
                baseline = "-"
                ratio = "-"
                verdict = f"no baseline ({row.baseline_runs} runs)"
            else:
                baseline = f"{row.baseline_median:.6g}"
                ratio = f"{row.ratio:.2f}x"
                verdict = "REGRESSED" if row.regressed else "ok"
            lines.append(
                f"  {row.name:<44} {row.current:>12.6g} {baseline:>12} "
                f"{ratio:>7}  {verdict}"
            )
        flagged = self.regressions
        lines.append(
            f"  {len(flagged)} regression(s) in {len(self.rows)} "
            "timing metric(s)"
        )
        return "\n".join(lines)


def rolling_baseline(values, window: int = DEFAULT_WINDOW) -> tuple:
    """``(median, mad)`` of the most recent ``window`` values.

    ``values`` are oldest first; the window keeps the newest.  The MAD
    is the median absolute deviation, unscaled (callers multiply by
    :data:`MAD_SIGMA` for a sigma-equivalent).
    """
    if window < 1:
        raise ObservabilityError(f"window must be >= 1, got {window}")
    recent = list(values)[-window:]
    if not recent:
        raise ObservabilityError("rolling baseline needs at least one value")
    median = statistics.median(recent)
    mad = statistics.median([abs(v - median) for v in recent])
    return median, mad


def compare_runs(
    history,
    *,
    current_run: str | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> ComparisonReport:
    """Compare one run's timing records against the rolling baseline.

    ``history`` is any iterable of records, oldest first (the
    :func:`read_history` order).  ``current_run`` defaults to the
    newest ``run_id`` present; every *earlier* run contributes to the
    per-metric rolling baseline (one value per run: that run's last
    record of the metric).  Only ``unit == "s"`` records are judged —
    counters have no slower-is-worse direction.

    Records carrying fleet provenance (``worker_id``/``shard``) are
    grouped by their :attr:`BenchRecord.provenance_key` — each worker
    lane gets its own baseline instead of collapsing every shard into
    one noisy series.
    """
    records = [r for r in history if r.unit == "s"]
    if not records:
        return ComparisonReport(run_id=current_run or "", rows=(),
                                threshold=threshold)
    run_order: list = []
    for record in records:
        if record.run_id not in run_order:
            run_order.append(record.run_id)
    if current_run is None:
        current_run = run_order[-1]
    elif current_run not in run_order:
        raise ObservabilityError(
            f"run {current_run!r} has no timing records in the history"
        )
    baseline_runs = [rid for rid in run_order if rid != current_run]

    by_metric: dict = {}
    for record in records:
        by_metric.setdefault(record.provenance_key, {})[record.run_id] = record

    rows = []
    for name in sorted(by_metric):
        runs = by_metric[name]
        current = runs.get(current_run)
        if current is None:
            continue
        baseline_values = [
            runs[rid].value for rid in baseline_runs if rid in runs
        ]
        if len(baseline_values) < DEFAULT_MIN_SAMPLES:
            rows.append(ComparisonRow(
                name=name, unit=current.unit, current=current.value,
                baseline_median=None, baseline_mad=0.0,
                baseline_runs=len(baseline_values), regressed=False,
            ))
            continue
        median, mad = rolling_baseline(baseline_values, window)
        noise_bar = median + 3.0 * MAD_SIGMA * mad
        regressed = (
            median > 0
            and current.value > median * (1.0 + threshold)
            and current.value > noise_bar
        )
        rows.append(ComparisonRow(
            name=name, unit=current.unit, current=current.value,
            baseline_median=median, baseline_mad=mad,
            baseline_runs=len(baseline_values), regressed=regressed,
        ))
    return ComparisonReport(
        run_id=current_run, rows=tuple(rows), threshold=threshold
    )

