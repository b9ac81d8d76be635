"""Sharded fleet-sweep runner: market-scale evaluation, observable.

ROADMAP's "market-wide what-if" studies evaluate the Gables model over
*every* chipset the market package synthesizes — hundreds of specs per
run, thousands once portfolios multiply.  One process is enough
compute-wise (the model is microseconds per point) but the point of
the fleet runner is the *shape*: the same sharded, telemetry-emitting,
fault-tolerant structure a hardware measurement fleet needs, exercised
end-to-end against the analytical model where every answer is exactly
checkable.

Structure:

- :func:`evaluate_population` is the serial core: one shard's cases
  through :func:`repro.core.evaluate`, with span / structured-log /
  metric hooks (all free when disabled), optional fault
  injection + retry (:mod:`repro.resilience`), checkpoint reuse, and
  tolerant ``on_error`` modes.
- :func:`run_fleet_sweep` (market cases) and :func:`run_fleet_grid_sweep`
  (synthetic grids) shard their work round-robin and run every shard
  through one lifecycle: inline for one worker, otherwise on worker
  *processes*.  Each shard's :class:`~repro.obs.context.TraceContext`
  travels in its payload, and with a telemetry directory every
  worker drains its telemetry into a
  :class:`~repro.obs.collect.ShardCollector` directory for ``gables
  telemetry merge``.

Workers are *forked* from the caller on Linux when the caller runs no
other Python thread, and *spawned* otherwise.  A forked worker starts
with the caller's numpy and ``repro`` already imported, so no call pays
an interpreter start; it also starts with the caller's memory —
collectors and monkeypatches included — which is why the worker entry
resets every collector first.  That memory holds every shard's payload
too, so a forked worker is sent only which shard to run, and no payload
is pickled.  Fork is unsafe while another thread may hold a lock, and
on platforms whose system libraries do not survive it; there a spawned
worker imports what it needs in a fresh interpreter and is sent each
shard's payload, pickled.

Determinism is a hard contract, pinned by tests: cases are assigned
``indices[shard::workers]`` and reassembled by original index, and the
model evaluation is pure float math, so a 2-worker fleet's points are
**bitwise identical** to the serial run's.  Faults only ever fail an
*attempt* (retried, or surfaced per ``on_error``) — they never perturb
a surviving result.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import count
from multiprocessing import get_context

import numpy as np

from ..core.batch import _resolve_engine, evaluate_batch
from ..core.gables import evaluate
from ..core.variants import evaluate_variant_batch
from ..errors import ObservabilityError, ReproError, SpecError
from ..obs import reset_observability
from ..obs.bench import make_record, new_run_id
from ..obs.collect import ShardCollector
from ..obs.context import context_scope, new_context
from ..obs.logging import configure_logging, log_event, logging_configured
from ..obs.metrics import counter as _counter
from ..obs.trace import enable_tracing, span as _span, tracing_enabled
from ..resilience.checkpoint import SweepCheckpoint, sample_key
from ..resilience.faults import FaultInjector, FaultPlan, fault_plan
from ..resilience.partial import PointFailure, check_on_error, record_failure
from ..resilience.retry import RetryPolicy, call_with_retry

_FLEET_POINTS = _counter("explore.fleet.points")
_FLEET_FAILURES = _counter("explore.fleet.failures")
_FLEET_CHECKPOINT_REUSED = _counter("explore.fleet.checkpoint_reused")

#: Heartbeat cadence, in evaluated points.
HEARTBEAT_EVERY = 25


@dataclass(frozen=True, slots=True)
class FleetPoint:
    """One evaluated case — pure model outputs plus its population index.

    Deliberately carries *no* worker provenance: the same case must
    produce the same ``FleetPoint`` whether it ran serially or on any
    shard (the bitwise-identity contract).  Provenance lives in
    :class:`WorkerReport` and the telemetry shards; so do retries
    (``resilience.retries``) and injected faults
    (:attr:`WorkerReport.fault_summary`), which depend on the shard.
    """

    index: int
    key: str
    attainable: float
    bottleneck: str
    memory_time: float
    average_intensity: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "attainable": self.attainable,
            "bottleneck": self.bottleneck,
            "memory_time": self.memory_time,
            "average_intensity": self.average_intensity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetPoint":
        """Read a record; keys it does not name, such as the
        ``"attempts"`` of older checkpoints, are ignored."""
        return cls(
            index=int(data["index"]),
            key=str(data["key"]),
            attainable=float(data["attainable"]),
            bottleneck=str(data["bottleneck"]),
            memory_time=float(data["memory_time"]),
            average_intensity=float(data["average_intensity"]),
        )


@dataclass(frozen=True)
class WorkerReport:
    """What one shard did: provenance, timing, liveness, faults.

    ``engine`` names the batch-evaluation tier the shard ran
    (``"compiled"``/``"interpreted"``); the scalar case fleet always
    reports ``"interpreted"`` — its per-case loop is the scalar
    interpreter.
    """

    worker_id: str
    shard: int
    pid: int
    cases: int
    points: int
    failures: int
    elapsed_s: float
    heartbeats: int
    checkpoint_reused: int = 0
    fault_summary: dict | None = None
    engine: str = "interpreted"


@dataclass(frozen=True)
class FleetResult:
    """A completed fleet sweep, reassembled in population order."""

    fleet_run_id: str
    trace_id: str
    points: tuple
    errors: tuple
    workers: tuple
    elapsed_s: float
    telemetry_dir: str | None = None
    fault_plan: str | None = None
    engine: str = "interpreted"

    @property
    def throughput(self) -> float:
        """Points per second across the whole fleet."""
        return len(self.points) / self.elapsed_s if self.elapsed_s > 0 else 0.0


def evaluate_population(
    cases,
    *,
    indices=None,
    on_error: str = "raise",
    injector: FaultInjector | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint: SweepCheckpoint | None = None,
    heartbeat=None,
) -> tuple:
    """One shard of cases through the model; returns (points, failures).

    ``indices`` are the cases' positions in the full population
    (defaults to ``0..len-1``); they key checkpoint entries and order
    the fleet's reassembly.  ``injector`` may fail attempts (dropouts),
    which ``retry_policy`` retries; a point that still fails is raised,
    skipped, or recorded per ``on_error``.  ``heartbeat`` (a callable)
    fires every :data:`HEARTBEAT_EVERY` evaluated points.

    The telemetry hooks on this loop — a span per shard, a span and a
    structured-log event per point, the fleet counters — cost
    nothing when their collector is disabled: the enablement checks are
    hoisted out of the loop (collectors are process-global and cannot
    flip mid-shard), so the disabled path per point is the plain
    ``evaluate`` call plus counter adds.  The benchmark suite holds the
    hooked loop within the library's 1% disabled-overhead budget.
    """
    cases = tuple(cases)
    check_on_error(on_error)
    if indices is None:
        indices = range(len(cases))
    else:
        indices = tuple(map(int, indices))
        if len(indices) != len(cases):
            raise SpecError(
                f"indices ({len(indices)}) must match cases ({len(cases)})"
            )
    points, failures = [], []
    # Hoisted enablement checks: the loop's disabled path must stay
    # within the 1% overhead budget, so nothing per point may build a
    # span, a closure, or a kwargs dict unless its collector is live.
    logged = logging_configured()
    plain = not (injector or retry_policy or tracing_enabled())
    key = None
    reused = 0
    with _span("fleet.shard", cases=len(cases)):
        # A flat three-way unpack: ~40 ns a point cheaper than
        # ``enumerate(zip(...))``'s nested one.
        for position, index, case in zip(count(), indices, cases):
            if heartbeat is not None and position % HEARTBEAT_EVERY == 0:
                heartbeat()
            if checkpoint is not None:
                key = sample_key(case=case.key)
                cached = checkpoint.get(key)
                if cached is not None:
                    reused += 1
                    points.append(FleetPoint.from_dict(cached))
                    continue
            try:
                if plain:
                    result = evaluate(case.soc, case.workload)
                else:
                    result = _instrumented_attempt(
                        case, injector, retry_policy
                    )
            except ReproError as err:
                _FLEET_FAILURES.inc()
                log_event(
                    "error", "fleet.point.failed", str(err),
                    spec=case.key, code=getattr(err, "code", "REPRO_ERROR"),
                )
                if on_error == "raise":
                    raise
                failures.append(record_failure((case.key,), err))
                continue
            point = FleetPoint(
                index=index,
                key=case.key,
                attainable=result.attainable,
                bottleneck=result.bottleneck,
                memory_time=result.memory_time,
                average_intensity=result.average_intensity,
            )
            if logged:
                log_event(
                    "debug", "fleet.point",
                    spec=case.key, bottleneck=point.bottleneck,
                )
            if checkpoint is not None:
                checkpoint.record(key, point.to_dict())
            points.append(point)
    # Counters batch at shard end: one `.inc()` per shard keeps the
    # per-point disabled path free of method calls.
    _FLEET_POINTS.inc(len(points) - reused)
    if reused:
        _FLEET_CHECKPOINT_REUSED.inc(reused)
    return tuple(points), tuple(failures)


def _instrumented_attempt(case, injector, retry_policy):
    """One case with fault injection / retry / its span attached."""

    def attempt():
        if injector is not None:
            injector.check_dropout(f"fleet point {case.key}")
        return evaluate(case.soc, case.workload)

    with _span("fleet.point"):
        return call_with_retry(
            attempt, retry_policy, context=f"fleet point {case.key}",
        )


def worker_checkpoint_path(checkpoint_path, worker_id: str):
    """The per-worker checkpoint file for a shared base path.

    Each shard appends to its own file — concurrent appends to one
    JSONL from multiple processes can interleave mid-line.  Shard
    assignment is deterministic for a given worker count, so a resumed
    fleet finds its own entries.
    """
    if checkpoint_path is None:
        return None
    return f"{os.fspath(checkpoint_path)}.{worker_id}"


def _run_shard(payload: dict) -> dict:
    """Execute one shard in the current process; returns a result dict.

    The one shard lifecycle both drivers share.  The shard's trace
    context (``payload["context"]``) is installed for its duration and
    the previous one restored on exit; with a ``telemetry_dir`` the
    shard gets a :class:`~repro.obs.collect.ShardCollector`, structured
    logs, tracing and heartbeats.  ``payload["work"]`` — a module-level
    body per driver, so a spawned worker can be sent the payload — does
    the shard's work and returns its result fields, ``elapsed_s`` among
    them.

    Assumes the process-global collectors are in the desired state:
    the worker entry (:func:`_fleet_worker`) resets them first, the
    inline (``workers=1``) path runs against the caller's own.
    """
    context = payload["context"]
    with context_scope(context):
        collector = None
        if payload["telemetry_dir"] is not None:
            collector = ShardCollector(payload["telemetry_dir"], context)
            configure_logging(collector.log_path)
            enable_tracing()
        heartbeat = collector.heartbeat if collector is not None else None
        fields = payload["work"](payload, heartbeat)
        if heartbeat is not None:
            heartbeat()  # final liveness sample closes the wall window
        if collector is not None:
            collector.finalize()
    return {
        "worker_id": context.worker_id,
        "shard": context.shard,
        "pid": os.getpid(),
        "heartbeats": collector.heartbeats_written if collector else 0,
        **fields,
    }


#: Every shard's payload, in a forked worker: set there by the pool
#: initializer, :func:`_inherit`.  The caller never sets it.
_INHERITED: list = []


def _inherit(payloads: list) -> None:
    """Fork-pool initializer: keep the payloads the worker inherited.

    A forked process gets its initializer's arguments with the caller's
    memory, not through a pickle, so a task need only name its shard.
    """
    global _INHERITED
    _INHERITED = payloads


def _fleet_worker(task) -> dict:
    """Worker-process entry point (module-level for picklability).

    ``task`` is the shard's payload on a spawned worker, and the
    shard's position in the inherited payloads on a forked one.  Resets
    every process-global collector first — a forked worker starts with
    the caller's, and a pool process may serve more than one shard —
    then runs the shard.
    """
    reset_observability()
    payload = _INHERITED[task] if isinstance(task, int) else task
    return _run_shard(payload)


#: CPython 3.12+ warns on every ``os.fork()`` while the OS reports
#: more than one thread, native BLAS pools included.
_FORK_THREADS_WARNING = (
    r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"
)


def _run_shards(payloads: list, workers: int) -> list:
    """Every shard's result, in payload order.

    ``workers=1`` runs inline in the calling process; otherwise each
    payload goes to a pool of worker processes, all of which have
    exited when this returns.  The pool forks its workers when fork is
    the platform's safe default (Linux) and the caller runs exactly one
    Python thread, and spawns them otherwise: a fork while another
    thread runs could copy a lock that thread holds.  Forked workers
    skip the interpreter start and import, and inherit the caller's
    memory, which :func:`_fleet_worker` resets.

    Forked workers inherit the payloads too, as the pool initializer's
    arguments, so each task is only a shard's position and no payload
    is pickled.  Spawned workers are sent each payload with its task.
    A spawn pool pickles the initializer's arguments into the child's
    start-up pipe, and a payload-sized write there blocks until the
    child has imported ``repro``, so each worker would start only after
    the one before it had imported.
    """
    if workers == 1:
        return [_run_shard(payload) for payload in payloads]
    fork = sys.platform.startswith("linux") and threading.active_count() == 1
    with ProcessPoolExecutor(
        max_workers=len(payloads),
        mp_context=get_context("fork" if fork else "spawn"),
        initializer=_inherit if fork else None,
        initargs=(payloads,) if fork else (),
    ) as pool:
        tasks = range(len(payloads)) if fork else payloads
        with warnings.catch_warnings() if fork else nullcontext():
            if fork:
                # A fork pool starts every worker on the first submit.
                # The rule above leaves no other Python thread to hold a
                # lock, and the native BLAS pools behind the OS thread
                # count re-initialise in the child through
                # pthread_atfork.
                warnings.filterwarnings(
                    "ignore", message=_FORK_THREADS_WARNING,
                    category=DeprecationWarning,
                )
            futures = [pool.submit(_fleet_worker, task) for task in tasks]
        return [future.result() for future in futures]


def _case_shard(payload: dict, heartbeat) -> dict:
    """The case driver's shard body: its cases through
    :func:`evaluate_population`, with the shard's fault injector and
    checkpoint."""
    context = payload["context"]
    injector = None
    if payload["plan"] is not None:
        injector = FaultInjector(
            payload["plan"], seed=payload["seed"] + context.shard
        )
    checkpoint = None
    preloaded = 0
    path = worker_checkpoint_path(
        payload["checkpoint_path"], context.worker_id
    )
    if path is not None:
        checkpoint = SweepCheckpoint(path)
        preloaded = len(checkpoint)
    log_event(
        "info", "fleet.shard.start",
        cases=len(payload["cases"]), shard=context.shard,
    )
    start = time.perf_counter()
    points, failures = evaluate_population(
        payload["cases"],
        indices=payload["indices"],
        on_error=payload["on_error"],
        injector=injector,
        retry_policy=payload["retry_policy"],
        checkpoint=checkpoint,
        heartbeat=heartbeat,
    )
    elapsed = time.perf_counter() - start
    log_event(
        "info", "fleet.shard.done",
        points=len(points), failures=len(failures), elapsed_s=elapsed,
    )
    return {
        "elapsed_s": elapsed,
        "checkpoint_reused": preloaded,
        "points": [p.to_dict() for p in points],
        "failures": [
            {"coords": list(f.coords), "code": f.code, "message": f.message}
            for f in failures
        ],
        "fault_summary": injector.summary() if injector is not None else None,
    }


def _report_from(result: dict, cases: int) -> WorkerReport:
    return WorkerReport(
        worker_id=result["worker_id"],
        shard=result["shard"],
        pid=result["pid"],
        cases=cases,
        points=len(result["points"]),
        failures=len(result["failures"]),
        elapsed_s=result["elapsed_s"],
        heartbeats=result["heartbeats"],
        checkpoint_reused=result.get("checkpoint_reused", 0),
        fault_summary=result.get("fault_summary"),
        engine=result.get("engine", "interpreted"),
    )


def run_fleet_sweep(
    cases,
    *,
    workers: int = 2,
    on_error: str = "raise",
    fault_plan_name: str | FaultPlan | None = None,
    seed: int = 0,
    retry_policy: RetryPolicy | None = None,
    checkpoint_path=None,
    telemetry_dir=None,
    fleet_run_id: str | None = None,
) -> FleetResult:
    """Evaluate a case population across ``workers`` processes.

    Cases are assigned round-robin (``indices[shard::workers]``) and
    the points reassembled by original index, so the result is
    independent of worker count and scheduling — bitwise identical to
    ``workers=1``.  With ``telemetry_dir`` set, each worker writes a
    telemetry shard under it (see :mod:`repro.obs.collect`); with a
    fault plan, each worker's injector is seeded ``seed + shard`` so
    fault timelines are reproducible per shard.

    ``workers=1`` runs inline in the calling process: same
    code path, same telemetry, and the caller's own collectors are
    *used, not reset* — enable tracing beforehand to keep
    collecting into them.  The caller's trace context is back in place
    when the call returns.
    """
    cases = tuple(cases)
    if not cases:
        raise SpecError("run_fleet_sweep needs at least one case")
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    check_on_error(on_error)
    plan = fault_plan_name
    if isinstance(plan, str):
        plan = fault_plan(plan)
    if plan is not None and not isinstance(plan, FaultPlan):
        raise SpecError(
            "fault_plan_name must be a plan name, FaultPlan, or None"
        )
    run_id = fleet_run_id or new_run_id()
    context = new_context(run_id)
    telemetry = os.fspath(telemetry_dir) if telemetry_dir is not None else None
    payloads = []
    for shard in range(workers):
        indices = tuple(range(len(cases)))[shard::workers]
        payloads.append({
            "work": _case_shard,
            "context": context.child(worker_id=f"w{shard}", shard=shard),
            "telemetry_dir": telemetry,
            "indices": indices,
            "cases": tuple(cases[i] for i in indices),
            "on_error": on_error,
            "plan": plan,
            "seed": seed,
            "retry_policy": retry_policy,
            "checkpoint_path": (
                os.fspath(checkpoint_path) if checkpoint_path is not None
                else None
            ),
        })
    start = time.perf_counter()
    results = _run_shards(payloads, workers)
    elapsed = time.perf_counter() - start

    by_index: dict = {}
    failures = []
    for result in results:
        for data in result["points"]:
            index = data["index"]
            if index in by_index:
                raise ObservabilityError(
                    f"fleet point index {index} produced twice"
                )
            # The caller's own key string, not the worker's copy, which
            # every retained result would otherwise keep alive.
            by_index[index] = FleetPoint(
                index=index,
                key=cases[index].key,
                attainable=data["attainable"],
                bottleneck=data["bottleneck"],
                memory_time=data["memory_time"],
                average_intensity=data["average_intensity"],
            )
        failures.extend(
            PointFailure(
                coords=tuple(f["coords"]), code=f["code"],
                message=f["message"],
            )
            for f in result["failures"]
        )
    reports = tuple(
        _report_from(result, cases=len(payload["cases"]))
        for payload, result in zip(payloads, results)
    )
    return FleetResult(
        fleet_run_id=run_id,
        trace_id=context.trace_id,
        points=tuple(by_index[i] for i in sorted(by_index)),
        errors=tuple(failures) if on_error == "record" else (),
        workers=reports,
        elapsed_s=elapsed,
        telemetry_dir=telemetry,
        fault_plan=plan.name if plan is not None else None,
    )


# ---------------------------------------------------------------------
# Grid fleet: sharded compiled market sweeps over synthetic grids
# ---------------------------------------------------------------------

#: Default grid-fleet chunk size: the rows generated at once, and the
#: unit the RNG is addressed by (:func:`grid_chunk`), so it fixes every
#: digest.  A chunk's grids (2 x chunk x N float64, 16 MB at 4 IPs) are
#: far larger than any cache; :data:`GRID_BLOCK` is what is cache-sized.
GRID_CHUNK = 250_000

#: Rows per kernel call within a chunk.  A block's inputs and the
#: kernel's scratch stay cache-sized, where one call over a whole chunk
#: needs chunk-sized scratch (~120 MB at 4 IPs).
GRID_BLOCK = 16_384


def grid_chunk(
    n_ips: int, chunk_index: int, size: int, seed: int = 0
) -> tuple:
    """Chunk ``chunk_index`` of the synthetic market workload grid.

    Returns ``(fractions, intensities)`` of shape ``(size, n_ips)``.
    Generation is *chunk-addressed*: the RNG is seeded from
    ``(seed, chunk_index)``, so any process can materialize any chunk
    independently and two runs that partition the same point count into
    the same chunks see bitwise-identical grids — the foundation of the
    grid fleet's determinism contract.
    """
    if n_ips < 1:
        raise SpecError(f"n_ips must be >= 1, got {n_ips}")
    if size < 1:
        raise SpecError(f"chunk size must be >= 1, got {size}")
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), int(chunk_index)))
    )
    fractions = rng.dirichlet(np.ones(n_ips), size=size)
    intensities = rng.uniform(0.25, 64.0, size=(size, n_ips))
    return fractions, intensities


def grid_chunk_plan(points: int, chunk: int = GRID_CHUNK) -> tuple:
    """``(chunk_index, size)`` pairs partitioning ``points`` rows."""
    if points < 1:
        raise SpecError(f"points must be >= 1, got {points}")
    if chunk < 1:
        raise SpecError(f"chunk must be >= 1, got {chunk}")
    plan = []
    offset = 0
    index = 0
    while offset < points:
        size = min(chunk, points - offset)
        plan.append((index, size))
        offset += size
        index += 1
    return tuple(plan)


@dataclass(frozen=True)
class GridChunkSummary:
    """One evaluated grid chunk: identity digest plus cheap reductions.

    ``digest`` is the SHA-256 over the chunk's attainables and
    bottleneck codes (raw float64/intp bytes, row order) — two runs
    agree bitwise on a chunk iff their digests match, without shipping
    megabytes of arrays between processes.
    """

    index: int
    points: int
    digest: str
    total: float
    best: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "points": self.points,
            "digest": self.digest,
            "total": self.total,
            "best": self.best,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridChunkSummary":
        return cls(
            index=int(data["index"]),
            points=int(data["points"]),
            digest=str(data["digest"]),
            total=float(data["total"]),
            best=float(data["best"]),
        )


@dataclass(frozen=True)
class FleetGridResult:
    """A completed grid-fleet sweep, chunks reassembled in order."""

    fleet_run_id: str
    trace_id: str
    points: int
    chunks: tuple
    digest: str
    workers: tuple
    elapsed_s: float
    engine: str
    telemetry_dir: str | None = None

    @property
    def throughput(self) -> float:
        """Points per second across the whole fleet."""
        return self.points / self.elapsed_s if self.elapsed_s > 0 else 0.0


def evaluate_grid_chunks(
    soc,
    assignments,
    *,
    seed: int = 0,
    variant=None,
    engine: str = "auto",
    heartbeat=None,
) -> tuple:
    """One shard's ``(chunk_index, size)`` assignments through the model.

    Each chunk is generated (:func:`grid_chunk`), evaluated in
    :data:`GRID_BLOCK`-row batches into one attainable and one
    bottleneck-code array, and reduced to a :class:`GridChunkSummary`;
    the arrays never leave the process.  Every row is evaluated on its
    own, so the blocks are bitwise one batch over the chunk.
    ``heartbeat`` fires once per chunk.
    """
    summaries = []
    n = soc.n_ips
    with _span("fleet.grid_shard", chunks=len(assignments)):
        for chunk_index, size in assignments:
            if heartbeat is not None:
                heartbeat()
            fractions, intensities = grid_chunk(n, chunk_index, size, seed)
            # Read-only, so the batch does not copy each block (it
            # copies a writeable input its caller could edit later).
            fractions.flags.writeable = False
            intensities.flags.writeable = False
            attainables = np.empty(size)
            codes = np.empty(size, dtype=np.intp)
            for start in range(0, size, GRID_BLOCK):
                rows = slice(start, start + GRID_BLOCK)
                if variant is None:
                    batch = evaluate_batch(
                        soc, fractions[rows], intensities[rows],
                        validate=False, engine=engine,
                    )
                else:
                    batch = evaluate_variant_batch(
                        soc, variant, fractions[rows], intensities[rows],
                        validate=False, engine=engine,
                    )
                attainables[rows] = batch.attainables
                codes[rows] = batch.bottleneck_codes
            sha = hashlib.sha256(attainables.tobytes())
            sha.update(codes.tobytes())
            summaries.append(GridChunkSummary(
                index=chunk_index,
                points=size,
                digest=sha.hexdigest(),
                total=float(attainables.sum()),
                best=float(attainables.max()),
            ))
    _FLEET_POINTS.inc(sum(size for _, size in assignments))
    return tuple(summaries)


def _grid_shard(payload: dict, heartbeat) -> dict:
    """The grid driver's shard body: its chunks through
    :func:`evaluate_grid_chunks`."""
    log_event(
        "info", "fleet.grid_shard.start",
        chunks=len(payload["assignments"]), shard=payload["context"].shard,
        engine=payload["engine"],
    )
    start = time.perf_counter()
    summaries = evaluate_grid_chunks(
        payload["soc"],
        payload["assignments"],
        seed=payload["seed"],
        variant=payload["variant"],
        engine=payload["engine"],
        heartbeat=heartbeat,
    )
    elapsed = time.perf_counter() - start
    log_event(
        "info", "fleet.grid_shard.done",
        chunks=len(summaries), elapsed_s=elapsed,
    )
    return {
        "elapsed_s": elapsed,
        "chunks": [s.to_dict() for s in summaries],
    }


def run_fleet_grid_sweep(
    soc,
    *,
    points: int,
    variant=None,
    workers: int = 2,
    chunk: int = GRID_CHUNK,
    seed: int = 0,
    engine: str = "auto",
    telemetry_dir=None,
    fleet_run_id: str | None = None,
) -> FleetGridResult:
    """Evaluate ``points`` synthetic market rows across worker processes.

    The grid never exists in one piece: it is partitioned into
    chunk-addressed pieces (:func:`grid_chunk_plan`), chunks are
    assigned round-robin to shards, and every worker generates its own
    chunks locally (:func:`grid_chunk`) — so a 10^8-point sweep moves
    kilobytes of summaries between processes, not gigabytes of grids.
    The result is scheduling-independent: chunk summaries reassemble by
    chunk index, and the fleet ``digest`` hashes the per-chunk digests
    in that order, so any worker count (including a serial
    ``workers=1`` run with ``engine="interpreted"``) that evaluates the
    same points bitwise-identically produces the same digest.
    """
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    resolved_engine = _resolve_engine(engine)
    plan = grid_chunk_plan(points, chunk)
    run_id = fleet_run_id or new_run_id()
    context = new_context(run_id)
    telemetry = os.fspath(telemetry_dir) if telemetry_dir is not None else None
    payloads = []
    for shard in range(workers):
        assignments = plan[shard::workers]
        if not assignments and shard > 0:
            continue  # fewer chunks than workers: idle shards are skipped
        payloads.append({
            "work": _grid_shard,
            "context": context.child(worker_id=f"w{shard}", shard=shard),
            "telemetry_dir": telemetry,
            "assignments": assignments,
            "soc": soc,
            "variant": variant,
            "seed": seed,
            "engine": engine,
        })
    start = time.perf_counter()
    results = _run_shards(payloads, workers)
    elapsed = time.perf_counter() - start

    by_index: dict = {}
    for result in results:
        for data in result["chunks"]:
            summary = GridChunkSummary.from_dict(data)
            if summary.index in by_index:
                raise ObservabilityError(
                    f"grid chunk {summary.index} produced twice"
                )
            by_index[summary.index] = summary
    if sorted(by_index) != [index for index, _ in plan]:
        raise ObservabilityError("grid fleet lost chunks during reassembly")
    chunks = tuple(by_index[index] for index, _ in plan)
    sha = hashlib.sha256()
    for summary in chunks:
        sha.update(summary.digest.encode("ascii"))
    reports = tuple(
        WorkerReport(
            worker_id=result["worker_id"],
            shard=result["shard"],
            pid=result["pid"],
            cases=len(payload["assignments"]),
            points=sum(s["points"] for s in result["chunks"]),
            failures=0,
            elapsed_s=result["elapsed_s"],
            heartbeats=result["heartbeats"],
            engine=resolved_engine,
        )
        for payload, result in zip(payloads, results)
    )
    return FleetGridResult(
        fleet_run_id=run_id,
        trace_id=context.trace_id,
        points=points,
        chunks=chunks,
        digest=sha.hexdigest(),
        workers=reports,
        elapsed_s=elapsed,
        engine=resolved_engine,
        telemetry_dir=telemetry,
    )


def fleet_bench_records(result, *, run_id=None) -> tuple:
    """Throughput and wall-time records for ``BENCH_HISTORY.jsonl``.

    Accepts a :class:`FleetResult` or :class:`FleetGridResult`.  One
    fleet-wide throughput record, plus per-worker throughput and
    elapsed-seconds records.  Every record carries the fleet provenance
    fields (``fleet_run_id``, the ``engine`` tag, and
    ``worker_id``/``shard`` on worker rows), so ``gables bench
    compare`` keys each lane by its
    :attr:`~repro.obs.bench.BenchRecord.provenance_key` — the
    ``unit == "s"`` worker rows get their own rolling baselines per
    worker *and* per engine instead of collapsing compiled and
    interpreted runs into one noisy series.
    """
    run_id = run_id or result.fleet_run_id
    grid = isinstance(result, FleetGridResult)
    point_count = result.points if grid else len(result.points)
    meta = {
        "points": point_count,
        "workers": len(result.workers),
    }
    if grid:
        meta["chunks"] = len(result.chunks)
    else:
        meta["fault_plan"] = result.fault_plan or ""
    name = "fleet.grid.throughput" if grid else "fleet.sweep.throughput"
    records = [make_record(
        name,
        result.throughput,
        unit="points/s",
        run_id=run_id,
        fleet_run_id=result.fleet_run_id,
        engine=result.engine,
        meta=meta,
    )]
    for report in result.workers:
        rate = (
            report.points / report.elapsed_s if report.elapsed_s > 0 else 0.0
        )
        records.append(make_record(
            "fleet.worker.throughput",
            rate,
            unit="points/s",
            run_id=run_id,
            fleet_run_id=result.fleet_run_id,
            worker_id=report.worker_id,
            shard=report.shard,
            engine=report.engine,
            meta={"points": report.points, "heartbeats": report.heartbeats},
        ))
        records.append(make_record(
            "fleet.worker.seconds",
            report.elapsed_s,
            unit="s",
            run_id=run_id,
            fleet_run_id=result.fleet_run_id,
            worker_id=report.worker_id,
            shard=report.shard,
            engine=report.engine,
            meta={"points": report.points},
        ))
    return tuple(records)
