"""The fault-isolated evaluation core behind the HTTP surface.

:class:`EvaluationService` is the transport-free heart of
``gables serve``; :mod:`repro.serve.server` is a thin HTTP adapter
over it.  Robustness is the load-bearing design, one mechanism per
failure mode:

- **admission control** — a bounded in-flight budget; requests beyond
  it are *shed* with ``SERVE_OVERLOADED`` (HTTP 429 + ``Retry-After``)
  instead of queuing without bound, and a draining service refuses new
  work with ``SERVE_SHUTTING_DOWN`` (503).
- **deadlines** — every request carries a wall-clock budget (default
  and cap from :class:`ServiceConfig`); a request that cannot finish
  in time returns ``SERVE_DEADLINE_EXCEEDED`` (504) while the work of
  every other in-flight request is unaffected.
- **micro-batching** — concurrent scalar ``eval`` requests are
  coalesced (up to ``batch_max``) into one
  :func:`repro.core.batch.evaluate_batch` call per SoC under
  ``on_error="record"`` semantics.  A poisoned request is rejected by
  the protocol before it is queued; a row the batch rejects fails
  alone; and every other row matches an offline scalar ``evaluate``:
  **bitwise** on 2-IP SoCs, and within
  1e-12 relative with the same bottleneck and binding set on wider
  ones (the batch sums memory bytes in numpy order, the scalar path
  with ``math.fsum``).  A batch waits only for requests already
  admitted and still on their way to the queue, and for them at most
  ``batch_window_s``; a lone request dispatches at once.
- **result cache** — responses are cached on the canonical
  spec/workload hash; with a ``cache_path`` the cache is an
  append-only JSONL file recovered on restart through the shared
  torn-tail-tolerant reader (crash-only restart: kill the process,
  start it again, warm cache).
- **watchdog** — a wedged worker thread (stuck evaluating) is
  detected after ``watchdog_hang_s``, its in-flight batch is failed
  with ``SERVE_WORKER_CRASHED``, and a fresh worker is started; the
  stale thread's late results are discarded (first writer wins).
- **graceful drain** — :meth:`EvaluationService.drain` stops
  admission, lets in-flight work finish inside a timeout, then stops
  the worker and watchdog.

Chaos hooks: when ``allow_fault_injection`` is set, a request may
carry ``"fault": "crash" | "wedge"`` to exercise
exactly these paths (the load generator's fault plans do); outside
chaos runs the field is rejected at validation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..core.batch import evaluate_batch
from ..core.variants import evaluate_variant, variant_from_config
from ..errors import (
    FINE_GRAINED_CODES,
    ReproError,
    ServeError,
    SpecError,
    error_classes,
)
from ..explore.sweep import (
    sweep_fraction,
    sweep_intensity,
    sweep_memory_bandwidth,
)
from ..io.json_codec import encode_result, encode_soc
from ..io.jsonl import append_jsonl, read_jsonl_tolerant
from ..obs.metrics import counter as _counter
from .protocol import (
    EvalRequest,
    canonical_request_key,
    parse_eval_request,
    parse_sweep_request,
    parse_variants_request,
)

_REQUESTS = _counter("serve.requests")
_REQ_EVAL = _counter("serve.requests.eval")
_REQ_SWEEP = _counter("serve.requests.sweep")
_REQ_VARIANTS = _counter("serve.requests.variants")
_SHED = _counter("serve.shed")
_DEADLINE_MISSES = _counter("serve.deadline_exceeded")
_BATCHES = _counter("serve.batches")
_BATCHED = _counter("serve.batched_requests")
_CACHE_HITS = _counter("serve.cache.hits")
_CACHE_MISSES = _counter("serve.cache.misses")
_RECYCLES = _counter("serve.watchdog.recycles")
_FAULTS = _counter("serve.faults.injected")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable robustness budgets of one service instance.

    The defaults are sized for a small shared box: shed beyond 64
    in-flight requests, hold a batch open at most 2 ms for admitted
    requests still on their way to the queue, give every request
    10 s unless it asks for less (never more than 60 s), recycle a
    worker stuck longer than 2 s.
    """

    queue_limit: int = 64
    batch_window_s: float = 0.002
    batch_max: int = 64
    default_deadline_s: float = 10.0
    max_deadline_s: float = 60.0
    max_sweep_points: int = 10_000
    max_body_bytes: int = 1_000_000
    cache_capacity: int = 1024
    cache_path: str | None = None
    engine: str = "auto"
    watchdog_poll_s: float = 0.05
    watchdog_hang_s: float = 2.0
    wedge_s: float = 8.0
    allow_fault_injection: bool = False
    slo_p99_s: float = 0.25

    def __post_init__(self) -> None:
        for name, minimum in (
            ("queue_limit", 1), ("batch_max", 1), ("cache_capacity", 1),
            ("max_sweep_points", 1), ("max_body_bytes", 1),
        ):
            if getattr(self, name) < minimum:
                raise SpecError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)}"
                )
        for name in (
            "batch_window_s", "default_deadline_s", "max_deadline_s",
            "watchdog_poll_s", "watchdog_hang_s", "wedge_s", "slo_p99_s",
        ):
            if not getattr(self, name) > 0:
                raise SpecError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )
        if self.engine not in ("auto", "compiled", "interpreted"):
            raise SpecError(
                f"engine must be auto|compiled|interpreted, got "
                f"{self.engine!r}"
            )


class ResultCache:
    """Bounded LRU of response payloads, optionally crash-persistent.

    With a ``path`` every insert is appended as one JSONL line
    (:func:`repro.io.append_jsonl`); a restarted service replays the
    file through the shared torn-tail-tolerant reader and keeps the
    newest ``capacity`` entries — the crash-only recovery story: no
    shutdown handshake is needed for the cache to survive.
    """

    def __init__(self, capacity: int, path=None) -> None:
        self._capacity = int(capacity)
        self._path = path
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        if path is not None:
            import os

            if os.path.exists(os.fspath(path)):
                for key, payload in read_jsonl_tolerant(
                    path, _decode_cache_entry, error=ServeError,
                    label="cache record",
                ):
                    self._entries[key] = payload
                    self._entries.move_to_end(key)
                while len(self._entries) > self._capacity:
                    self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                _CACHE_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            _CACHE_HITS.inc()
            return payload

    def put(self, key: str, payload: dict) -> None:
        with self._lock:
            fresh = key not in self._entries
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
            if fresh and self._path is not None:
                append_jsonl(self._path, {"key": key, "payload": payload})


def _decode_cache_entry(record) -> tuple:
    if not isinstance(record, dict):
        raise TypeError("cache record is not an object")
    return str(record["key"]), record["payload"]


def _error_for_code(code: str, message: str) -> ReproError:
    """Reconstruct the catalogued exception for a recorded failure."""
    cls = FINE_GRAINED_CODES.get(code)
    if cls is None:
        by_default = {c.code: c for c in error_classes()}
        cls = by_default.get(code, ReproError)
    return cls(message, code=code)


class _EvalJob:
    """One coalescable eval request: inputs, deadline, and a one-shot
    result slot (first writer wins — a watchdog failing a wedged batch
    and the stale worker finishing late cannot both land)."""

    __slots__ = (
        "request", "deadline", "soc_key", "event", "payload", "error",
        "_done", "_lock",
    )

    def __init__(self, request: EvalRequest, deadline: float,
                 soc_key: str) -> None:
        self.request = request
        self.deadline = deadline
        self.soc_key = soc_key
        self.event = threading.Event()
        self.payload = None
        self.error = None
        self._done = False
        self._lock = threading.Lock()

    def finish(self, payload=None, error=None) -> bool:
        """Deliver the outcome; False when someone else already did."""
        with self._lock:
            if self._done:
                return False
            self._done = True
            self.payload = payload
            self.error = error
        self.event.set()
        return True


def _deadline_error(context: str) -> ServeError:
    _DEADLINE_MISSES.inc()
    return ServeError(
        f"{context} exceeded its deadline budget",
        code="SERVE_DEADLINE_EXCEEDED",
    )


class EvaluationService:
    """Admission, coalescing, isolation, and degradation — no HTTP.

    All three ``handle_*`` entry points are thread safe (the HTTP
    layer calls them from one thread per connection), raise
    :class:`~repro.errors.ReproError` subclasses for every failure,
    and return JSON-ready payload dicts on success.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 clock=time.monotonic) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self.cache = ResultCache(
            self.config.cache_capacity, self.config.cache_path
        )
        self._cv = threading.Condition()
        self._queue: deque = deque()
        self._inflight = 0
        self._arriving_evals = 0
        self._draining = False
        self._stopping = False
        self._closed = False
        self._started_at = time.time()
        self._worker_gen = 0
        self._current_batch = None
        self._busy_since = None
        self._worker = None
        self._start_worker()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="gables-serve-watchdog",
            daemon=True,
        )
        self._watchdog.start()

    # -- admission -----------------------------------------------------

    @contextmanager
    def _admitted(self):
        with self._cv:
            if self._draining or self._stopping:
                raise ServeError(
                    "server is draining and admits no new requests",
                    code="SERVE_SHUTTING_DOWN",
                )
            if self._inflight >= self.config.queue_limit:
                _SHED.inc()
                raise ServeError(
                    f"admission queue full ({self.config.queue_limit} "
                    f"in flight); retry later",
                    code="SERVE_OVERLOADED",
                )
            self._inflight += 1
        try:
            yield
        finally:
            with self._cv:
                self._inflight -= 1
                self._cv.notify_all()

    @contextmanager
    def _arriving(self):
        """Count one admitted ``/eval`` until it is queued or leaves.

        Yields ``enqueue(job)``, which queues the job and lowers the
        count under one hold of ``_cv``.  Leaving the block without
        queuing (cache hit, validation error, deadline, drain) lowers
        it instead.  The coalescer holds a batch open only while this
        count is above zero: it waits for requests already admitted,
        never for ones that may or may not come.
        """
        with self._cv:
            self._arriving_evals += 1
        queued = False

        def enqueue(job: _EvalJob) -> None:
            nonlocal queued
            with self._cv:
                if self._stopping:
                    raise ServeError(
                        "server is draining and admits no new requests",
                        code="SERVE_SHUTTING_DOWN",
                    )
                self._queue.append(job)
                self._arriving_evals -= 1
                queued = True
                self._cv.notify_all()

        try:
            yield enqueue
        finally:
            if not queued:
                with self._cv:
                    self._arriving_evals -= 1
                    self._cv.notify_all()

    def _request_deadline(self, requested) -> float:
        budget = (
            self.config.default_deadline_s if requested is None
            else min(requested, self.config.max_deadline_s)
        )
        return self._clock() + budget

    def _check_fault_allowed(self, fault) -> None:
        if fault is not None and not self.config.allow_fault_injection:
            raise ServeError(
                "fault injection is disabled on this server "
                "(start it with --chaos to enable)",
                code="SERVE_BAD_REQUEST",
            )

    # -- request handlers ----------------------------------------------

    def handle_eval(self, document) -> dict:
        """Scalar evaluation: validate, coalesce, isolate, respond."""
        _REQUESTS.inc()
        _REQ_EVAL.inc()
        with self._admitted(), self._arriving() as enqueue:
            request = parse_eval_request(document)
            self._check_fault_allowed(request.fault)
            deadline = self._request_deadline(request.deadline_s)
            if self._clock() >= deadline:
                # Already over budget (e.g. a microscopic deadline):
                # fail before the cache can short-circuit the verdict.
                raise _deadline_error("eval request")
            if request.fault is None:
                cached = self.cache.get(request.cache_key)
                if cached is not None:
                    meta = dict(cached.get("meta", {}))
                    meta["cached"] = True
                    return {**cached, "meta": meta}
            soc_key = canonical_request_key(encode_soc(request.soc))
            job = _EvalJob(request, deadline, soc_key)
            enqueue(job)
            remaining = deadline - self._clock()
            if not job.event.wait(max(0.0, remaining)):
                if job.finish(error=_deadline_error("eval request")):
                    raise job.error
                # The worker won the race while we were timing out.
            if job.error is not None:
                raise job.error
            if request.fault is None:
                self.cache.put(request.cache_key, job.payload)
            return job.payload

    def handle_sweep(self, document) -> dict:
        """Parameter sweep, evaluated inline on the calling thread."""
        _REQUESTS.inc()
        _REQ_SWEEP.inc()
        with self._admitted():
            request = parse_sweep_request(
                document, max_points=self.config.max_sweep_points
            )
            deadline = self._request_deadline(request.deadline_s)
            if self._clock() >= deadline:
                raise _deadline_error("sweep request")

            engine = self.config.engine
            if request.param == "f":
                series = sweep_fraction(
                    request.soc, request.workload, request.ip_index,
                    request.values, on_error=request.on_error,
                    engine=engine,
                )
            elif request.param == "intensity":
                series = sweep_intensity(
                    request.soc, request.workload, request.ip_index,
                    request.values, on_error=request.on_error,
                    engine=engine,
                )
            else:
                series = sweep_memory_bandwidth(
                    request.soc, request.workload, request.values,
                    on_error=request.on_error, engine=engine,
                )
            return {
                "kind": "sweep",
                "parameter": series.parameter,
                "values": list(series.values()),
                "attainables": list(series.attainables()),
                "bottlenecks": list(series.bottlenecks()),
                "transitions": [
                    {
                        "value": t.value,
                        "previous_value": t.previous_value,
                        "from": t.from_component,
                        "to": t.to_component,
                        "index": t.index,
                    }
                    for t in series.bottleneck_transitions()
                ],
                "errors": [
                    {
                        "coords": list(f.coords),
                        "code": f.code,
                        "message": f.message,
                    }
                    for f in series.errors
                ],
                "meta": {"engine": engine, "points": len(series)},
            }

    def handle_variants(self, document=None) -> dict:
        """Variant catalog (no body) or one variant evaluation."""
        _REQUESTS.inc()
        _REQ_VARIANTS.inc()
        if document is None:
            from ..core.variants import VARIANT_CHOICES

            # "phases" is workload-free (returns a PhasedResult, not a
            # GablesResult) and is not servable over this protocol.
            return {
                "kind": "variants",
                "variants": [v for v in VARIANT_CHOICES if v != "phases"],
            }
        with self._admitted():
            request = parse_variants_request(document)
            deadline = self._request_deadline(request.deadline_s)
            if self._clock() >= deadline:
                raise _deadline_error("variants request")
            try:
                variant = variant_from_config(
                    request.variant, request.soc, request.config
                )
                result = evaluate_variant(
                    request.soc, request.workload, variant
                )
            except ReproError:
                raise
            except Exception as err:
                raise ServeError(
                    f"worker crashed evaluating variant "
                    f"{request.variant!r}: {err}",
                    code="SERVE_WORKER_CRASHED",
                ) from err
            return {
                "kind": "eval",
                "result": encode_result(result),
                "meta": {
                    "cached": False,
                    "batched": 1,
                    "engine": "interpreted",
                    "variant": request.variant,
                },
            }

    # -- health and lifecycle ------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` document: liveness plus service metrics."""
        with self._cv:
            inflight = self._inflight
            queued = len(self._queue)
            draining = self._draining
        return {
            "status": "draining" if draining else "ok",
            "uptime_s": time.time() - self._started_at,
            "inflight": inflight,
            "queued": queued,
            "queue_limit": self.config.queue_limit,
            "cache_entries": len(self.cache),
            "metrics": {
                "requests": _REQUESTS.value,
                "shed": _SHED.value,
                "deadline_exceeded": _DEADLINE_MISSES.value,
                "batches": _BATCHES.value,
                "batched_requests": _BATCHED.value,
                "cache_hits": _CACHE_HITS.value,
                "watchdog_recycles": _RECYCLES.value,
                "faults_injected": _FAULTS.value,
            },
        }

    def load_stats(self) -> dict:
        """Instantaneous load: in-flight and queued request counts.

        The ``/metrics`` handler snapshots these into the
        ``serve.queue.depth``/``serve.inflight`` gauges at scrape time.
        """
        with self._cv:
            return {"inflight": self._inflight, "queued": len(self._queue)}

    def ready(self) -> tuple:
        """``(is_ready, document)`` for ``/readyz``.

        Not ready while draining (the SIGTERM window: load balancers
        stop routing here before in-flight work finishes) or while the
        admission queue is saturated.
        """
        with self._cv:
            draining = self._draining or self._stopping
            saturated = self._inflight >= self.config.queue_limit
        ready = not draining and not saturated
        return ready, {
            "ready": ready,
            "draining": draining,
            "saturated": saturated,
        }

    def drain(self, timeout_s: float = 10.0) -> dict:
        """Graceful shutdown: stop admitting, finish in-flight, stop.

        Returns ``{"drained": bool, "inflight_left": int}`` —
        ``drained`` is False only when in-flight work outlived the
        timeout (those requests are failed by their own deadlines, not
        abandoned silently).  Idempotent.
        """
        deadline = self._clock() + timeout_s
        with self._cv:
            self._draining = True
            self._cv.notify_all()
            while self._inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cv.wait(min(remaining, 0.05))
            left = self._inflight
            self._stopping = True
            self._cv.notify_all()
        worker = self._worker
        if worker is not None:
            worker.join(timeout=max(0.1, deadline - self._clock()))
        with self._cv:
            self._closed = True
        self._watchdog.join(timeout=1.0)
        return {"drained": left == 0, "inflight_left": left}

    # -- the coalescing worker -----------------------------------------

    def _start_worker(self) -> None:
        with self._cv:
            gen = self._worker_gen
        worker = threading.Thread(
            target=self._worker_loop, args=(gen,),
            name=f"gables-serve-worker-{gen}", daemon=True,
        )
        self._worker = worker
        worker.start()

    def _worker_loop(self, gen: int) -> None:
        while True:
            jobs = self._next_batch(gen)
            if jobs is None:
                return
            try:
                self._process_batch(jobs, gen)
            finally:
                with self._cv:
                    if gen == self._worker_gen:
                        self._current_batch = None
                        self._busy_since = None

    def _next_batch(self, gen: int):
        """Block for work, then gather the requests already on their way.

        The batch dispatches as soon as no admitted ``/eval`` is still
        between admission and the queue (see :meth:`_arriving`), after
        ``batch_window_s`` at the latest, or when it holds
        ``batch_max`` jobs.  A lone request is never held back.
        """
        with self._cv:
            while True:
                if gen != self._worker_gen:
                    return None
                if self._queue:
                    break
                if self._stopping:
                    return None
                self._cv.wait(0.1)
            jobs = [self._queue.popleft()]
            horizon = self._clock() + self.config.batch_window_s
            while len(jobs) < self.config.batch_max:
                if self._queue:
                    jobs.append(self._queue.popleft())
                    continue
                remaining = horizon - self._clock()
                if (not self._arriving_evals or remaining <= 0
                        or self._stopping):
                    break
                self._cv.wait(remaining)
                if gen != self._worker_gen:
                    # Recycled while coalescing: hand the batch to the
                    # fresh worker instead of racing it.
                    self._queue.extendleft(reversed(jobs))
                    return None
            self._current_batch = list(jobs)
            self._busy_since = self._clock()
        return jobs

    def _process_batch(self, jobs, gen: int) -> None:
        _BATCHES.inc()
        _BATCHED.inc(len(jobs))
        chaos = self.config.allow_fault_injection
        now = self._clock()
        live = []
        for job in jobs:
            if job.deadline <= now:
                job.finish(error=_deadline_error("eval request"))
            else:
                live.append(job)
        if chaos and any(j.request.fault == "wedge" for j in live):
            _FAULTS.inc()
            # Simulated stuck worker: sleep through the watchdog's
            # patience.  When (if) we wake, our generation is stale
            # and every job was already failed over to the client.
            time.sleep(self.config.wedge_s)
            with self._cv:
                if gen != self._worker_gen:
                    return
        groups: dict = {}
        for job in live:
            if chaos and job.request.fault == "crash":
                _FAULTS.inc()
                job.finish(error=ServeError(
                    "injected fault: worker crashed evaluating this "
                    "request",
                    code="SERVE_WORKER_CRASHED",
                ))
            else:
                groups.setdefault(job.soc_key, []).append(job)
        for group in groups.values():
            self._run_group(group)

    def _run_group(self, jobs) -> None:
        """Coalesced scalar evaluations for one SoC; never raises.

        ``on_error="record"`` keeps a bad row from touching its
        neighbors: valid rows are bitwise identical to an all-valid
        batch (pinned by the resilience suite), which matches the
        scalar evaluator bitwise on 2-IP SoCs and within 1e-12
        relative, with the same bottleneck and binding set, on wider
        ones.
        """
        soc = jobs[0].request.soc
        fractions = np.array(
            [j.request.workload.fractions for j in jobs], dtype=float
        )
        intensities = np.array(
            [j.request.workload.intensities for j in jobs], dtype=float
        )
        engine = self.config.engine
        try:
            batch = evaluate_batch(
                soc, fractions, intensities, on_error="record",
                engine=engine,
            )
        except ReproError as err:
            for job in jobs:
                job.finish(error=err)
            return
        except Exception as err:
            for job in jobs:
                job.finish(error=ServeError(
                    f"worker crashed evaluating batch: {err}",
                    code="SERVE_WORKER_CRASHED",
                ))
            return
        for index, job in enumerate(jobs):
            if batch.valid is not None and not bool(batch.valid[index]):
                failure = next(
                    (f for f in batch.errors if f.coords == (index,)),
                    None,
                )
                if failure is None:
                    job.finish(error=ServeError(
                        "batch row failed without a recorded cause",
                        code="SERVE_WORKER_CRASHED",
                    ))
                else:
                    job.finish(error=_error_for_code(
                        failure.code, failure.message
                    ))
            else:
                job.finish(payload=_eval_payload(
                    batch.result(index), batched=len(jobs), engine=engine,
                ))

    # -- the watchdog --------------------------------------------------

    def _watchdog_loop(self) -> None:
        while True:
            time.sleep(self.config.watchdog_poll_s)
            with self._cv:
                if self._closed:
                    return
                busy = self._busy_since
                wedged = (
                    busy is not None
                    and self._clock() - busy > self.config.watchdog_hang_s
                )
                if not wedged:
                    continue
                jobs = list(self._current_batch or ())
                self._current_batch = None
                self._busy_since = None
                self._worker_gen += 1
            _RECYCLES.inc()
            for job in jobs:
                job.finish(error=ServeError(
                    "worker thread wedged mid-evaluation and was "
                    "recycled; request abandoned",
                    code="SERVE_WORKER_CRASHED",
                ))
            self._start_worker()


def _eval_payload(result, *, batched: int, engine: str) -> dict:
    return {
        "kind": "eval",
        "result": encode_result(result),
        "meta": {
            "cached": False,
            "batched": batched,
            "engine": engine,
            "variant": "base",
        },
    }
