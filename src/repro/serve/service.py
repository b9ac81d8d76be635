"""The fault-isolated evaluation core behind the HTTP surface.

:class:`EvaluationService` is the transport-free heart of
``gables serve``; :mod:`repro.serve.server` is a thin HTTP adapter
over it.  Every request is evaluated inline on the thread that calls
its handler (one thread per connection under the HTTP server); the
service starts no thread of its own.  Robustness is the load-bearing
design, one mechanism per failure mode:

- **admission control** — a bounded in-flight budget; requests beyond
  it are *shed* with ``SERVE_OVERLOADED`` (HTTP 429 + ``Retry-After``)
  instead of queuing without bound, and a draining service refuses new
  work with ``SERVE_SHUTTING_DOWN`` (503).
- **deadlines** — every ``/eval``, ``/sweep`` and ``/variants``
  request carries a wall-clock budget (default from
  :class:`ServiceConfig`, capped at :data:`MAX_DEADLINE_S`) and
  evaluates inside one budget step: a request that is over budget
  before it evaluates, or whose result comes back late, returns
  ``SERVE_DEADLINE_EXCEEDED`` (504).  A late result is neither
  returned nor cached.
- **served evaluation** — ``/eval`` calls the scalar
  :func:`repro.core.gables.evaluate`, so every response equals the
  offline result bitwise, on any SoC; ``/variants`` calls
  :func:`~repro.core.variants.evaluate_variant`, and ``/sweep`` the
  offline :mod:`repro.explore.sweep` drivers on the configured batch
  ``engine``.  A request the model rejects fails alone, with the
  model's own catalogued code; a slow one holds only its own handler
  thread and admission slot.  A failure outside the model's catalog
  is ``SERVE_WORKER_CRASHED``, on every endpoint.
- **result cache** — ``/eval`` responses are cached on the canonical
  spec/workload hash; with a ``cache_path`` the cache is an
  append-only JSONL file recovered on restart through the shared
  torn-tail-tolerant reader (crash-only restart: kill the process,
  start it again, warm cache).
- **graceful drain** — :meth:`EvaluationService.drain` stops
  admission and waits, up to a timeout, for in-flight requests.

Chaos hook: when ``allow_fault_injection`` is set, an ``/eval`` may
carry ``"fault": "crash"``, which fails it with
``SERVE_WORKER_CRASHED`` (the load generator's fault plans do); outside
chaos runs the field is rejected at validation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from ..core import ENGINE_CHOICES
# Served /eval runs the scalar model; ``evaluate_batch`` stays
# importable here because perfbench's tracer lists it as a target.
from ..core.batch import evaluate_batch  # noqa: F401
from ..core.gables import evaluate
from ..core.variants import evaluate_variant, variant_from_config
from ..errors import ReproError, ServeError, SpecError
from ..explore.sweep import (
    sweep_fraction,
    sweep_intensity,
    sweep_memory_bandwidth,
)
from ..io.json_codec import _encode_number, encode_result
from ..io.jsonl import append_jsonl, read_jsonl_tolerant
from ..obs.metrics import counter as _counter
from .protocol import (
    parse_eval_request,
    parse_sweep_request,
    parse_variants_request,
)

_REQUESTS = _counter("serve.requests")
_SHED = _counter("serve.shed")
_DEADLINE_MISSES = _counter("serve.deadline_exceeded")
_CACHE_HITS = _counter("serve.cache.hits")
_CACHE_MISSES = _counter("serve.cache.misses")
_FAULTS = _counter("serve.faults.injected")

#: The longest budget a request may ask for, in seconds.
MAX_DEADLINE_S = 60.0

#: Responses the result cache keeps.
CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable robustness budgets of one service instance.

    The defaults are sized for a small shared box: shed beyond 64
    in-flight requests, and give every request 10 s unless it asks for
    less (never more than :data:`MAX_DEADLINE_S`).  ``engine`` picks
    the batch tier of ``/sweep``; ``/eval`` and ``/variants`` evaluate
    with the scalar model.
    """

    queue_limit: int = 64
    default_deadline_s: float = 10.0
    max_body_bytes: int = 1_000_000
    cache_path: str | None = None
    engine: str = "auto"
    allow_fault_injection: bool = False

    def __post_init__(self) -> None:
        for name in ("queue_limit", "max_body_bytes"):
            if getattr(self, name) < 1:
                raise SpecError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if not self.default_deadline_s > 0:
            raise SpecError(
                f"default_deadline_s must be positive, got "
                f"{self.default_deadline_s!r}"
            )
        if self.engine not in ENGINE_CHOICES:
            raise SpecError(
                f"engine must be {'|'.join(ENGINE_CHOICES)}, got "
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


def _deadline_error(context: str) -> ServeError:
    _DEADLINE_MISSES.inc()
    return ServeError(
        f"{context} exceeded its deadline budget",
        code="SERVE_DEADLINE_EXCEEDED",
    )


@contextmanager
def _crash_boundary(what: str):
    """Pass a catalogued model error through; any other is a crash."""
    try:
        yield
    except ReproError:
        raise
    except Exception as err:
        raise ServeError(
            f"evaluation crashed on {what}: {err}",
            code="SERVE_WORKER_CRASHED",
        ) from err


def _eval_payload(result, *, variant: str) -> dict:
    """The ``/eval`` and ``/variants`` response for one scalar result."""
    return {
        "kind": "eval",
        "result": encode_result(result),
        "meta": {
            "cached": False,
            "batched": 1,
            "engine": "interpreted",
            "variant": variant,
        },
    }


class EvaluationService:
    """Admission, deadlines, isolation and caching — no HTTP.

    All three ``handle_*`` entry points are thread safe (the HTTP
    layer calls them from one thread per connection), evaluate on the
    calling thread, raise :class:`~repro.errors.ReproError` subclasses
    for every failure, and return JSON-ready payload dicts on success.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 clock=time.monotonic) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self.cache = ResultCache(CACHE_CAPACITY, self.config.cache_path)
        self._cv = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._started_at = time.time()

    # -- admission -----------------------------------------------------

    @contextmanager
    def _admitted(self):
        with self._cv:
            if self._draining:
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
    def _budget(self, requested, what: str, *, crashed_on: str = ""):
        """Run one request's evaluation within its deadline budget.

        The budget is the ``requested`` seconds, capped at
        :data:`MAX_DEADLINE_S`, or the configured default.  Fails with
        ``SERVE_DEADLINE_EXCEEDED`` when it is already spent on entry
        (a microscopic deadline fails before the cache can
        short-circuit the verdict) and when the body finishes late (a
        late result is neither returned nor cached).  The body runs
        inside :func:`_crash_boundary`, labelled ``crashed_on``
        (default ``what``).
        """
        deadline = self._clock() + (
            self.config.default_deadline_s if requested is None
            else min(requested, MAX_DEADLINE_S)
        )
        if self._clock() >= deadline:
            raise _deadline_error(what)
        with _crash_boundary(crashed_on or what):
            yield
        if self._clock() >= deadline:
            raise _deadline_error(what)

    def _check_fault_allowed(self, fault) -> None:
        if fault is not None and not self.config.allow_fault_injection:
            raise ServeError(
                "fault injection is disabled on this server "
                "(start it with --chaos to enable)",
                code="SERVE_BAD_REQUEST",
            )

    # -- request handlers ----------------------------------------------

    def handle_eval(self, document) -> dict:
        """Scalar evaluation: validate, evaluate inline, respond."""
        _REQUESTS.inc()
        with self._admitted():
            request = parse_eval_request(document)
            self._check_fault_allowed(request.fault)
            with self._budget(request.deadline_s, "eval request"):
                if request.fault == "crash":
                    # Faulted requests never reach the cache.
                    _FAULTS.inc()
                    raise ServeError(
                        "injected fault: evaluation crashed on this request",
                        code="SERVE_WORKER_CRASHED",
                    )
                cached = self.cache.get(request.cache_key)
                if cached is not None:
                    meta = dict(cached.get("meta", {}))
                    meta["cached"] = True
                    return {**cached, "meta": meta}
                result = evaluate(request.soc, request.workload)
            payload = _eval_payload(result, variant="base")
            self.cache.put(request.cache_key, payload)
            return payload

    def handle_sweep(self, document) -> dict:
        """Parameter sweep, evaluated inline on the calling thread."""
        _REQUESTS.inc()
        with self._admitted():
            request = parse_sweep_request(document)
            engine = self.config.engine
            with self._budget(request.deadline_s, "sweep request"):
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
                # Infinite numbers read "inf", as in encode_result, so
                # the body stays strict JSON.
                "values": [_encode_number(v) for v in series.values()],
                "attainables": [
                    _encode_number(a) for a in series.attainables()
                ],
                "bottlenecks": list(series.bottlenecks()),
                "transitions": [
                    {
                        "value": _encode_number(t.value),
                        "previous_value": _encode_number(t.previous_value),
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
            with self._budget(
                request.deadline_s, "variants request",
                crashed_on=f"variant {request.variant!r}",
            ):
                variant = variant_from_config(
                    request.variant, request.soc, request.config
                )
                result = evaluate_variant(
                    request.soc, request.workload, variant
                )
            return _eval_payload(result, variant=request.variant)

    # -- health and lifecycle ------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` document: liveness plus service metrics."""
        with self._cv:
            inflight = self._inflight
            draining = self._draining
        return {
            "status": "draining" if draining else "ok",
            "uptime_s": time.time() - self._started_at,
            "inflight": inflight,
            "queue_limit": self.config.queue_limit,
            "cache_entries": len(self.cache),
            "metrics": {
                "requests": _REQUESTS.value,
                "shed": _SHED.value,
                "deadline_exceeded": _DEADLINE_MISSES.value,
                "cache_hits": _CACHE_HITS.value,
                "faults_injected": _FAULTS.value,
            },
        }

    def ready(self) -> tuple:
        """``(is_ready, document)`` for ``/readyz``.

        Not ready while draining (the SIGTERM window: load balancers
        stop routing here before in-flight work finishes) or while the
        admission budget is saturated.
        """
        with self._cv:
            draining = self._draining
            saturated = self._inflight >= self.config.queue_limit
        ready = not draining and not saturated
        return ready, {
            "ready": ready,
            "draining": draining,
            "saturated": saturated,
        }

    def drain(self, timeout_s: float = 10.0) -> dict:
        """Graceful shutdown: stop admitting, wait for in-flight work.

        Returns ``{"drained": bool, "inflight_left": int}`` —
        ``drained`` is False only when in-flight work outlived the
        timeout (those requests still finish, or fail, by their own
        deadlines).  Idempotent.
        """
        deadline = self._clock() + timeout_s
        with self._cv:
            self._draining = True
            while self._inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cv.wait(min(remaining, 0.05))
            left = self._inflight
        return {"drained": left == 0, "inflight_left": left}
