"""The HTTP/JSON surface over :class:`~repro.serve.EvaluationService`.

Deliberately thin: ``http.server`` from the stdlib (one thread per
connection via :class:`~http.server.ThreadingHTTPServer`), strict
JSON in, strict JSON out, every failure mapped through
:mod:`repro.serve.protocol` into a structured error body with a
catalogued code and the HTTP status from
:data:`~repro.serve.protocol.HTTP_STATUS_BY_CODE`.  All policy —
admission, deadlines, evaluation, the result cache — lives in the
service, which evaluates each request on the handler thread that
received it; the only decisions made here are transport ones:

- every request is assigned a fresh request id, answered in the
  ``X-Gables-Request-Id`` header (and in error bodies) and stamped
  into every structured log line emitted while handling it, so a
  client-side failure can be joined against server-side logs;
- trace propagation: when the request carries ``X-Gables-Trace-Id``
  (and optionally ``X-Gables-Parent-Span``), the handler adopts that
  trace and opens its ``serve.request`` span under the client's span,
  joining both sides into one trace;
- every request feeds the per-endpoint/per-outcome latency series
  behind ``GET /metrics`` and the live SLO window behind ``GET /slo``
  (observability scrapes themselves are exposed but excluded from the
  SLO window);
- 429 and 503 responses carry ``Retry-After``;
- request bodies beyond the configured limit are refused with 413
  *before* being read into memory;
- an error answered before the body is read closes the connection, so
  the unread body never parses as the next keep-alive request;
- ``SIGTERM``/``SIGINT`` trigger a graceful drain: readiness flips
  immediately, in-flight requests finish, then the listener stops.

Routes::

    GET  /healthz     liveness + service metrics
    GET  /readyz      200 when admitting, 503 while draining/saturated
    GET  /variants    servable variant names
    GET  /metrics     Prometheus-style text exposition of the registry
    GET  /slo         live SLO burn-rate report (JSON)
    POST /eval        one scalar evaluation of base Gables
    POST /sweep       one parameter sweep
    POST /variants    one variant evaluation
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ObservabilityError, ReproError, ServeError
from ..obs.context import TraceContext, context_scope, extract_headers, \
    new_trace_id
from ..obs.expo import exposition_content_type, render_exposition
from ..obs.logging import log_event
from ..obs.metrics import bucket_histogram, counter, gauge
from ..obs.slo import default_objectives, evaluate_slos, observe_request, \
    request_window
from ..obs.trace import span
from .protocol import error_body, http_status_for
from .service import EvaluationService, ServiceConfig

#: Seconds clients are told to wait after a 429/503.
RETRY_AFTER_S = 1

#: Every route: ``(method, path)`` -> the :class:`_Handler` method
#: that answers it with ``(status, document)``.
_ROUTES = {
    ("GET", "/healthz"): "_do_healthz",
    ("GET", "/readyz"): "_do_readyz",
    ("GET", "/variants"): "_do_variants_catalog",
    ("GET", "/metrics"): "_do_metrics",
    ("GET", "/slo"): "_do_slo",
    ("POST", "/eval"): "_do_eval",
    ("POST", "/sweep"): "_do_sweep",
    ("POST", "/variants"): "_do_variants",
}

#: Paths allowed as ``endpoint`` label values; anything else is folded
#: into ``other`` so unknown-path probes cannot explode label
#: cardinality in the registry.
KNOWN_ENDPOINTS = frozenset(path for _, path in _ROUTES)

#: Endpoints that *report* observability rather than serve traffic;
#: they are exposed in the latency series but excluded from the SLO
#: window (a scrape must not move the SLO it reports).
OBSERVER_ENDPOINTS = frozenset(("/metrics", "/slo"))


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; all real work delegates to the service."""

    protocol_version = "HTTP/1.1"
    timeout = 65
    server_version = "gables-serve"
    sys_version = ""

    # -- plumbing ------------------------------------------------------

    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        log_event("debug", "serve.http", format % args)

    def _send(self, status: int, document, *, request_id: str = "",
              close: bool = False) -> None:
        """Answer with ``document``: a str is the metrics exposition,
        anything else JSON.  ``end_headers`` flushes the headers, then
        the body is written."""
        if isinstance(document, str):
            content_type, text = exposition_content_type(), document
        else:
            content_type = "application/json"
            text = json.dumps(document, sort_keys=True)
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id:
            self.send_header("X-Gables-Request-Id", request_id)
        if status in (429, 503):
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        if close:
            # http.server also sets close_connection on this header.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, err: ReproError, *,
                         request_id: str = "") -> None:
        # An error answered before _read_body consumed the body (404,
        # 405, 413, a bad Content-Length) leaves that body in the
        # keep-alive stream, where it would parse as the next request:
        # answer, then close the connection.
        self._send(
            http_status_for(err),
            error_body(err, request_id=request_id),
            request_id=request_id,
            close=not self._body_read,
        )

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise ServeError(
                "request must carry a numeric Content-Length",
                code="SERVE_BAD_REQUEST",
            ) from None
        limit = self.service.config.max_body_bytes
        if length > limit:
            raise ServeError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
                code="SERVE_PAYLOAD_TOO_LARGE",
            )
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as err:
            raise ServeError(
                f"request body is not valid JSON: {err}",
                code="SERVE_BAD_REQUEST",
            ) from None
        if not isinstance(document, dict):
            raise ServeError(
                "request body must be a JSON object",
                code="SERVE_BAD_REQUEST",
            )
        # Chaos requests are deliberate failures: keep them visible in
        # the exposition series but out of the live SLO window, so a
        # chaos drill never spends the real error budget.
        self._fault_requested = bool(document.get("fault"))
        return document

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        self._fault_requested = False
        self._body_read = False
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            remote = extract_headers(self.headers)
        except ObservabilityError as err:
            # Bad telemetry headers must not fail a good request.
            log_event(
                "warning", "serve.trace.malformed", str(err), path=path
            )
            remote = None
        request_id = new_trace_id()
        context = TraceContext(
            trace_id=remote.trace_id if remote else request_id,
            parent_span_id=remote.parent_span_id if remote else None,
            request_id=request_id,
        )
        outcome = "ok"
        with context_scope(context), span(
            "serve.request",
            parent_id=context.parent_span_id,
            endpoint=path, method=method, request_id=request_id,
            trace_id=context.trace_id,
        ):
            try:
                status, document = self._route(method, path)()
                self._send(status, document, request_id=request_id)
            except ReproError as err:
                outcome = err.code
                log_event(
                    "warning", "serve.request.error",
                    str(err), code=err.code, path=self.path,
                )
                self._send_error_json(err, request_id=request_id)
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up; nothing left to answer.
                outcome = "SERVE_CLIENT_DISCONNECTED"
                self.close_connection = True
            except Exception as err:  # pragma: no cover - last resort
                outcome = "SERVE_WORKER_CRASHED"
                log_event(
                    "error", "serve.request.crash", str(err),
                    path=self.path,
                )
                self._send_error_json(
                    ServeError(
                        f"internal error handling {self.path}: {err}",
                        code="SERVE_WORKER_CRASHED",
                    ),
                    request_id=request_id,
                )
        self._record_request(path, outcome, time.perf_counter() - start)

    def _record_request(self, path: str, outcome: str,
                        elapsed_s: float) -> None:
        """Feed the exposition series and the live SLO window."""
        endpoint = path if path in KNOWN_ENDPOINTS else "other"
        labels = {"endpoint": endpoint, "outcome": outcome}
        counter("serve.http.requests", labels=labels).inc()
        bucket_histogram(
            "serve.request.seconds", labels=labels
        ).record(elapsed_s)
        if endpoint not in OBSERVER_ENDPOINTS and not getattr(
            self, "_fault_requested", False
        ):
            observe_request(ok=outcome == "ok", latency_s=elapsed_s)

    def _route(self, method: str, path: str):
        name = _ROUTES.get((method, path))
        if name is not None:
            return getattr(self, name)
        if path in KNOWN_ENDPOINTS:
            raise ServeError(
                f"{method} is not allowed on {path}",
                code="SERVE_METHOD_NOT_ALLOWED",
            )
        raise ServeError(
            f"no such endpoint: {path}",
            code="SERVE_UNKNOWN_ENDPOINT",
        )

    # -- routes: each returns ``(status, document)`` -------------------

    def _do_healthz(self) -> tuple:
        return 200, self.service.health()

    def _do_readyz(self) -> tuple:
        ready, document = self.service.ready()
        return 200 if ready else 503, document

    def _do_variants_catalog(self) -> tuple:
        return 200, self.service.handle_variants(None)

    def _do_metrics(self) -> tuple:
        gauge("serve.inflight").set(self.service.health()["inflight"])
        return 200, render_exposition()

    def _do_slo(self) -> tuple:
        report = evaluate_slos(default_objectives(), request_window().events())
        report["window_events"] = len(request_window())
        return 200, report

    def _do_eval(self) -> tuple:
        return 200, self.service.handle_eval(self._read_body())

    def _do_sweep(self) -> tuple:
        return 200, self.service.handle_sweep(self._read_body())

    def _do_variants(self) -> tuple:
        return 200, self.service.handle_variants(self._read_body())

    # -- HTTP verbs ----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class GablesServer:
    """The bound listener plus its lifecycle.

    ``GablesServer(config, port=0)`` binds immediately (port 0 picks a
    free one — the test suite's pattern); :meth:`start` serves on a
    background thread, :meth:`serve_forever` on the caller's.
    :meth:`shutdown_gracefully` drains the service then stops the
    listener, and is what the installed signal handlers invoke.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 host: str = "127.0.0.1", port: int = 8080,
                 drain_timeout_s: float = 10.0) -> None:
        self.service = EvaluationService(config)
        self.drain_timeout_s = drain_timeout_s
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._shutdown_once = threading.Lock()
        self._finished = threading.Event()
        self.drain_report: dict | None = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GablesServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._serve, name="gables-serve-listener", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until shut down."""
        self._serve()

    def _serve(self) -> None:
        log_event("info", "serve.start", self.url)
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self._httpd.server_close()
            self._finished.set()
            log_event("info", "serve.stop", self.url)

    def shutdown_gracefully(self) -> dict:
        """Drain in-flight work, then stop the listener.  Idempotent.

        Readiness flips to 503 the moment the drain starts, so a load
        balancer probing ``/readyz`` stops sending traffic while the
        listener is still answering in-flight requests.
        """
        if not self._shutdown_once.acquire(blocking=False):
            self._finished.wait()
            return self.drain_report or {}
        self.drain_report = self.service.drain(self.drain_timeout_s)
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return self.drain_report

    def install_signal_handlers(self) -> None:
        """Route ``SIGTERM``/``SIGINT`` into a graceful shutdown.

        The handler hands off to a fresh thread: calling
        ``httpd.shutdown()`` from the thread running
        ``serve_forever`` deadlocks, and a signal can land on exactly
        that thread.
        """

        def handle(signum, frame) -> None:
            log_event("info", "serve.signal", signal.Signals(signum).name)
            threading.Thread(
                target=self.shutdown_gracefully,
                name="gables-serve-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, handle)
        signal.signal(signal.SIGINT, handle)
