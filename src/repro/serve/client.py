"""A minimal blocking client for the evaluation service.

Stdlib ``http.client`` only — the same zero-dependency rule as the
server.  :class:`ServiceClient` keeps one persistent HTTP/1.1
connection (reconnecting once on a torn socket), sends/receives the
:mod:`repro.serve.protocol` JSON documents, and re-raises server-side
failures as the *same* :class:`~repro.errors.ReproError` subclasses an
offline caller would see — ``except WorkloadError`` works identically
against a local :func:`~repro.core.gables.evaluate` and a remote one.
"""

from __future__ import annotations

import http.client
import json

from ..errors import ServeError
from ..io.json_codec import encode_soc, encode_workload
from ..obs.context import current_context, inject_headers, new_context
from ..obs.trace import span
from .protocol import error_from_payload


class ServiceClient:
    """One connection to a ``gables serve`` endpoint.

    Parameters
    ----------
    url:
        Base URL, e.g. ``http://127.0.0.1:8080`` (http only; the
        service is a loopback/LAN tool, not an internet-facing one).
    timeout_s:
        Socket timeout for connect and each response.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, url: str, *, timeout_s: float = 30.0) -> None:
        if url.startswith("http://"):
            netloc = url[len("http://"):]
        elif "://" in url:
            raise ServeError(
                f"only http:// URLs are supported, got {url!r}",
                code="SERVE_BAD_REQUEST",
            )
        else:
            netloc = url
        netloc = netloc.rstrip("/")
        host, _, port = netloc.partition(":")
        self._host = host or "127.0.0.1"
        self._port = int(port) if port else 80
        self._timeout_s = timeout_s
        self._conn: http.client.HTTPConnection | None = None
        self.last_request_id = ""

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout_s
            )
        return self._conn

    def _exchange(self, method: str, path: str, document=None) -> tuple:
        body = None
        headers = {}
        if document is not None:
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # Wire-level trace propagation: the request carries this
        # thread's trace id (or starts a fresh trace) and, when tracing
        # is on, names the live client span as the server span's parent.
        context = current_context()
        if context is None:
            context = new_context()
        with span(
            "serve.client.request", endpoint=path, method=method,
            trace_id=context.trace_id,
        ) as client_span:
            record = getattr(client_span, "record", None)
            inject_headers(
                context, headers,
                parent_span_id=record.span_id if record else None,
            )
            for attempt in (1, 2):
                conn = self._connection()
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                    break
                except (ConnectionError, http.client.HTTPException,
                        OSError) as err:
                    # One reconnect covers a server-side keep-alive
                    # close; a second failure is a real connectivity
                    # problem.
                    self.close()
                    if attempt == 2:
                        raise ServeError(
                            f"cannot reach "
                            f"http://{self._host}:{self._port} "
                            f"({err or type(err).__name__})"
                        ) from err
            self.last_request_id = response.headers.get(
                "X-Gables-Request-Id", ""
            )
            client_span.set_attribute(
                "request_id", self.last_request_id
            ).set_attribute("status", response.status)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError) as err:
            raise ServeError(
                f"server returned invalid JSON ({err})",
                code="SERVE_BAD_REQUEST",
            ) from None
        return response.status, payload

    def _call(self, method: str, path: str, document=None) -> dict:
        status, payload = self._exchange(method, path, document)
        if status >= 400:
            raise error_from_payload(payload)
        return payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._call("GET", "/healthz")

    def ready(self) -> bool:
        """``GET /readyz`` — True when the server admits requests."""
        status, _ = self._exchange("GET", "/readyz")
        return status == 200

    def variant_names(self) -> tuple:
        """``GET /variants`` — the servable variant names."""
        return tuple(self._call("GET", "/variants")["variants"])

    def evaluate(self, soc, workload, *, deadline_s=None,
                 fault=None) -> dict:
        """``POST /eval`` — one scalar evaluation.

        ``soc``/``workload`` may be spec objects (encoded here) or
        already-encoded JSON documents.  Returns the response payload;
        the encoded result lives under ``"result"`` and equals offline
        :func:`~repro.core.gables.evaluate` bitwise.
        Raises the reconstructed :class:`~repro.errors.ReproError` on
        any failure.
        """
        document = {
            "soc": _encode(soc, encode_soc),
            "workload": _encode(workload, encode_workload),
        }
        if deadline_s is not None:
            document["deadline_s"] = deadline_s
        if fault is not None:
            document["fault"] = fault
        return self._call("POST", "/eval", document)

    def sweep(self, soc, workload, *, param, values, ip_index=None,
              on_error=None, deadline_s=None) -> dict:
        """``POST /sweep`` — one parameter sweep."""
        document = {
            "soc": _encode(soc, encode_soc),
            "workload": _encode(workload, encode_workload),
            "param": param,
            "values": list(values),
        }
        if ip_index is not None:
            document["ip_index"] = ip_index
        if on_error is not None:
            document["on_error"] = on_error
        if deadline_s is not None:
            document["deadline_s"] = deadline_s
        return self._call("POST", "/sweep", document)

    def evaluate_variant(self, soc, workload, variant, *, config=None,
                         deadline_s=None) -> dict:
        """``POST /variants`` — one variant evaluation."""
        document = {
            "soc": _encode(soc, encode_soc),
            "workload": _encode(workload, encode_workload),
            "variant": variant,
        }
        if config is not None:
            document["config"] = config
        if deadline_s is not None:
            document["deadline_s"] = deadline_s
        return self._call("POST", "/variants", document)

    def raw(self, method: str, path: str, document=None) -> tuple:
        """An unchecked exchange: ``(status, payload)``, no raising.

        The load generator uses this to observe error responses as
        data instead of exceptions.
        """
        return self._exchange(method, path, document)


def _encode(value, encoder):
    return value if isinstance(value, dict) else encoder(value)
