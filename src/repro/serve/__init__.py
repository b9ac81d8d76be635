"""Gables as a service: fault-isolated evaluation over HTTP/JSON.

The paper's model is cheap enough to evaluate anywhere; what a shared
deployment adds is *failure domains* — many clients, one process, no
request allowed to take another down with it.  This package is that
deployment story, dependency-free (stdlib ``http.server`` + threads):

- :mod:`~repro.serve.protocol` — request schemas, strict validation,
  the ``SERVE_*`` error codes and their HTTP status mapping, and the
  canonical request hash the result cache keys on;
- :mod:`~repro.serve.service` — admission control with load shedding,
  per-request deadlines, and inline evaluation on the handler thread:
  ``/eval`` runs the scalar model (bitwise identical to offline
  :func:`~repro.core.gables.evaluate` on every SoC), and ``/sweep``
  the offline :mod:`repro.explore.sweep` drivers (so a served sweep
  equals the offline one bitwise, in every ``on_error`` mode); plus
  the result cache and graceful drain;
- :mod:`~repro.serve.server` — the thin HTTP adapter
  (``gables serve``), with ``/healthz``, ``/readyz``, and
  SIGTERM-triggered drain;
- :mod:`~repro.serve.client` — a blocking client that re-raises
  server-side failures as the same :class:`~repro.errors.ReproError`
  subclasses offline callers see (``gables client``);
- :mod:`~repro.serve.loadgen` — the chaos load harness: deterministic
  fault-plan-driven poison requests, bitwise clean-response oracle,
  p50/p99 SLO records for the benchmark history.

See ``docs/serving.md`` for the operational walkthrough.
"""

from .client import ServiceClient
from .loadgen import (
    LoadReport,
    format_report,
    record_slo,
    run_load,
    slo_records,
)
from .protocol import (
    HTTP_STATUS_BY_CODE,
    canonical_request_key,
    error_body,
    error_from_payload,
    http_status_for,
    parse_eval_request,
    parse_sweep_request,
    parse_variants_request,
)
from .server import GablesServer
from .service import EvaluationService, ResultCache, ServiceConfig

__all__ = [
    "HTTP_STATUS_BY_CODE",
    "EvaluationService",
    "GablesServer",
    "LoadReport",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "canonical_request_key",
    "error_body",
    "error_from_payload",
    "format_report",
    "http_status_for",
    "parse_eval_request",
    "parse_sweep_request",
    "parse_variants_request",
    "record_slo",
    "run_load",
    "slo_records",
]
