"""Request/response schema for the Gables evaluation service.

The wire format is deliberately boring: JSON documents over HTTP POST,
reusing the exact ``soc``/``workload`` document schema the offline
``gables`` CLI reads (:mod:`repro.io`), so a file that evaluates
offline evaluates over the wire unchanged.  What this module adds is
the *robustness* contract of the request layer:

- **strict validation** — every request is checked against an explicit
  per-endpoint schema (required keys, types, ranges, and *no unknown
  keys*, so a typo'd field fails loudly instead of being ignored);
- **structured errors** — every failure serializes as
  ``{"error": {"code", "message", "http_status", "exit_code",
  "request_id"}}``, where ``code`` comes from the library-wide
  :data:`repro.errors.FINE_GRAINED_CODES` catalog (extended here with
  the ``SERVE_*`` family) and :data:`HTTP_STATUS_BY_CODE` maps every
  catalogued code onto one HTTP status;
- **error round-tripping** — :func:`error_from_payload` reconstructs
  the original :class:`~repro.errors.ReproError` subclass client-side,
  so a ``WorkloadError`` raised in the server is a ``WorkloadError``
  (same code, same CLI exit status) in the client.

:func:`canonical_request_key` is the result cache's identity: a
SHA-256 over the canonical JSON of the evaluation-relevant fields, so
``65536`` vs ``65536.0`` and key order cannot alias or split cache
entries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..core.params import SoCSpec, Workload
from ..core.variants import VARIANT_CHOICES
from ..errors import (
    FINE_GRAINED_CODES,
    ReproError,
    ServeError,
    error_classes,
    exit_code_for,
)
from ..io.json_codec import decode_soc, decode_workload
from ..resilience import ON_ERROR_MODES

#: Chaos fault keys a request may carry (honored only when the service
#: was started with fault injection enabled; see ``ServiceConfig``).
FAULT_KINDS = ("crash",)

#: HTTP status for every catalogued error code — class defaults and
#: fine-grained codes alike.  ``tests/test_errors.py`` asserts the
#: mapping is complete, so adding an error without deciding its HTTP
#: face is a test failure, not a runtime 500.
HTTP_STATUS_BY_CODE: dict = {
    # class defaults
    "REPRO_ERROR": 500,
    "SPEC_INVALID": 400,
    "WORKLOAD_INVALID": 400,
    "EVALUATION_FAILED": 422,
    "SIMULATION_FAILED": 500,
    "FITTING_FAILED": 500,
    "SERIALIZATION_FAILED": 400,
    "OBSERVABILITY_FAILED": 500,
    "MEASUREMENT_FAILED": 500,
    "SERVE_FAILED": 500,
    # fine-grained codes
    "SPEC_NEGATIVE_BANDWIDTH": 400,
    "SPEC_NONPOSITIVE_PEAK": 400,
    "WORKLOAD_FRACTION_RANGE": 400,
    "WORKLOAD_FRACTION_SUM": 400,
    "WORKLOAD_INTENSITY_NONPOSITIVE": 400,
    "EVAL_DEGENERATE_POINT": 422,
    "SERIALIZATION_NONFINITE": 400,
    "MEASUREMENT_DROPOUT": 500,
    "MEASUREMENT_RETRIES_EXHAUSTED": 500,
    "SERVE_BAD_REQUEST": 400,
    "SERVE_UNKNOWN_ENDPOINT": 404,
    "SERVE_METHOD_NOT_ALLOWED": 405,
    "SERVE_PAYLOAD_TOO_LARGE": 413,
    "SERVE_DEADLINE_EXCEEDED": 504,
    "SERVE_OVERLOADED": 429,
    "SERVE_SHUTTING_DOWN": 503,
    "SERVE_WORKER_CRASHED": 500,
    "OBS_EXPOSITION_MALFORMED": 500,
    "SLO_BAD_OBJECTIVE": 400,
    "SLO_BURN_RATE_EXCEEDED": 503,
}


def http_status_for(err: BaseException) -> int:
    """The HTTP status a failure maps to (500 for foreign exceptions).

    Instance codes win over class defaults, mirroring how the CLI
    dispatches on :func:`repro.errors.exit_code_for`.
    """
    code = getattr(err, "code", None)
    if code in HTTP_STATUS_BY_CODE:
        return HTTP_STATUS_BY_CODE[code]
    return 500


def error_body(err: BaseException, *, request_id: str = "") -> dict:
    """The structured JSON error document for a failure."""
    return {
        "error": {
            "code": getattr(err, "code", "REPRO_ERROR"),
            "message": str(err),
            "http_status": http_status_for(err),
            "exit_code": exit_code_for(err),
            "request_id": request_id,
        }
    }


def error_from_payload(document: dict) -> ReproError:
    """Rebuild the server-side exception from its wire document.

    The class is recovered from the code — fine-grained codes map
    through :data:`~repro.errors.FINE_GRAINED_CODES`, class defaults
    through the class catalog — so ``except WorkloadError`` works the
    same against a remote evaluation as a local one.  Unknown codes
    degrade to :class:`~repro.errors.ServeError` rather than dropping
    the response on the floor.
    """
    entry = document.get("error") if isinstance(document, dict) else None
    if not isinstance(entry, dict):
        return ServeError(
            f"malformed error response: {document!r}",
            code="SERVE_BAD_REQUEST",
        )
    code = str(entry.get("code", "SERVE_FAILED"))
    message = str(entry.get("message", "(no message)"))
    cls = FINE_GRAINED_CODES.get(code)
    if cls is None:
        by_default = {c.code: c for c in error_classes()}
        cls = by_default.get(code, ServeError)
    err = cls(message, code=code)
    request_id = str(entry.get("request_id", ""))
    if request_id:
        err.request_id = request_id
    return err


def canonical_request_key(document: dict) -> str:
    """SHA-256 hex digest of a canonical-JSON request identity."""
    blob = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------


def _bad(message: str) -> ServeError:
    return ServeError(message, code="SERVE_BAD_REQUEST")


def _require_object(document, what: str) -> dict:
    if not isinstance(document, dict):
        raise _bad(f"{what} must be a JSON object, got "
                   f"{type(document).__name__}")
    return document


def _check_keys(document: dict, *, required: tuple, optional: tuple,
                what: str) -> None:
    keys = set(document)
    missing = sorted(set(required) - keys)
    if missing:
        raise _bad(f"{what} is missing required field(s): "
                   + ", ".join(missing))
    unknown = sorted(keys - set(required) - set(optional))
    if unknown:
        raise _bad(f"{what} has unknown field(s): " + ", ".join(unknown)
                   + f" (accepted: {', '.join(sorted(required + optional))})")


def _decode_pair(document: dict) -> tuple:
    """The (SoCSpec, Workload) of a request, via the io codecs."""
    soc = decode_soc(_require_object(document["soc"], "'soc'"))
    workload = decode_workload(
        _require_object(document["workload"], "'workload'")
    )
    if workload.n_ips != soc.n_ips:
        raise _bad(
            f"workload has {workload.n_ips} IP(s) but the SoC has "
            f"{soc.n_ips}"
        )
    return soc, workload


def _decode_deadline(document: dict):
    value = document.get("deadline_s")
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value <= 0:
        raise _bad(f"deadline_s must be a positive finite number, "
                   f"got {value!r}")
    return float(value)


def _decode_fault(document: dict):
    value = document.get("fault")
    if value is None:
        return None
    if value not in FAULT_KINDS:
        raise _bad(f"fault must be one of {FAULT_KINDS}, got {value!r}")
    return str(value)


# ---------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRequest:
    """A validated scalar evaluation request of the base model.

    ``cache_key`` is the canonical identity the result cache keys on;
    ``fault`` is the chaos hook (``None`` outside fault-injection
    runs).  Variant evaluations go through ``/v1/variants``
    (:class:`VariantsRequest`).
    """

    soc: SoCSpec
    workload: Workload
    deadline_s: float | None
    fault: str | None
    cache_key: str


def parse_eval_request(document) -> EvalRequest:
    """Validate an ``/v1/eval`` body into an :class:`EvalRequest`."""
    document = _require_object(document, "eval request")
    _check_keys(
        document,
        required=("soc", "workload"),
        optional=("deadline_s", "fault"),
        what="eval request",
    )
    soc, workload = _decode_pair(document)
    key = canonical_request_key({
        "kind": "eval",
        "soc": document["soc"],
        "workload": document["workload"],
    })
    return EvalRequest(
        soc=soc,
        workload=workload,
        deadline_s=_decode_deadline(document),
        fault=_decode_fault(document),
        cache_key=key,
    )


#: Sweepable parameters and the ``repro.explore`` driver each maps to.
SWEEP_PARAMS = ("f", "intensity", "bpeak")

#: The most values one sweep request may carry.
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class SweepRequest:
    """A validated parameter-sweep request."""

    soc: SoCSpec
    workload: Workload
    param: str
    ip_index: int
    values: tuple
    on_error: str
    deadline_s: float | None


def parse_sweep_request(document) -> SweepRequest:
    """Validate a ``/v1/sweep`` body into a :class:`SweepRequest`."""
    document = _require_object(document, "sweep request")
    _check_keys(
        document,
        required=("soc", "workload", "param", "values"),
        optional=("ip_index", "on_error", "deadline_s"),
        what="sweep request",
    )
    soc, workload = _decode_pair(document)
    param = document["param"]
    if param not in SWEEP_PARAMS:
        raise _bad(f"param must be one of {SWEEP_PARAMS}, got {param!r}")
    values = document["values"]
    if not isinstance(values, list) or not values:
        raise _bad("values must be a non-empty JSON array of numbers")
    if len(values) > MAX_SWEEP_POINTS:
        raise ServeError(
            f"sweep of {len(values)} points exceeds the service limit "
            f"of {MAX_SWEEP_POINTS}",
            code="SERVE_PAYLOAD_TOO_LARGE",
        )
    numbers = []
    for index, value in enumerate(values):
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or (isinstance(value, float) and math.isnan(value)):
            raise _bad(f"values[{index}] must be a number, got {value!r}")
        numbers.append(float(value))
    ip_index = document.get("ip_index", 0)
    if not isinstance(ip_index, int) or isinstance(ip_index, bool) \
            or not 0 <= ip_index < soc.n_ips:
        raise _bad(f"ip_index must be an integer in [0, {soc.n_ips}), "
                   f"got {ip_index!r}")
    on_error = document.get("on_error", "record")
    if on_error not in ON_ERROR_MODES:
        raise _bad(f"on_error must be one of {ON_ERROR_MODES}, "
                   f"got {on_error!r}")
    return SweepRequest(
        soc=soc,
        workload=workload,
        param=str(param),
        ip_index=ip_index,
        values=tuple(numbers),
        on_error=str(on_error),
        deadline_s=_decode_deadline(document),
    )


@dataclass(frozen=True)
class VariantsRequest:
    """A validated variant-evaluation request (``/v1/variants``)."""

    soc: SoCSpec
    workload: Workload
    variant: str
    config: dict | None
    deadline_s: float | None


def parse_variants_request(document) -> VariantsRequest:
    """Validate a ``/v1/variants`` POST body."""
    document = _require_object(document, "variants request")
    _check_keys(
        document,
        required=("soc", "workload", "variant"),
        optional=("config", "deadline_s"),
        what="variants request",
    )
    soc, workload = _decode_pair(document)
    name = document["variant"]
    if name not in VARIANT_CHOICES:
        raise _bad(f"variant must be one of {VARIANT_CHOICES}, "
                   f"got {name!r}")
    if name == "phases":
        raise _bad(
            "the workload-free 'phases' variant has no single-workload "
            "serving form; evaluate it offline with `gables eval`"
        )
    config = document.get("config")
    if config is not None:
        _require_object(config, "'config'")
    return VariantsRequest(
        soc=soc,
        workload=workload,
        variant=str(name),
        config=config,
        deadline_s=_decode_deadline(document),
    )
