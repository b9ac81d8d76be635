"""JSON serialization for model inputs and results.

Specs and workloads round-trip (``encode`` then ``decode`` is
identity); results export one-way for logging and comparison.  Every
document carries a ``"kind"`` tag and a ``"schema"`` version so stored
files stay debuggable.

Infinity-valued intensities (perfect reuse) are encoded as the string
``"inf"`` because JSON has no infinity literal.  Decoding *rejects*
raw ``NaN``/``Infinity`` tokens (which Python's ``json`` would happily
parse) with a :class:`~repro.errors.SerializationError` carrying the
``SERIALIZATION_NONFINITE`` code and naming both the offending field
and the source file — a truncated or corrupted measurement log fails
loudly at the boundary instead of poisoning downstream arithmetic.
"""

from __future__ import annotations

import json
import math

from ..core.params import IPBlock, SoCSpec, Workload
from ..core.result import GablesResult
from ..errors import SerializationError

#: Current document schema version.
SCHEMA = 1


def _encode_number(value: float):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _where(field: str, source) -> str:
    """``field`` qualified by the source file path, when known."""
    return f"{field} in {source}" if source else field


def _nonfinite(value, field: str, source) -> SerializationError:
    return SerializationError(
        f"non-finite value {value!r} for {_where(field, source)}; "
        'encode infinite intensities/bandwidths as the string "inf"',
        code="SERIALIZATION_NONFINITE",
    )


def _decode_number(value, field: str, source=None) -> float:
    """A number that may legitimately be the string-encoded infinity."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError(
            f"{_where(field, source)} must be a number, got {value!r}"
        )
    if math.isnan(value) or math.isinf(value):
        raise _nonfinite(value, field, source)
    return float(value)


def _decode_finite(value, field: str, source=None) -> float:
    """A number with no infinity escape hatch: must be finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError(
            f"{_where(field, source)} must be a number, got {value!r}"
        )
    if not math.isfinite(value):
        raise _nonfinite(value, field, source)
    return float(value)


def encode_soc(soc: SoCSpec) -> dict:
    """SoCSpec -> JSON-ready dict."""
    return {
        "kind": "soc",
        "schema": SCHEMA,
        "name": soc.name,
        "peak_perf": soc.peak_perf,
        "memory_bandwidth": soc.memory_bandwidth,
        "ips": [
            {
                "name": ip.name,
                "acceleration": ip.acceleration,
                "bandwidth": _encode_number(ip.bandwidth),
            }
            for ip in soc.ips
        ],
    }


def decode_soc(document: dict, source=None) -> SoCSpec:
    """JSON dict -> SoCSpec (validates via the dataclass)."""
    _expect_kind(document, "soc")
    try:
        ips = tuple(
            IPBlock(
                name=entry["name"],
                acceleration=_decode_finite(
                    entry["acceleration"], f"ips[{index}].acceleration",
                    source,
                ),
                bandwidth=_decode_number(
                    entry["bandwidth"], f"ips[{index}].bandwidth", source
                ),
            )
            for index, entry in enumerate(document["ips"])
        )
        return SoCSpec(
            peak_perf=_decode_finite(
                document["peak_perf"], "peak_perf", source
            ),
            memory_bandwidth=_decode_finite(
                document["memory_bandwidth"], "memory_bandwidth", source
            ),
            ips=ips,
            name=document.get("name", "soc"),
        )
    except (KeyError, TypeError) as err:
        raise SerializationError(f"malformed soc document: {err}") from err


def encode_workload(workload: Workload) -> dict:
    """Workload -> JSON-ready dict."""
    return {
        "kind": "workload",
        "schema": SCHEMA,
        "name": workload.name,
        "fractions": list(workload.fractions),
        "intensities": [_encode_number(i) for i in workload.intensities],
    }


def decode_workload(document: dict, source=None) -> Workload:
    """JSON dict -> Workload (validates via the dataclass)."""
    _expect_kind(document, "workload")
    try:
        return Workload(
            fractions=tuple(
                _decode_finite(f, f"fractions[{index}]", source)
                for index, f in enumerate(document["fractions"])
            ),
            intensities=tuple(
                _decode_number(i, f"intensities[{index}]", source)
                for index, i in enumerate(document["intensities"])
            ),
            name=document.get("name", "usecase"),
        )
    except (KeyError, TypeError) as err:
        raise SerializationError(f"malformed workload document: {err}") from err


def encode_result(result: GablesResult) -> dict:
    """GablesResult -> JSON-ready dict (export only).

    An infinite attainable or time (a peak or intensity that overflows)
    is written as ``"inf"``, like an infinite intensity.
    """
    return {
        "kind": "result",
        "schema": SCHEMA,
        "attainable": _encode_number(result.attainable),
        "bottleneck": result.bottleneck,
        "binding_components": list(result.binding_components),
        "memory_time": _encode_number(result.memory_time),
        "average_intensity": _encode_number(result.average_intensity),
        "ip_terms": [
            {
                "name": term.name,
                "fraction": term.fraction,
                "intensity": _encode_number(term.intensity),
                "time": _encode_number(term.time),
                "limiter": term.limiter,
            }
            for term in result.ip_terms
        ],
        "extra_times": {
            name: _encode_number(seconds)
            for name, seconds in result.extra_times.items()
        },
    }


_DECODERS = {"soc": decode_soc, "workload": decode_workload}


def _expect_kind(document: dict, kind: str) -> None:
    if not isinstance(document, dict):
        raise SerializationError(f"expected an object, got {type(document).__name__}")
    got = document.get("kind")
    if got != kind:
        raise SerializationError(f"expected kind {kind!r}, got {got!r}")
    schema = document.get("schema")
    if schema != SCHEMA:
        raise SerializationError(
            f"unsupported schema {schema!r} (this library reads {SCHEMA})"
        )


def dumps(obj) -> str:
    """Serialize a SoCSpec / Workload / GablesResult to a JSON string."""
    if isinstance(obj, SoCSpec):
        document = encode_soc(obj)
    elif isinstance(obj, Workload):
        document = encode_workload(obj)
    elif isinstance(obj, GablesResult):
        document = encode_result(obj)
    else:
        raise SerializationError(f"cannot serialize {type(obj).__name__}")
    # allow_nan=False: never *write* the non-finite tokens decode rejects.
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False)


def loads(text: str, source=None):
    """Deserialize a JSON string into a SoCSpec or Workload.

    ``source`` (a file path) is woven into decode errors so a bad
    field is reported as ``fractions[2] in /path/to/usecase.json``.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise SerializationError(f"invalid JSON: {err}") from err
    if not isinstance(document, dict):
        raise SerializationError("top-level JSON value must be an object")
    kind = document.get("kind")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise SerializationError(
            f"unknown or non-loadable kind {kind!r}; loadable: "
            f"{sorted(_DECODERS)}"
        )
    return decoder(document, source=source)


def save(obj, path) -> None:
    """Serialize ``obj`` to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


def load(path):
    """Deserialize a SoCSpec or Workload from a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), source=str(path))
