"""Prometheus-style text exposition for the metrics registry.

:func:`render_exposition` turns a registry snapshot (the mapping
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` returns) into the
text format every monitoring scraper already speaks::

    # TYPE serve_requests counter
    serve_requests 42.0
    # TYPE serve_request_seconds histogram
    serve_request_seconds_bucket{endpoint="/eval",le="0.0001"} 0
    ...
    serve_request_seconds_sum{endpoint="/eval"} 1.25
    serve_request_seconds_count{endpoint="/eval"} 42

Mapping rules:

- dotted metric names are sanitized (``serve.requests`` →
  ``serve_requests``; any character outside ``[a-zA-Z0-9_:]`` becomes
  an underscore);
- counters and gauges expose their value directly;
- :class:`~repro.obs.metrics.BucketHistogram` becomes a native
  Prometheus ``histogram``: cumulative ``_bucket{le="..."}`` series
  (the exposition is cumulative even though the registry stores
  per-bucket counts), plus ``_sum`` and ``_count``.

:func:`parse_exposition` is the inverse used by the round-trip tests
and the CI scrape check: it rebuilds a snapshot-shaped mapping (keys
re-encoded with :func:`~repro.obs.metrics.encode_metric_key` over the
*sanitized* names) and raises :class:`~repro.errors.ObservabilityError`
with code ``OBS_EXPOSITION_MALFORMED`` on text it cannot make sense of.
"""

from __future__ import annotations

import math
import re

from ..errors import ObservabilityError
from .metrics import encode_metric_key, get_registry

__all__ = [
    "render_exposition",
    "parse_exposition",
    "exposition_content_type",
]

#: Characters legal in an exposed metric name; everything else is
#: rewritten to ``_`` by :func:`_sanitize_name`.
_NAME_OK_RE = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)


def exposition_content_type() -> str:
    """The Content-Type for the text exposition format."""
    return "text/plain; version=0.0.4; charset=utf-8"


def _sanitize_name(name: str) -> str:
    cleaned = _NAME_OK_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize_name(str(key))}="{_escape_label(labels[key])}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _split_key(key: str) -> str:
    """The base metric name from a snapshot key (``name{...}`` form)."""
    return key.split("{", 1)[0]


def _render_family(lines, name, kind, series) -> None:
    lines.append(f"# TYPE {name} {kind}")
    lines.extend(series)


def render_exposition(snapshot=None) -> str:
    """Render ``snapshot`` (default: the live registry) as exposition text."""
    if snapshot is None:
        snapshot = get_registry().snapshot()
    # Group series by exposed family name so each # TYPE header covers
    # every label set of the metric, as the format requires.
    families: dict = {}
    order: list = []
    for key in snapshot:
        entry = snapshot[key]
        base = _sanitize_name(_split_key(key))
        if base not in families:
            families[base] = []
            order.append(base)
        families[base].append((key, entry))
    lines: list = []
    for base in order:
        entries = families[base]
        kind = entries[0][1].get("type")
        for _, entry in entries:
            if entry.get("type") != kind:
                raise ObservabilityError(
                    f"metric family {base!r} mixes types "
                    f"{kind!r} and {entry.get('type')!r}",
                    code="OBS_EXPOSITION_MALFORMED",
                )
        if kind in ("counter", "gauge"):
            series = [
                f"{base}{_format_labels(entry.get('labels'))} "
                f"{_format_value(entry.get('value', 0.0))}"
                for _, entry in entries
            ]
            _render_family(lines, base, kind, series)
        elif kind == "bucket_histogram":
            series = []
            for _, entry in entries:
                labels = dict(entry.get("labels") or {})
                bounds = entry.get("bounds", ())
                buckets = entry.get("buckets", ())
                if len(buckets) != len(bounds) + 1:
                    raise ObservabilityError(
                        f"bucket histogram {base!r} has {len(buckets)} "
                        f"buckets for {len(bounds)} bounds",
                        code="OBS_EXPOSITION_MALFORMED",
                    )
                cumulative = 0
                for bound, bucket_count in zip(bounds, buckets):
                    cumulative += bucket_count
                    le_labels = dict(labels)
                    le_labels["le"] = _format_value(bound)
                    series.append(
                        f"{base}_bucket{_format_labels(le_labels)} "
                        f"{_format_value(cumulative)}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                series.append(
                    f"{base}_bucket{_format_labels(inf_labels)} "
                    f"{_format_value(entry.get('count', 0))}"
                )
                tail = _format_labels(labels)
                series.append(
                    f"{base}_sum{tail} {_format_value(entry.get('sum', 0.0))}"
                )
                series.append(
                    f"{base}_count{tail} "
                    f"{_format_value(entry.get('count', 0))}"
                )
            _render_family(lines, base, "histogram", series)
        else:
            raise ObservabilityError(
                f"cannot expose metric {base!r} of unknown type {kind!r}",
                code="OBS_EXPOSITION_MALFORMED",
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------
# Parsing (the round-trip half)
# ---------------------------------------------------------------------


def _parse_labels(raw: str, line: str) -> dict:
    labels: dict = {}
    index = 0
    length = len(raw)
    while index < length:
        equals = raw.find("=", index)
        if equals < 0 or equals + 1 >= length or raw[equals + 1] != '"':
            raise ObservabilityError(
                f"malformed label set in exposition line {line!r}",
                code="OBS_EXPOSITION_MALFORMED",
            )
        name = raw[index:equals]
        value_chars: list = []
        cursor = equals + 2
        while cursor < length:
            char = raw[cursor]
            if char == "\\":
                if cursor + 1 >= length:
                    break
                nxt = raw[cursor + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt)
                )
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        if cursor >= length or raw[cursor] != '"':
            raise ObservabilityError(
                f"unterminated label value in exposition line {line!r}",
                code="OBS_EXPOSITION_MALFORMED",
            )
        labels[name] = "".join(value_chars)
        index = cursor + 1
        if index < length:
            if raw[index] != ",":
                raise ObservabilityError(
                    f"malformed label separator in exposition line {line!r}",
                    code="OBS_EXPOSITION_MALFORMED",
                )
            index += 1
    return labels


def _parse_value(raw: str, line: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ObservabilityError(
            f"malformed sample value in exposition line {line!r}",
            code="OBS_EXPOSITION_MALFORMED",
        ) from None


def parse_exposition(text: str) -> dict:
    """Parse exposition text back into a snapshot-shaped mapping.

    The result maps ``name{labels}`` keys (sanitized names) to entries
    with the same fields :func:`render_exposition` consumed:
    counters/gauges carry ``value``; histograms carry ``count``,
    ``sum``, ``bounds`` and per-bucket ``buckets``.  A ``summary``
    family (the registry renders none) or any unknown type is
    malformed.
    """
    types: dict = {}
    samples: list = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram",
                                    "untyped"):
                    raise ObservabilityError(
                        f"unknown metric type in exposition line {line!r}",
                        code="OBS_EXPOSITION_MALFORMED",
                    )
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(
                f"malformed exposition line {line!r}",
                code="OBS_EXPOSITION_MALFORMED",
            )
        labels = _parse_labels(match.group("labels") or "", line)
        value = _parse_value(match.group("value"), line)
        samples.append((match.group("name"), labels, value))

    def family_of(name: str) -> tuple:
        """(family name, sample role) honoring _bucket/_sum/_count."""
        for suffix, role in (("_bucket", "bucket"), ("_sum", "sum"),
                             ("_count", "count")):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                return base, role
        return name, "value"

    result: dict = {}
    histograms: dict = {}
    for name, labels, value in samples:
        base, role = family_of(name)
        kind = types.get(base, "untyped")
        if kind in ("counter", "gauge", "untyped"):
            key = encode_metric_key(base, labels)
            entry = {"type": "gauge" if kind == "untyped" else kind,
                     "value": value}
            if labels:
                entry["labels"] = dict(labels)
            result[key] = entry
        else:
            plain = {k: v for k, v in labels.items() if k != "le"}
            key = encode_metric_key(base, plain)
            slot = histograms.setdefault(
                key, {"labels": plain, "buckets": [], "sum": 0.0,
                      "count": 0}
            )
            if role == "bucket":
                if "le" not in labels:
                    raise ObservabilityError(
                        f"bucket sample without le label: {name!r}",
                        code="OBS_EXPOSITION_MALFORMED",
                    )
                slot["buckets"].append(
                    (_parse_value(labels["le"], labels["le"]), value)
                )
            elif role == "sum":
                slot["sum"] = value
            elif role == "count":
                slot["count"] = int(value)
            else:
                raise ObservabilityError(
                    f"unexpected bare sample {name!r} in {kind} family",
                    code="OBS_EXPOSITION_MALFORMED",
                )
    for key, slot in histograms.items():
        ordered = sorted(slot["buckets"], key=lambda pair: pair[0])
        if not ordered or not math.isinf(ordered[-1][0]):
            raise ObservabilityError(
                f"histogram {key!r} exposition lacks a +Inf bucket",
                code="OBS_EXPOSITION_MALFORMED",
            )
        bounds = [bound for bound, _ in ordered[:-1]]
        cumulative = [int(count) for _, count in ordered]
        buckets = [cumulative[0]] + [
            b - a for a, b in zip(cumulative, cumulative[1:])
        ]
        if any(count < 0 for count in buckets):
            raise ObservabilityError(
                f"histogram {key!r} bucket counts are not cumulative",
                code="OBS_EXPOSITION_MALFORMED",
            )
        entry = {
            "type": "bucket_histogram",
            "count": slot["count"],
            "sum": slot["sum"],
            "bounds": bounds,
            "buckets": buckets,
        }
        if slot["labels"]:
            entry["labels"] = dict(slot["labels"])
        result[key] = entry
    return {key: result[key] for key in sorted(result)}
