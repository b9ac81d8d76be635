"""Correctness oracle: every output against the scalar model.

The scalar Eqs. 1-14 (:func:`repro.core.gables.evaluate` and the
lowered scalar path :func:`repro.core.variants.evaluate_variant`) are
the ground truth.  Each check returns ``None`` when the output is
right and a one-line description of the problem otherwise; the caller
counts every problem as a failed operation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: Relative tolerance between the compiled and interpreted engines.
ENGINE_RTOL = 1e-12


def canonical(document) -> str:
    """Byte-exact form of a JSON document: floats keep every digit."""
    return json.dumps(document, sort_keys=True)


class ServeOracle:
    """Expected payloads for served requests, memoized per body."""

    def __init__(self) -> None:
        from repro.core.gables import evaluate
        from repro.core.variants import evaluate_variant, variant_from_config
        from repro.explore import sweep
        from repro.io.json_codec import decode_soc, decode_workload, \
            encode_result

        self._evaluate = evaluate
        self._evaluate_variant = evaluate_variant
        self._variant_from_config = variant_from_config
        self._sweep = sweep
        self._decode_soc = decode_soc
        self._decode_workload = decode_workload
        self._encode_result = encode_result
        self._memo: dict = {}
        #: Responses equal to the offline result only within 1e-12.
        self.inexact = 0

    def expected(self, request) -> str:
        """Canonical JSON of the offline answer to ``request``."""
        if request.body not in self._memo:
            self._memo[request.body] = canonical(self._compute(request))
        return self._memo[request.body]

    def _compute(self, request):
        document = request.document
        soc = self._decode_soc(document["soc"])
        workload = self._decode_workload(document["workload"])
        if request.kind == "eval":
            return self._encode_result(self._evaluate(soc, workload))
        if request.kind == "variants":
            variant = self._variant_from_config(
                document["variant"], soc, document.get("config")
            )
            return self._encode_result(
                self._evaluate_variant(soc, workload, variant)
            )
        series = self._offline_sweep(soc, workload, document)
        return {
            "values": list(series.values()),
            "attainables": list(series.attainables()),
            "bottlenecks": [p.bottleneck for p in series.points],
            "errors": [f.code for f in series.errors],
        }

    def _offline_sweep(self, soc, workload, document):
        """The offline driver with the service's default ``on_error``."""
        values = document["values"]
        ip_index = document.get("ip_index", 0)
        on_error = document.get("on_error", "record")
        if document["param"] == "f":
            return self._sweep.sweep_fraction(
                soc, workload, ip_index, values, on_error=on_error
            )
        if document["param"] == "intensity":
            return self._sweep.sweep_intensity(
                soc, workload, ip_index, values, on_error=on_error
            )
        return self._sweep.sweep_memory_bandwidth(
            soc, workload, values, on_error=on_error
        )

    def check(self, request, status, body: bytes) -> str | None:
        """``None`` when the response is right, else the problem."""
        if status is None:
            return f"{request.path}: no response ({body[:200]!r})"
        try:
            payload = json.loads(body)
        except ValueError:
            return f"{request.path}: HTTP {status} body is not JSON"
        if request.expect is not None:
            if status == 200:
                return f"poisoned {request.path} succeeded"
            code = payload.get("error", {}).get("code")
            if code != request.expect:
                return (f"poisoned {request.path} returned {code}, "
                        f"expected {request.expect}")
            return None
        if status != 200:
            code = payload.get("error", {}).get("code")
            return f"{request.path}: HTTP {status} {code}"
        if request.kind == "sweep":
            got = {
                "values": payload.get("values"),
                "attainables": payload.get("attainables"),
                "bottlenecks": payload.get("bottlenecks"),
                "errors": [e.get("code") for e in payload.get("errors", [])],
            }
        else:
            got = payload.get("result")
        expected = self.expected(request)
        if canonical(got) == expected:
            return None
        # The coalesced batch sums in numpy order, the scalar path with
        # fsum: on 3+ IPs the last bits may differ.  The documented
        # contract is bitwise or within 1e-12; count the inexact ones.
        if close(got, json.loads(expected)):
            self.inexact += 1
            return None
        return f"{request.path}: response differs from offline result"


def close(got, want) -> bool:
    """Same structure and strings; numbers within :data:`ENGINE_RTOL`."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= ENGINE_RTOL * abs(want)
    return got == want


def result_arrays(result) -> tuple:
    """``(attainables, bottleneck labels)`` of any sweep/batch result."""
    if hasattr(result, "cells"):
        return (
            np.array([c.attainable for c in result.cells], dtype=float),
            [c.bottleneck for c in result.cells],
        )
    if hasattr(result, "points"):
        return (
            np.array([p.attainable for p in result.points], dtype=float),
            [p.bottleneck for p in result.points],
        )
    names = result.component_names
    return (
        np.asarray(result.attainables, dtype=float),
        [names[c] for c in np.asarray(result.bottleneck_codes).tolist()],
    )


def digest(result) -> str:
    """SHA-256 over a result's attainables (bitwise) and bottlenecks."""
    attainables, labels = result_arrays(result)
    sha = hashlib.sha256(attainables.tobytes())
    sha.update("\n".join(labels).encode("utf-8"))
    return sha.hexdigest()


def compare_engines(compiled, interpreted) -> str | None:
    """Compiled vs interpreted: 1e-12 relative, identical bottlenecks."""
    got, got_labels = result_arrays(compiled)
    want, want_labels = result_arrays(interpreted)
    if got.shape != want.shape:
        return f"engine results differ in size: {got.shape} vs {want.shape}"
    if not np.allclose(got, want, rtol=ENGINE_RTOL, atol=0.0):
        worst = float(np.max(np.abs(got - want) / np.abs(want)))
        return f"compiled differs from interpreted by {worst:.3g} (rel)"
    if got_labels != want_labels:
        return "compiled and interpreted bottlenecks differ"
    return None


def check_report(text: str) -> str | None:
    """``report_all`` must print every Figure 6 step at the paper's
    appendix value (Gops/s, at the report's 4 significant digits)."""
    from repro.core import FIGURE_6_EXPECTED_GOPS

    rows = {}
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) >= 3 and tokens[0] in FIGURE_6_EXPECTED_GOPS:
            rows[tokens[0]] = tokens[2]
    for name, expected in FIGURE_6_EXPECTED_GOPS.items():
        if rows.get(name) != f"{expected:.4g}":
            return (f"report_all: {name} model column {rows.get(name)!r}, "
                    f"paper {expected:.4g}")
    return None


def compare_fleet_points(points, reference) -> str | None:
    """Fleet points must equal a ``workers=1`` run bitwise."""
    if len(points) != len(reference):
        return (f"fleet returned {len(points)} points, expected "
                f"{len(reference)}")
    for got, want in zip(points, reference):
        if canonical(got.to_dict()) != canonical(want.to_dict()):
            return f"fleet point {want.index} differs from the serial run"
    return None
