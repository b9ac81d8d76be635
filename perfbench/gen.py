"""Seeded input generator: every document the program receives.

Everything here is a pure function of the workload seed, built with
numpy's PCG64 streams and without importing the program, so the same
seed always yields byte-identical request bodies and sweep grids.

- SoCs: one per IP count 2..8 (each run covers every size, so seeds
  move values, not the mix of sizes).  IP[0] defines ``Ppeak``; the
  other accelerations, link bandwidths and ``Bpeak`` are log-uniform.
- Workloads: Dirichlet(1, ..., 1) fractions and log-uniform
  intensities in [0.1, 1000] ops/byte.
- ``serve_mixed`` draws its ``/eval`` documents Zipf-style from a hot
  set that fits the service's 1024-entry result cache.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

#: IP counts of the generated SoCs, one SoC each.
IP_COUNTS = tuple(range(2, 9))

#: Distinct ``/eval`` documents ``serve_mixed`` draws from.
HOT_SET_SIZE = 256

#: Zipf exponent of the hot-set draw (rank k has weight ``k ** -s``).
ZIPF_S = 1.1

#: Points per served ``/sweep`` ("a few thousand").
SERVED_SWEEP_POINTS = 2000

#: Servable variant kinds (``phases`` carries its own workloads and
#: has no single-workload serving form).
SERVED_VARIANTS = (
    "base", "serialized", "coordination", "interconnect", "multipath",
    "memory-side",
)

#: Poisoned request kinds and the catalogued code each must return.
POISON_CODES = {
    "bad-workload": "WORKLOAD_INVALID",
    "unknown-key": "SERVE_BAD_REQUEST",
    "tiny-deadline": "SERVE_DEADLINE_EXCEEDED",
}

#: ``serve_mixed`` request shares: (kind, probability).
MIXED_SHARES = (
    ("eval", 0.78),
    ("sweep", 0.08),
    ("variants", 0.10),
    ("poison", 0.04),
)


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def _log_uniform(gen: np.random.Generator, low: float, high: float,
                 size=None):
    return 10.0 ** gen.uniform(np.log10(low), np.log10(high), size)


def soc_documents(seed: int) -> list:
    """One SoC document per entry of :data:`IP_COUNTS`."""
    gen = rng(seed, "socs")
    socs = []
    for n in IP_COUNTS:
        ips = [{
            "name": "ip0",
            "acceleration": 1.0,
            "bandwidth": float(_log_uniform(gen, 3e9, 3e10)),
        }]
        for index in range(1, n):
            ips.append({
                "name": f"ip{index}",
                "acceleration": float(_log_uniform(gen, 0.3, 30.0)),
                "bandwidth": float(_log_uniform(gen, 1e9, 3e10)),
            })
        socs.append({
            "kind": "soc",
            "schema": 1,
            "name": f"soc{n}",
            "peak_perf": float(_log_uniform(gen, 3e9, 1e11)),
            "memory_bandwidth": float(_log_uniform(gen, 3e9, 5e10)),
            "ips": ips,
        })
    return socs


def workload_document(gen: np.random.Generator, n: int,
                      name: str = "usecase") -> dict:
    """Dirichlet fractions and log-uniform intensities over ``n`` IPs."""
    return {
        "kind": "workload",
        "schema": 1,
        "name": name,
        "fractions": [float(f) for f in gen.dirichlet(np.ones(n))],
        "intensities": [
            float(i) for i in _log_uniform(gen, 0.1, 1000.0, n)
        ],
    }


@dataclass(frozen=True)
class Request:
    """One HTTP request of a serve workload.

    ``kind`` is ``eval``, ``sweep``, ``variants`` or ``poison``;
    ``expect`` is the catalogued error code a poisoned request must
    return (``None`` for clean requests).  ``body`` is the encoded
    JSON, built once so the load generator only sends bytes.
    """

    kind: str
    path: str
    document: dict
    body: bytes
    expect: str | None = None


def make_request(kind: str, path: str, document: dict,
                 expect: str | None = None) -> Request:
    body = json.dumps(document).encode("utf-8")
    return Request(kind, path, document, body, expect)


def _eval_document(gen: np.random.Generator, socs: list) -> dict:
    soc = socs[int(gen.integers(len(socs)))]
    return {"soc": soc, "workload": workload_document(gen, len(soc["ips"]))}


def unique_eval_stream(seed: int, socs: list, stream: str):
    """Endless distinct ``/eval`` requests (the cache never hits)."""
    gen = rng(seed, stream)
    while True:
        yield make_request("eval", "/eval", _eval_document(gen, socs))


def hot_set(seed: int, socs: list) -> list:
    """The :data:`HOT_SET_SIZE` ``/eval`` requests of ``serve_mixed``."""
    gen = rng(seed, "hot-set")
    return [
        make_request("eval", "/eval", _eval_document(gen, socs))
        for _ in range(HOT_SET_SIZE)
    ]


def zipf_weights(size: int, s: float = ZIPF_S) -> np.ndarray:
    """Normalized Zipf weights over ranks ``1..size``."""
    weights = np.arange(1, size + 1, dtype=float) ** -s
    return weights / weights.sum()


def sweep_document(gen: np.random.Generator, socs: list,
                   points: int = SERVED_SWEEP_POINTS) -> dict:
    """A ``/sweep`` body; ``on_error`` is left to the service default."""
    doc = _eval_document(gen, socs)
    n = len(doc["soc"]["ips"])
    param = ("f", "intensity", "bpeak")[int(gen.integers(3))]
    if param == "f":
        values = np.sort(gen.uniform(0.0, 1.0, points))
    elif param == "intensity":
        values = np.sort(_log_uniform(gen, 0.1, 1000.0, points))
    else:
        values = np.sort(_log_uniform(gen, 1e9, 1e11, points))
    doc["param"] = param
    doc["values"] = [float(v) for v in values]
    if param != "bpeak":
        doc["ip_index"] = int(gen.integers(n))
    return doc


def variants_document(gen: np.random.Generator, socs: list) -> dict:
    doc = _eval_document(gen, socs)
    doc["variant"] = SERVED_VARIANTS[int(gen.integers(len(SERVED_VARIANTS)))]
    return doc


def poison_request(gen: np.random.Generator, socs: list) -> Request:
    """One poisoned ``/eval`` with the code it must come back with."""
    kinds = tuple(POISON_CODES)
    kind = kinds[int(gen.integers(len(kinds)))]
    doc = _eval_document(gen, socs)
    if kind == "bad-workload":
        fractions = list(doc["workload"]["fractions"])
        fractions[0] += 0.5
        doc["workload"] = {**doc["workload"], "fractions": fractions}
    elif kind == "unknown-key":
        doc["frobnicate"] = True
    else:
        doc["deadline_s"] = 1e-9
    return make_request("poison", "/eval", doc, POISON_CODES[kind])


def mixed_stream(seed: int, socs: list, stream: str):
    """Endless ``serve_mixed`` requests in :data:`MIXED_SHARES`."""
    gen = rng(seed, stream)
    hot = hot_set(seed, socs)
    weights = zipf_weights(len(hot))
    kinds = [kind for kind, _ in MIXED_SHARES]
    shares = np.array([share for _, share in MIXED_SHARES])
    while True:
        kind = kinds[int(gen.choice(len(kinds), p=shares))]
        if kind == "eval":
            yield hot[int(gen.choice(len(hot), p=weights))]
        elif kind == "sweep":
            yield make_request("sweep", "/sweep", sweep_document(gen, socs))
        elif kind == "variants":
            yield make_request(
                "variants", "/variants", variants_document(gen, socs)
            )
        else:
            yield poison_request(gen, socs)


def arrival_offsets(seed: int, rate: float, duration: float,
                    stream: str = "arrivals") -> list:
    """Poisson arrival times (seconds from start) within ``duration``."""
    gen = rng(seed, stream)
    offsets = []
    now = 0.0
    while True:
        now += float(gen.exponential(1.0 / rate))
        if now >= duration:
            return offsets
        offsets.append(now)


# ---------------------------------------------------------------------
# offline_sweep
# ---------------------------------------------------------------------

#: Points per ``sweep_*`` driver call and per variant batch.
DRIVER_POINTS = 20_000
VARIANT_BATCH_POINTS = 50_000
GRID_SIDE = 100  # sweep_grid is GRID_SIDE x GRID_SIDE = 10k cells
#: Multipath solves one LP per point, ~2 ms each; 10k points would
#: take ~20 s, so its batch is kept small.
MULTIPATH_POINTS = 32

def offline_entry(seed: int, soc: dict) -> dict:
    """The ``offline_sweep`` inputs for one SoC document.

    A workload document, the three 1-D driver grids, the 2-D grid
    axes, the (K, N) variant-batch matrices and a phased usecase.
    """
    n = len(soc["ips"])
    gen = rng(seed, f"offline-{n}")
    phases = []
    for index, work in enumerate(gen.dirichlet(np.ones(3))):
        doc = workload_document(gen, n)
        phases.append({
            "name": f"phase{index}",
            "work": float(work),
            "fractions": doc["fractions"],
            "intensities": doc["intensities"],
        })
    return {
        "soc": soc,
        "workload": workload_document(gen, n),
        "ip_index": int(gen.integers(n)),
        "fractions": np.sort(gen.uniform(0.0, 1.0, DRIVER_POINTS)),
        "intensities": np.sort(_log_uniform(gen, 0.1, 1000.0, DRIVER_POINTS)),
        "bandwidths": np.sort(_log_uniform(gen, 1e9, 1e11, DRIVER_POINTS)),
        "grid_x": np.linspace(0.0, 1.0, GRID_SIDE),
        "grid_y": np.sort(_log_uniform(gen, 0.1, 1000.0, GRID_SIDE)),
        "batch_fractions": gen.dirichlet(np.ones(n), VARIANT_BATCH_POINTS),
        "batch_intensities": _log_uniform(
            gen, 0.1, 1000.0, (VARIANT_BATCH_POINTS, n)
        ),
        "batch_bandwidths": _log_uniform(gen, 1e9, 1e11, VARIANT_BATCH_POINTS),
        "phases": phases,
    }


def offline_plan(seed: int) -> list:
    """:func:`offline_entry` for every generated SoC."""
    return [offline_entry(seed, soc) for soc in soc_documents(seed)]
