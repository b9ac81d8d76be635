"""Concurrent load + chaos harness for a running ``gables serve``.

:func:`run_load` drives a live endpoint with N client threads issuing
scenario evaluations from :data:`repro.core.FIGURE_6_SEQUENCE`, and —
under a :class:`~repro.resilience.FaultPlan` — deterministically mixes
in *poisoned* requests that each exercise one robustness path:

==============================  =====================================
plan field (as probability)     injected request / expected outcome
==============================  =====================================
``dropout_probability``         workload whose fractions do not sum
                                to one → ``WORKLOAD_*`` (HTTP 400)
``bandwidth_episode_...``       ``fault: "crash"`` chaos hook →
                                ``SERVE_WORKER_CRASHED`` (500)
``thermal_throttle_...``        unknown top-level key →
                                ``SERVE_BAD_REQUEST`` (400)
``noise`` (when > 0)            1 ns deadline →
                                ``SERVE_DEADLINE_EXCEEDED`` (504)
==============================  =====================================

Every injected failure must come back as a *structured* JSON error
with a catalogued code — an injected request that returns success, or
a clean request that fails, is counted against the run.  The clean
requests double as a correctness oracle: each response payload is
kept with its scenario index so the caller can compare against
offline :func:`~repro.core.gables.evaluate` bitwise.

The draw sequence is seeded, so a given ``(plan, seed, clients,
requests_per_client)`` always issues the same request mix — chaos
runs are reproducible, per the resilience charter.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..core import FIGURE_6_SEQUENCE
from ..errors import ServeError
from ..io.json_codec import encode_soc, encode_workload
from ..obs.bench import append_history, make_record, new_run_id
from ..resilience import FAULT_PLANS, FaultPlan
from .client import ServiceClient

#: Injection kinds, in the order draws are consumed.
INJECTION_KINDS = (
    "bad-workload", "worker-crash", "bad-schema", "tiny-deadline"
)

#: Codes each injection kind is allowed to come back with.  A chaos
#: ``fault`` hook on a server started *without* ``--chaos`` is refused
#: at validation — still a structured error, still a pass.
EXPECTED_CODES = {
    "bad-workload": ("WORKLOAD_INVALID", "WORKLOAD_MALFORMED"),
    "worker-crash": ("SERVE_WORKER_CRASHED", "SERVE_BAD_REQUEST"),
    "bad-schema": ("SERVE_BAD_REQUEST",),
    "tiny-deadline": ("SERVE_DEADLINE_EXCEEDED",),
}


@dataclass(frozen=True)
class LoadReport:
    """Everything one :func:`run_load` run observed.

    ``clean_failures``/``fault_misses`` are the pass/fail core: a
    healthy server keeps both empty no matter the fault plan.
    ``clean_samples`` holds ``(scenario_index, payload)`` pairs for
    bitwise comparison against the offline evaluator.
    """

    url: str
    plan: str
    clients: int
    requests: int
    clean_requests: int
    injected_requests: int
    clean_failures: tuple
    fault_outcomes: tuple  # (worker, sequence, kind, code) per injection
    fault_misses: tuple    # injected requests with a wrong outcome
    clean_latencies_s: tuple
    clean_samples: tuple
    wall_s: float

    @property
    def ok(self) -> bool:
        """True when every request behaved as its kind demands."""
        return not self.clean_failures and not self.fault_misses

    @property
    def p50_s(self) -> float:
        return _percentile(self.clean_latencies_s, 50.0)

    @property
    def p99_s(self) -> float:
        return _percentile(self.clean_latencies_s, 99.0)

    @property
    def rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def _resolve_plan(fault_plan) -> FaultPlan:
    if fault_plan is None:
        return FAULT_PLANS["none"]
    if isinstance(fault_plan, str):
        if fault_plan not in FAULT_PLANS:
            raise ServeError(
                f"unknown fault plan {fault_plan!r}; choose from "
                f"{sorted(FAULT_PLANS)}",
                code="SERVE_BAD_REQUEST",
            )
        return FAULT_PLANS[fault_plan]
    return fault_plan


def _draw_injection(plan: FaultPlan, rng: random.Random):
    """The injection kind for one request, or ``None`` for clean.

    One draw per kind, consumed in :data:`INJECTION_KINDS` order, so
    the sequence depends only on the seed and the plan's
    probabilities.
    """
    draws = [rng.random() for _ in INJECTION_KINDS]
    chances = (
        plan.dropout_probability,
        plan.bandwidth_episode_probability,
        plan.thermal_throttle_probability,
        1.0 if plan.noise > 0 else 0.0,
    )
    for kind, draw, chance in zip(INJECTION_KINDS, draws, chances):
        if kind == "tiny-deadline":
            # noise is a magnitude, not a probability; reuse the
            # dropout rate for how *often* to test deadlines.
            chance = plan.dropout_probability if chance else 0.0
        if draw < chance:
            return kind
    return None


def _request_documents():
    """Encoded (scenario_index, soc, workload) triples, cached once."""
    documents = []
    for index, scenario in enumerate(FIGURE_6_SEQUENCE):
        soc = scenario.soc()
        documents.append(
            (index, encode_soc(soc), encode_workload(scenario.workload()))
        )
    return documents


def _poison(kind: str, soc_doc: dict, workload_doc: dict) -> dict:
    document = {"soc": soc_doc, "workload": dict(workload_doc)}
    if kind == "bad-workload":
        fractions = list(workload_doc["fractions"])
        fractions[0] = fractions[0] + 0.5
        document["workload"] = {**workload_doc, "fractions": fractions}
    elif kind == "worker-crash":
        document["fault"] = "crash"
    elif kind == "bad-schema":
        document["frobnicate"] = True
    elif kind == "tiny-deadline":
        document["deadline_s"] = 1e-9
    return document


def run_load(
    url: str,
    *,
    clients: int = 8,
    requests_per_client: int = 25,
    fault_plan=None,
    seed: int = 0,
    timeout_s: float = 30.0,
) -> LoadReport:
    """Hammer ``url`` from ``clients`` threads; return the evidence.

    Each thread owns one :class:`ServiceClient` connection and a
    per-thread RNG seeded from ``seed`` — thread interleaving affects
    only timing, never which requests are issued.
    """
    if clients < 1 or requests_per_client < 1:
        raise ServeError(
            "clients and requests_per_client must be >= 1",
            code="SERVE_BAD_REQUEST",
        )
    plan = _resolve_plan(fault_plan)
    documents = _request_documents()
    lock = threading.Lock()
    clean_failures: list = []
    fault_outcomes: list = []
    fault_misses: list = []
    clean_latencies: list = []
    clean_samples: list = []
    counts = {"clean": 0, "injected": 0}

    harness_errors: list = []

    def drive(worker: int) -> None:
        try:
            _drive(worker)
        except BaseException as err:  # noqa: BLE001 - reported below
            with lock:
                harness_errors.append((worker, err))

    def _drive(worker: int) -> None:
        rng = random.Random(seed * 1_000_003 + worker)
        with ServiceClient(url, timeout_s=timeout_s) as client:
            for sequence in range(requests_per_client):
                index, soc_doc, workload_doc = documents[
                    (worker + sequence) % len(documents)
                ]
                kind = _draw_injection(plan, rng)
                if kind is None:
                    document = {"soc": soc_doc, "workload": workload_doc}
                else:
                    document = _poison(kind, soc_doc, workload_doc)
                started = time.perf_counter()
                status, payload = client.raw("POST", "/eval", document)
                elapsed = time.perf_counter() - started
                with lock:
                    if kind is None:
                        counts["clean"] += 1
                        if status == 200:
                            clean_latencies.append(elapsed)
                            clean_samples.append((index, payload))
                        else:
                            clean_failures.append(
                                (worker, sequence, status, payload)
                            )
                    else:
                        counts["injected"] += 1
                        code = (
                            payload.get("error", {}).get("code", "")
                            if isinstance(payload, dict) else ""
                        )
                        fault_outcomes.append(
                            (worker, sequence, kind, code)
                        )
                        if status == 200 or code not in EXPECTED_CODES[kind]:
                            fault_misses.append(
                                (worker, sequence, kind, status, code)
                            )

    threads = [
        threading.Thread(target=drive, args=(w,), name=f"loadgen-{w}")
        for w in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if harness_errors:
        worker, err = harness_errors[0]
        raise ServeError(
            f"load generator client {worker} crashed "
            f"({len(harness_errors)} of {clients} clients failed): {err}",
            code="SERVE_WORKER_CRASHED",
        ) from err
    return LoadReport(
        url=url,
        plan=plan.name,
        clients=clients,
        requests=counts["clean"] + counts["injected"],
        clean_requests=counts["clean"],
        injected_requests=counts["injected"],
        clean_failures=tuple(clean_failures),
        fault_outcomes=tuple(fault_outcomes),
        fault_misses=tuple(fault_misses),
        clean_latencies_s=tuple(clean_latencies),
        clean_samples=tuple(clean_samples),
        wall_s=wall,
    )


def slo_records(report: LoadReport, *, run_id: str | None = None) -> tuple:
    """The p50/p99/rps SLO observations as bench-history records.

    Percentiles come from the *exact* per-request duration list the
    report holds (no sampled-window bias), and ``samples`` records how
    many durations backed them — the weight the SLO engine's
    :func:`~repro.obs.slo.history_events` gives each run.
    """
    run_id = run_id if run_id is not None else new_run_id()
    meta = {
        "plan": report.plan,
        "clients": report.clients,
        "requests": report.requests,
        "clean_requests": report.clean_requests,
        "injected_requests": report.injected_requests,
        "samples": len(report.clean_latencies_s),
    }
    records = [
        make_record(
            "serve.loadgen.p50", report.p50_s, "s",
            run_id=run_id, meta=meta,
        ),
        make_record(
            "serve.loadgen.p99", report.p99_s, "s",
            run_id=run_id, meta=meta,
        ),
        make_record(
            "serve.loadgen.rps", report.rps, "count",
            run_id=run_id, meta=meta,
        ),
    ]
    return tuple(records)


def record_slo(report: LoadReport, history_path, *,
               run_id: str | None = None) -> int:
    """Append the run's SLO records to a bench-history JSONL file."""
    return append_history(history_path, slo_records(report, run_id=run_id))


def format_report(report: LoadReport) -> str:
    """The load report as aligned, human-readable text."""
    lines = [
        f"loadgen against {report.url} (plan {report.plan!r}, "
        f"{report.clients} client(s))",
        f"  requests:  {report.requests} total, "
        f"{report.clean_requests} clean, "
        f"{report.injected_requests} injected",
        f"  outcome:   {'PASS' if report.ok else 'FAIL'} "
        f"({len(report.clean_failures)} clean failure(s), "
        f"{len(report.fault_misses)} fault miss(es))",
    ]
    if report.clean_latencies_s:
        lines.append(
            f"  latency:   p50 {report.p50_s * 1e3:.2f} ms, "
            f"p99 {report.p99_s * 1e3:.2f} ms, "
            f"{report.rps:.0f} req/s"
        )
    if report.fault_outcomes:
        by_kind: dict = {}
        for _worker, _sequence, kind, code in report.fault_outcomes:
            by_kind.setdefault(kind, []).append(code)
        for kind in sorted(by_kind):
            codes = by_kind[kind]
            lines.append(
                f"  fault {kind}: {len(codes)} injected -> "
                + ", ".join(sorted(set(codes)))
            )
    for worker, sequence, status, payload in report.clean_failures[:5]:
        lines.append(
            f"  CLEAN FAILURE client {worker} seq {sequence}: "
            f"HTTP {status} {payload}"
        )
    for worker, sequence, kind, status, code in report.fault_misses[:5]:
        lines.append(
            f"  FAULT MISS client {worker} seq {sequence} ({kind}): "
            f"HTTP {status} code {code!r}"
        )
    return "\n".join(lines)
