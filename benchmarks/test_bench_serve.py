"""Serving benchmarks: loadgen SLO percentiles into the history.

The acceptance criterion for the evaluation service is operational,
not figure-shaped: under concurrent load with the ``chaos-default``
fault plan, clean requests must all succeed (bitwise identical to the
offline evaluator — pinned in ``tests/test_serve.py``) and the p50/p99
latency SLO records must land in ``BENCH_HISTORY.jsonl`` so the
``bench-history`` job can watch the serving latency trajectory across
PRs the same way it watches figure-regeneration timings.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.bench import read_history
from repro.serve import (
    GablesServer,
    ServiceClient,
    ServiceConfig,
    run_load,
)
from repro.serve.loadgen import record_slo

BENCH_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_HISTORY.jsonl"

#: Steady-state p99 ceiling for a loopback scalar eval.  Generous: CI
#: containers share cores, and the budget only needs to catch
#: order-of-magnitude serving regressions (a lost cache, a stalled
#: handler).
P99_BUDGET_S = 2.0


def test_chaos_load_slo_records_append_to_history():
    server = GablesServer(
        ServiceConfig(allow_fault_injection=True), port=0
    ).start()
    try:
        # Warm both engine tiers out of the percentile window.
        from repro.core import FIGURE_6_SEQUENCE

        with ServiceClient(server.url) as client:
            for scenario in FIGURE_6_SEQUENCE:
                client.evaluate(scenario.soc(), scenario.workload())

        report = run_load(
            server.url, clients=8, requests_per_client=25,
            fault_plan="chaos-default", seed=0,
        )
    finally:
        server.shutdown_gracefully()

    assert report.ok, (report.clean_failures[:3], report.fault_misses[:3])
    assert report.clean_requests > 0
    assert report.injected_requests > 0
    assert report.p99_s < P99_BUDGET_S

    before = len(read_history(BENCH_HISTORY)) if BENCH_HISTORY.exists() else 0
    written = record_slo(report, BENCH_HISTORY)
    history = read_history(BENCH_HISTORY)
    assert written == 3
    assert len(history) == before + 3
    tail = {record.name: record for record in history[-3:]}
    assert set(tail) == {
        "serve.loadgen.p50", "serve.loadgen.p99", "serve.loadgen.rps",
    }
    assert tail["serve.loadgen.p50"].value <= tail["serve.loadgen.p99"].value
    assert tail["serve.loadgen.p99"].meta["plan"] == "chaos-default"
    assert tail["serve.loadgen.p99"].meta["clients"] == 8
