"""Fleet-runner benchmarks: disabled hook cost, market-scale throughput.

Two acceptance criteria live here.  First, the telemetry hooks on the
fleet evaluation loop (spans, structured log, counters)
must cost at most 1% of a point's evaluation when every collector is
disabled.  Wall-clock timing of the full loop cannot resolve 1% of a
~40 us model evaluation through container scheduling noise, so the
measurement isolates the hooks: ``evaluate`` is stubbed to a constant,
leaving two loops whose *difference* is exactly the per-point hook
machinery, and that difference is compared against the separately
timed real evaluation.  Second, a 2-worker fleet over the full market
population must complete and append its throughput trajectory to
``BENCH_HISTORY.jsonl`` (the ``gables fleet run`` default).
"""

from __future__ import annotations

import timeit
from pathlib import Path

import repro.explore.fleet as fleet_module
from repro.core import evaluate
from repro.explore import evaluate_population, fleet_bench_records, run_fleet_sweep
from repro.explore.fleet import FleetPoint
from repro.market import market_spec_population
from repro.obs import tracing_enabled
from repro.obs.bench import append_history, read_history

BENCH_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_HISTORY.jsonl"

#: The library-wide disabled-overhead budget.
MAX_OVERHEAD = 0.01

#: Absolute per-point slack: the hook cost is a difference of two
#: timed loops, so it carries roughly one loop-iteration's timer
#: jitter (~100 ns in this container) on top of the true cost.
PER_POINT_SLACK_S = 1.5e-7

N_CASES = 200


def test_disabled_telemetry_hooks_within_1pct(monkeypatch):
    """Per-point hook cost vs per-point evaluation cost, hooks isolated.

    Both timed loops run the identical stubbed evaluation and build the
    identical ``FleetPoint``; the instrumented side additionally pays
    ``evaluate_population``'s per-point machinery — the heartbeat /
    checkpoint / logging checks that remain when every collector is
    off.  Their difference is the disabled-path hook cost.
    """
    assert not tracing_enabled()
    cases = market_spec_population(limit=N_CASES)
    stub_result = evaluate(cases[0].soc, cases[0].workload)
    monkeypatch.setattr(
        fleet_module, "evaluate", lambda soc, workload: stub_result
    )

    def bare():
        points = []
        for index, case in enumerate(cases):
            result = stub_result
            points.append(FleetPoint(
                index=index, key=case.key,
                attainable=result.attainable,
                bottleneck=result.bottleneck,
                memory_time=result.memory_time,
                average_intensity=result.average_intensity,
            ))
        return points

    def instrumented():
        return evaluate_population(cases)

    assert len(bare()) == N_CASES  # warm both paths
    points, failures = instrumented()
    assert len(points) == N_CASES and not failures

    bare_s = min(timeit.repeat(bare, repeat=9, number=25)) / 25
    inst_s = min(timeit.repeat(instrumented, repeat=9, number=25)) / 25
    hook_per_point_s = (inst_s - bare_s) / N_CASES

    monkeypatch.undo()
    case = cases[0]
    eval_s = min(timeit.repeat(
        lambda: evaluate(case.soc, case.workload), repeat=9, number=100,
    )) / 100

    print(f"\nfleet hook cost: {hook_per_point_s * 1e9:.0f} ns/point "
          f"against a {eval_s * 1e6:.1f} us evaluation "
          f"({hook_per_point_s / eval_s:+.2%})")
    assert hook_per_point_s <= MAX_OVERHEAD * eval_s + PER_POINT_SLACK_S, (
        f"disabled telemetry hooks cost {hook_per_point_s * 1e9:.0f} ns "
        f"per point; the budget is {MAX_OVERHEAD:.0%} of the "
        f"{eval_s * 1e6:.1f} us evaluation "
        f"(= {MAX_OVERHEAD * eval_s * 1e9:.0f} ns)"
    )


def test_fleet_sweep_throughput_lands_in_history():
    """2-worker fleet over the whole market, trajectory appended.

    The acceptance-scale run: every market spec (>= 500), two worker
    processes, points bitwise identical to the serial baseline, and
    the throughput records appended to the rolling benchmark history
    exactly as ``gables fleet run`` would.
    """
    population = market_spec_population()
    assert len(population) >= 500
    serial, _ = evaluate_population(population)
    result = run_fleet_sweep(population, workers=2)
    assert result.points == serial
    assert result.throughput > 0

    records = fleet_bench_records(result)
    before = len(read_history(BENCH_HISTORY)) if BENCH_HISTORY.exists() else 0
    append_history(BENCH_HISTORY, records)
    history = read_history(BENCH_HISTORY)
    assert len(history) == before + len(records)
    fresh = history[-len(records):]
    assert {r.fleet_run_id for r in fresh} == {result.fleet_run_id}
    names = [r.name for r in fresh]
    assert names[0] == "fleet.sweep.throughput"
    assert names.count("fleet.worker.seconds") == 2
    print(f"\nfleet throughput: {result.throughput:,.0f} points/s "
          f"({len(population)} specs, 2 workers, "
          f"{result.elapsed_s:.2f}s wall)")
