"""Compiled-kernel benchmarks: the >= 3x gate.

The lowered-model kernel compiler (:mod:`repro.core.compile`) exists
to make market-scale sweeps cheap.  Its one compiled tier, the ufunc
chains, must stay >= 3x faster than the interpreted
:func:`evaluate_variant_batch` on the 10k-point sweep at
1e-12-identical results, and a sharded grid fleet's compiled workers
must reproduce a serial interpreted run digest for digest.

Timings are min-of-repeats (robust to scheduler noise) and land in
``BENCH_HISTORY.jsonl`` as *engine-labeled* records, so ``gables
bench compare`` trends each engine tier as its own lane.
"""

from __future__ import annotations

import timeit
from pathlib import Path

import numpy as np

from repro.core import IPBlock, SoCSpec, evaluate_variant_batch
from repro.explore import fleet_bench_records, run_fleet_grid_sweep
from repro.obs import compare_runs
from repro.obs.bench import append_history, make_record, new_run_id
from repro.units import GIGA

#: The same append-only trajectory the session harness feeds.
BENCH_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_HISTORY.jsonl"

#: The acceptance grid: 10k market workload points over a 3-IP SoC.
N_POINTS = 10_000

#: The fleet acceptance scale: a 10^7-point sharded market sweep.
FLEET_POINTS = 10_000_000


def _soc() -> SoCSpec:
    return SoCSpec(
        peak_perf=10 * GIGA, memory_bandwidth=30 * GIGA,
        ips=(IPBlock("cpu", 1.0, 15 * GIGA),
             IPBlock("gpu", 4.0, 20 * GIGA),
             IPBlock("dsp", 8.0, 10 * GIGA)),
    )


def _grid(n_ips: int = 3, k: int = N_POINTS):
    rng = np.random.default_rng(42)
    fractions = rng.dirichlet(np.ones(n_ips), size=k)
    intensities = rng.uniform(0.25, 64.0, size=(k, n_ips))
    return fractions, intensities


def test_compiled_sweep_matches_interpreter():
    """Speed never trades accuracy: 1e-12 relative, identical codes."""
    soc = _soc()
    fractions, intensities = _grid()
    compiled = evaluate_variant_batch(
        soc, None, fractions, intensities, engine="compiled"
    )
    interpreted = evaluate_variant_batch(
        soc, None, fractions, intensities, engine="interpreted"
    )
    np.testing.assert_allclose(
        compiled.attainables, interpreted.attainables,
        rtol=1e-12, atol=0.0,
    )
    assert np.array_equal(
        compiled.bottleneck_codes, interpreted.bottleneck_codes
    )


def test_ufunc_tier_still_beats_the_interpreter():
    """The compiled tier, precomputed ufunc chains, must clear 3x over
    the interpreter on the 10k-point sweep."""
    soc = _soc()
    fractions, intensities = _grid()
    compiled = min(timeit.repeat(
        lambda: evaluate_variant_batch(
            soc, None, fractions, intensities, engine="compiled"
        ),
        repeat=5, number=1,
    ))
    interpreted = min(timeit.repeat(
        lambda: evaluate_variant_batch(
            soc, None, fractions, intensities, engine="interpreted"
        ),
        repeat=3, number=1,
    ))
    speedup = interpreted / compiled
    print(f"\n10k-point sweep: interpreted {interpreted * 1e3:.2f} ms, "
          f"compiled {compiled * 1e3:.2f} ms, speedup {speedup:.1f}x "
          f"({N_POINTS / compiled / 1e6:.1f}M points/s)")
    run_id = new_run_id()
    meta = {"points": N_POINTS, "n_ips": 3}
    append_history(BENCH_HISTORY, [
        make_record("compile.sweep.seconds", compiled,
                    run_id=run_id, engine="compiled", meta=meta),
        make_record("compile.sweep.seconds", interpreted,
                    run_id=run_id, engine="interpreted", meta=meta),
        make_record("compile.sweep.speedup", speedup, "x",
                    run_id=run_id, engine="compiled", meta=meta),
    ])
    assert speedup >= 3.0, (
        f"compiled sweep only {speedup:.1f}x faster than the "
        f"interpreter (interpreted {interpreted:.4f}s, compiled "
        f"{compiled:.4f}s); need >= 3x"
    )


def test_bench_compare_groups_by_engine():
    """Engine-labeled records trend as separate comparison lanes."""
    records = [
        make_record("compile.sweep.seconds", value, run_id=run,
                    engine=engine)
        for run in ("run-a", "run-b")
        for engine, value in (("compiled", 0.01), ("interpreted", 0.1))
    ]
    report = compare_runs(records, window=5)
    assert {row.name for row in report.rows} == {
        "compile.sweep.seconds[engine=compiled]",
        "compile.sweep.seconds[engine=interpreted]",
    }


def test_fleet_grid_10m_points_matches_serial_interpreter():
    """The fleet acceptance bar: a sharded >= 10^7-point sweep with
    compiled workers reassembles the serial interpreted run's digest
    (bitwise agreement on every attainable and bottleneck code)."""
    soc = _soc()
    serial = run_fleet_grid_sweep(
        soc, points=FLEET_POINTS, workers=1, engine="interpreted", seed=1,
    )
    fleet = run_fleet_grid_sweep(
        soc, points=FLEET_POINTS, workers=2, engine="compiled", seed=1,
    )
    print(f"\n10M-point grid: serial interpreted "
          f"{serial.elapsed_s:.2f}s ({serial.throughput / 1e6:.1f}M "
          f"points/s), 2-worker compiled fleet {fleet.elapsed_s:.2f}s "
          f"({fleet.throughput / 1e6:.1f}M points/s)")
    assert fleet.points == serial.points == FLEET_POINTS
    assert fleet.digest == serial.digest, (
        "compiled fleet diverged from the serial interpreted run"
    )
    run_id = new_run_id()
    append_history(BENCH_HISTORY, [
        record
        for result in (serial, fleet)
        for record in fleet_bench_records(result, run_id=run_id)
    ])
