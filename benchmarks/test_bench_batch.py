"""Batch-evaluation engine benchmarks.

The vectorized engine exists to make dense sweeps cheap: the ISSUE
acceptance criterion is a >= 10x speedup on a 10k-point fraction sweep
over the per-point scalar loop, at identical results.  These
benchmarks pin that ratio (min-of-repeats timing, robust to scheduler
noise) and track the absolute throughput of both paths.
"""

from __future__ import annotations

import timeit
from itertools import repeat
from pathlib import Path

import numpy as np

from repro.core import (
    FIGURE_6B,
    InterconnectVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_batch,
    evaluate_variant,
    fraction_grid,
)
from repro.core.extensions import Bus, InterconnectSpec
from repro.explore import SweepPoint, SweepSeries, sweep_fraction
from repro.obs.bench import append_history, make_record, new_run_id
from repro.units import GIGA

#: The append-only benchmark trajectory at the repo root.
BENCH_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_HISTORY.jsonl"

#: A 10k-point offload-fraction grid over the paper's two-IP design.
N_POINTS = 10_000
F_VALUES = [k / (N_POINTS - 1) for k in range(N_POINTS)]


def _pair():
    soc = SoCSpec.two_ip(
        peak_perf=20 * GIGA, memory_bandwidth=12 * GIGA, acceleration=8,
        cpu_bandwidth=8 * GIGA, acc_bandwidth=20 * GIGA,
    )
    return soc, Workload.two_ip(f=0.8, i0=6, i1=2)


def _scalar_sweep(soc, workload, values, variant=None):
    """The per-point scalar loop: build, evaluate and record each point."""
    points = []
    for f in values:
        point = workload.with_fraction_at(1, f)
        result = (
            evaluate(soc, point) if variant is None
            else evaluate_variant(soc, point, variant)
        )
        points.append(SweepPoint(f, result.attainable, result.bottleneck))
    return SweepSeries("f[1]", tuple(points))


def test_batch_sweep_10x_faster_than_scalar_loop():
    """The acceptance criterion: >= 10x on a 10k-point f-sweep."""
    soc, workload = _pair()
    fast = min(timeit.repeat(
        lambda: sweep_fraction(soc, workload, 1, F_VALUES),
        repeat=5, number=1,
    ))
    slow = min(timeit.repeat(
        lambda: _scalar_sweep(soc, workload, F_VALUES),
        repeat=3, number=1,
    ))
    speedup = slow / fast
    print(f"\n10k-point f-sweep: scalar {slow * 1e3:.1f} ms, "
          f"batch {fast * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 10.0, (
        f"batch sweep only {speedup:.1f}x faster than the scalar loop "
        f"(scalar {slow:.4f}s, batch {fast:.4f}s); need >= 10x"
    )


def test_sweep_call_costs_at_most_2x_its_batch_and_points():
    """A sweep call is one batch plus one ``SweepPoint`` per point: a
    20k-point f-sweep costs at most 2x a raw ``evaluate_batch(...,
    validate=False)`` on the same grid plus the build of its points,
    made as ``sweep_fraction`` makes them (``tuple.__new__`` over the
    zipped columns), so no other per-point work creeps into the
    sweep."""
    soc, workload = _pair()
    values = [k / 19_999 for k in range(20_000)]
    grid = fraction_grid(workload.fractions, 1, np.asarray(values))
    intensities = np.broadcast_to(np.asarray(workload.intensities),
                                  grid.shape)
    batch = evaluate_batch(soc, grid, intensities, validate=False)
    names = batch.component_names

    def best(call):
        return min(timeit.repeat(call, repeat=7, number=1))

    sweep = best(lambda: sweep_fraction(soc, workload, 1, values))
    raw = best(lambda: evaluate_batch(soc, grid, intensities,
                                      validate=False))
    build = best(lambda: tuple(map(tuple.__new__, repeat(SweepPoint), zip(
        values, batch.attainables.tolist(),
        map(names.__getitem__, batch.bottleneck_codes.tolist()),
    ))))
    ratio = sweep / (raw + build)
    print(f"\n20k-point f-sweep: sweep {sweep * 1e3:.2f} ms, raw batch "
          f"{raw * 1e3:.2f} ms, points {build * 1e3:.2f} ms, "
          f"ratio {ratio:.2f}x")
    assert ratio <= 2.0, (
        f"sweep_fraction costs {ratio:.2f}x its batch and points (sweep "
        f"{sweep:.4f}s, batch {raw:.4f}s, points {build:.4f}s); the "
        f"gate is 2x"
    )


def test_batch_sweep_matches_scalar_loop_exactly():
    """Speed never trades accuracy: both paths agree point for point."""
    soc, workload = _pair()
    fast = sweep_fraction(soc, workload, 1, F_VALUES)
    slow = _scalar_sweep(soc, workload, F_VALUES)
    assert fast.attainables() == slow.attainables()
    assert tuple(p.bottleneck for p in fast.points) == tuple(
        p.bottleneck for p in slow.points
    )


def test_variant_batch_sweep_5x_faster_than_scalar_loop():
    """Extension sweeps ride the lowered batch backend: >= 5x on a
    10k-point interconnect f-sweep vs the per-point scalar pipeline.

    The scalar loop calls :func:`repro.core.variants.evaluate_variant`
    point by point; the fast path is the sweep's dispatch through
    :func:`repro.core.variants.evaluate_variant_batch`.  Timings are
    appended to ``BENCH_HISTORY.jsonl`` for cross-PR comparison.
    """
    soc, workload = _pair()
    variant = InterconnectVariant(
        InterconnectSpec((Bus("fabric", 18 * GIGA),), ((0,), (0,)))
    )
    fast = min(timeit.repeat(
        lambda: sweep_fraction(soc, workload, 1, F_VALUES, variant=variant),
        repeat=5, number=1,
    ))
    slow = min(timeit.repeat(
        lambda: _scalar_sweep(soc, workload, F_VALUES, variant),
        repeat=3, number=1,
    ))
    speedup = slow / fast
    print(f"\n10k-point interconnect f-sweep: scalar {slow * 1e3:.1f} ms, "
          f"batch {fast * 1e3:.1f} ms, speedup {speedup:.1f}x")
    run_id = new_run_id()
    meta = {"variant": "interconnect", "points": N_POINTS}
    append_history(BENCH_HISTORY, [
        make_record("variants.interconnect.scalar_seconds", slow,
                    run_id=run_id, meta=meta),
        make_record("variants.interconnect.batch_seconds", fast,
                    run_id=run_id, meta=meta),
        make_record("variants.interconnect.speedup", speedup, "x",
                    run_id=run_id, meta=meta),
    ])
    assert speedup >= 5.0, (
        f"variant batch sweep only {speedup:.1f}x faster than the "
        f"scalar loop (scalar {slow:.4f}s, batch {fast:.4f}s); need >= 5x"
    )


def test_variant_batch_sweep_matches_scalar_loop():
    """Both variant dispatch paths agree point for point (<= 1e-12)."""
    soc, workload = _pair()
    variant = InterconnectVariant(
        InterconnectSpec((Bus("fabric", 18 * GIGA),), ((0,), (0,)))
    )
    fast = sweep_fraction(soc, workload, 1, F_VALUES, variant=variant)
    slow = _scalar_sweep(soc, workload, F_VALUES, variant)
    assert np.allclose(
        fast.attainables(), slow.attainables(), rtol=1e-12, atol=0.0
    )
    assert tuple(p.bottleneck for p in fast.points) == tuple(
        p.bottleneck for p in slow.points
    )


def test_evaluate_batch_throughput(benchmark):
    """Raw engine throughput on the 10k x 2 grid (no SweepPoint cost)."""
    soc, workload = _pair()
    grid = fraction_grid(workload.fractions, 1, np.asarray(F_VALUES))
    intensities = np.broadcast_to(
        np.asarray(workload.intensities), grid.shape
    )
    batch = benchmark(
        lambda: evaluate_batch(soc, grid, intensities, validate=False)
    )
    assert len(batch) == N_POINTS


def test_scalar_evaluate_figure6b_agreement(benchmark):
    """The Figure 6b design point: batch of one == scalar, timed."""
    soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
    batch = benchmark(
        lambda: evaluate_batch(
            soc, [workload.fractions], [workload.intensities]
        )
    )
    assert batch.result(0) == evaluate(soc, workload)
