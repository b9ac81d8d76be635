"""Ablation: roofline estimation methodology (DESIGN.md item 5).

The paper contrasts *optimistic* rooflines (manufacturer specs: never
exceedable, maybe unattainable) with *pessimistic* ones (measured:
attainable, maybe a ceiling) and measures in a thermal chamber with
repeated runs.  These benches quantify all three methodology choices
on the simulated Snapdragon 835, plus the generational-planning study
the estimates feed.
"""

from __future__ import annotations

import pytest

from repro.ert import (
    fit_roofline,
    optimistic_roofline,
    pessimism_ratio,
    run_sweep,
)
from repro.explore import (
    bottleneck_drift,
    years_until_memory_bound,
)
from repro.core import FIGURE_6D


def test_ablation_optimistic_vs_pessimistic(benchmark, platform):
    """Spec sheets vs measurement: the GPU delivers 62% of its quoted
    FLOPs and the CPU 50% of the quoted DRAM bandwidth — the gaps an
    architect must discount before trusting a datasheet."""

    def run():
        cpu = fit_roofline(run_sweep(platform, "CPU"))
        gpu = fit_roofline(run_sweep(platform, "GPU"))
        return {
            "cpu": pessimism_ratio(
                optimistic_roofline("CPU", 7.5, 30e9), cpu
            ),
            "gpu": pessimism_ratio(
                optimistic_roofline("GPU", 567, 30e9), gpu
            ),
        }

    ratios = benchmark(run)
    assert ratios["gpu"]["compute"] == pytest.approx(349.6 / 567, rel=0.02)
    assert ratios["cpu"]["bandwidth"] == pytest.approx(0.5, abs=0.05)


def test_ablation_noise_and_repeats(benchmark, platform):
    """Measurement methodology: one noisy pass under-estimates the
    ceiling; best-of-N repeats (the paper's approach) recover it."""

    def run():
        single = fit_roofline(
            run_sweep(platform, "CPU", noise=0.3, seed=11, repeats=1)
        )
        repeated = fit_roofline(
            run_sweep(platform, "CPU", noise=0.3, seed=11, repeats=16)
        )
        return single.peak_gflops, repeated.peak_gflops

    single_peak, repeated_peak = benchmark(run)
    assert single_peak < 7.5
    assert repeated_peak == pytest.approx(7.5, rel=0.05)
    assert repeated_peak >= single_peak


def test_ablation_thermal_chamber(benchmark):
    """Without the chamber, heat soak degrades later runs; the chamber
    (controlled mode) keeps every run identical."""
    from repro.sim import KernelSpec, simulated_snapdragon_835

    def run():
        kernel = KernelSpec(
            elements=32 * 1024 * 1024, trials=64, variant="stream"
        ).with_intensity(1024)
        hot = simulated_snapdragon_835(thermally_controlled=False)
        first = hot.run_kernel("GPU", kernel).gflops
        for _ in range(4):
            hot.run_kernel("GPU", kernel)
        soaked = hot.run_kernel("GPU", kernel).gflops
        chamber = simulated_snapdragon_835(thermally_controlled=True)
        controlled = [
            chamber.run_kernel("GPU", kernel).gflops for _ in range(3)
        ]
        return first, soaked, controlled

    first, soaked, controlled = benchmark(run)
    assert soaked < first  # heat soak costs performance
    assert len(set(controlled)) == 1  # the chamber is repeatable
    assert controlled[0] == pytest.approx(349.6, rel=0.01)


def test_ablation_memory_wall_planning(benchmark):
    """The 2-3-year planning horizon: project the balanced Fig. 6d
    design forward and watch the bottleneck drift to memory within a
    year under default technology trends."""
    soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()

    def run():
        return (
            bottleneck_drift(soc, workload, years=5),
            years_until_memory_bound(soc, workload),
        )

    points, first_memory_year = benchmark(run)
    assert first_memory_year == 1.0
    assert points[-1].bottleneck == "memory"
    # Five years of 1.3x/yr compute buys < 2x on this usecase: the
    # memory wall eats the rest.
    assert points[-1].speedup_vs_today < 2.0


def test_ablation_reuse_buys_planning_years(benchmark):
    """Doubling the usecase's reuse repeatedly postpones the wall —
    the quantitative form of the paper's fourth conjecture."""
    from repro.core import Workload

    soc = FIGURE_6D.soc()

    def run():
        return [
            years_until_memory_bound(
                soc, Workload.two_ip(0.75, intensity, intensity)
            )
            for intensity in (8, 16, 32, 64)
        ]

    years = benchmark(run)
    assert years == sorted(years)
    assert years[-1] > years[0] + 5
