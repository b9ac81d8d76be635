"""Section VI ablation: Gables vs the related models.

Quantifies the comparisons the paper draws in prose: MultiAmdahl's
optimal area split (and its blindness to bandwidth), Amdahl's Law as
the data-free limit of serialized Gables, and the Hill-Marty core-size
question next to Gables' accelerator-size question.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines import (
    MultiAmdahlChip,
    MultiAmdahlIP,
    amdahl_speedup,
    best_core_size,
    optimal_allocation,
    speedup_over_uniform,
)
from repro.core import (
    SerializedVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.units import GIGA


def test_multiamdahl_optimal_allocation(benchmark):
    """The MultiAmdahl optimum for a 3-IP chip, via the closed form."""
    chip = MultiAmdahlChip(
        ips=(
            MultiAmdahlIP.power_law("cpu", k=1.0),
            MultiAmdahlIP.power_law("gpu", k=6.0),
            MultiAmdahlIP.power_law("dsp", k=2.0),
        ),
        total_area=100.0,
    )
    fractions = (0.5, 0.4, 0.1)
    areas, runtime = benchmark(lambda: optimal_allocation(chip, fractions))
    assert sum(areas) == pytest.approx(100.0)
    assert areas[0] > areas[1] > areas[2]  # big serial share -> big CPU
    assert speedup_over_uniform(chip, fractions) > 1.0


def test_multiamdahl_blind_to_fig6b(benchmark):
    """The paper's key Section VI contrast: Gables sees the Fig. 6b
    memory collapse; MultiAmdahl cannot (no bandwidth inputs)."""
    soc = SoCSpec.two_ip(40 * GIGA, 10 * GIGA, 5, 6 * GIGA, 15 * GIGA)
    high_reuse = Workload.two_ip(f=0.75, i0=8, i1=8)
    low_reuse = Workload.two_ip(f=0.75, i0=8, i1=0.1)

    def run():
        return (
            evaluate(soc, high_reuse).attainable,
            evaluate(soc, low_reuse).attainable,
        )

    good, bad = benchmark(run)
    # Gables: a 75x swing from the same (f, A) point.
    assert good / bad > 50
    # MultiAmdahl with the same work split returns one number: the
    # intensity knob simply does not exist in its parameter space.
    chip = MultiAmdahlChip(
        ips=(MultiAmdahlIP.power_law("cpu"), MultiAmdahlIP.power_law("gpu")),
        total_area=100.0,
    )
    _, t1 = optimal_allocation(chip, (0.25, 0.75))
    _, t2 = optimal_allocation(chip, (0.25, 0.75))
    assert t1 == t2


def test_amdahl_limit_of_serialized_gables(benchmark):
    """With free data movement, serialized Gables *is* Amdahl's Law."""
    acceleration = 20.0
    soc = SoCSpec.two_ip(10 * GIGA, 1e30, acceleration, 1e30, 1e30)

    def run():
        speedups = []
        for f in (0.1, 0.5, 0.9, 0.99):
            workload = Workload(fractions=(1 - f, f),
                                intensities=(math.inf, math.inf))
            attained = evaluate_variant(
                soc, workload, SerializedVariant()
            ).attainable
            speedups.append((f, attained / (10 * GIGA)))
        return speedups

    speedups = benchmark(run)
    for f, measured in speedups:
        assert measured == pytest.approx(amdahl_speedup(f, acceleration))


def test_hill_marty_core_sizing(benchmark):
    """The multicore-era question Gables generalizes: how big should
    the big core be?  (Asymmetric beats symmetric at high f.)"""

    def run():
        return {
            org: best_core_size(0.975, 256, org)
            for org in ("symmetric", "asymmetric", "dynamic")
        }

    results = benchmark(run)
    assert results["asymmetric"][1] > results["symmetric"][1]
    assert results["dynamic"][1] >= results["asymmetric"][1]
