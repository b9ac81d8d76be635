"""Ablations beyond the paper: power-constrained Gables, interval
bounds, Monte-Carlo robustness, and design synthesis.

These benches quantify the design-choice questions DESIGN.md lists for
the library's extensions, anchored to the Figure 6 hardware so the
numbers are interpretable against the paper's walkthrough.
"""

from __future__ import annotations

import pytest

from repro.core import (
    FIGURE_6B,
    FIGURE_6D,
    Workload,
    evaluate,
    evaluate_with_margin,
)
from repro.explore import UsecaseRequirement, synthesize_soc
from repro.power import (
    EnergyModel,
    evaluate_power_constrained,
    max_tdp_needed,
    offload_energy_ratio,
)
from repro.units import GIGA
from repro.usecases import monte_carlo_attainable


def test_ablation_tdp_constrained_balance(benchmark):
    """The Fig. 6d '160 Gops/s balanced design' inside a 3 W phone:
    power becomes the fourth roofline and binds first."""
    soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()
    model = EnergyModel.mobile_default(soc)

    def run():
        return (
            evaluate_power_constrained(soc, workload, model, 3.0),
            max_tdp_needed(soc, workload, model),
        )

    result, needed = benchmark(run)
    assert result.power_limited
    assert result.attainable < 160 * GIGA
    assert needed > 3.0  # the full bound needs more than the phone has


def test_ablation_offload_saves_energy(benchmark):
    """The accelerator-efficiency story: the same work offloaded at
    high reuse costs less than half the CPU-only energy."""
    soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()
    model = EnergyModel.mobile_default(soc)
    ratio = benchmark(lambda: offload_energy_ratio(soc, workload, model))
    assert ratio < 0.6


def test_ablation_interval_bounds(benchmark):
    """±20% input uncertainty on the Fig. 6b design: the attainable
    interval is exact (monotonicity), ~2.3x wide."""
    soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
    result = benchmark(lambda: evaluate_with_margin(soc, workload, 20.0))
    exact = evaluate(soc, workload).attainable
    assert result.lo < exact < result.hi
    assert 2.0 < result.width_ratio < 2.6


def test_ablation_balanced_design_fragility(benchmark):
    """Monte-Carlo over usecases near Fig. 6d: the balanced design's
    bottleneck scatters across components — balance is a knife edge."""
    stats = benchmark(
        lambda: monte_carlo_attainable(
            FIGURE_6D.soc(), FIGURE_6D.workload(), samples=200, seed=3
        )
    )
    assert len(stats["bottleneck_census"]) >= 2
    assert stats["p5"] < 160 * GIGA < stats["max"]


def test_ablation_synthesis_recovers_fig6d_sizing(benchmark):
    """The inverse question: requiring 160 Gops/s on the Fig. 6d
    workload synthesizes the paper's own Bpeak=20 / B1=15 sizing."""
    requirements = [
        UsecaseRequirement(Workload.two_ip(0.75, 8, 8, name="balanced"),
                           required=160 * GIGA),
    ]

    def run():
        return synthesize_soc(requirements, 2, ip_names=("CPU", "GPU"))

    design = benchmark(run)
    assert design.soc.memory_bandwidth == pytest.approx(20 * GIGA)
    assert design.soc.ips[1].bandwidth == pytest.approx(15 * GIGA)
    assert design.slack["balanced"] == pytest.approx(1.0)


def test_ablation_multipath_doubles_fabric(benchmark):
    """Section V-B's deferred richer topology: two 5 GB/s fabrics with
    optimal splitting behave like one 10 GB/s fabric."""
    from repro.core import MultipathVariant, evaluate_variant
    from repro.core.extensions import Bus, MultiPathInterconnect

    soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
    multi = MultiPathInterconnect(
        buses=(Bus("hb", 20 * GIGA), Bus("mm0", 5 * GIGA),
               Bus("mm1", 5 * GIGA)),
        routes=((("hb",),), (("hb", "mm0"), ("hb", "mm1"))),
    )
    result = benchmark(
        lambda: evaluate_variant(soc, workload, MultipathVariant(multi))
    )
    # Fabric relieved back to the base model's memory bound.
    assert result.bottleneck == "memory"
    assert result.attainable == pytest.approx(1.3278 * GIGA, rel=1e-3)


def test_ablation_guz_valley_embedding(benchmark):
    """The Section VI 'future sub-models' suggestion: drive one Gables
    IP from the Guz many-thread model and locate its valley."""
    from repro.baselines import GuzMachine, find_valley, power_law_hit_rate

    machine = GuzMachine(
        n_pe=64, frequency=1e9, cpi_exe=1.0, mem_fraction=0.4,
        miss_penalty_cycles=400, cache_bytes=4 * 1024 * 1024,
        line_bytes=64, memory_bandwidth=200e9,
        hit_rate=power_law_hit_rate(s0_bytes=16e3, theta=3.0,
                                    max_rate=1.0),
    )
    report = benchmark(lambda: find_valley(machine))
    assert report.has_valley
    assert report.cache_ridge_threads < report.valley_threads
