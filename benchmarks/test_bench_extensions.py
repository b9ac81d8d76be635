"""Section V ablations: the three model extensions, quantified.

DESIGN.md's ablation list: (1) memory-side SRAM at varying miss
ratios; (2) flat vs modeled interconnect; (3) concurrent vs serialized
work apportionment.  Each bench regenerates the extension's headline
effect on the Figure 6 hardware and the generic SoC.
"""

from __future__ import annotations

import pytest

from repro.core import (
    FIGURE_6B,
    FIGURE_6D,
    InterconnectVariant,
    MemorySideVariant,
    SerializedVariant,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.core.extensions import Bus, InterconnectSpec, MemorySideCache
from repro.units import GIGA


def test_ablation_memory_side_sweep(benchmark):
    """Section V-A: sweeping mi shows where SRAM stops paying off.

    On the Fig. 6b design the memory bottleneck lifts as the SRAM
    captures traffic, until the GPU link takes over — beyond that
    point a bigger SRAM buys nothing (the paper's fourth conjecture:
    added local memory is wasted if reuse can't rise).
    """
    soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()

    def sweep():
        return [
            evaluate_variant(
                soc,
                workload,
                MemorySideVariant(MemorySideCache.uniform(2, miss)),
            )
            for miss in (1.0, 0.5, 0.2, 0.1, 0.05, 0.0)
        ]

    results = benchmark(sweep)
    attainable = [r.attainable for r in results]
    assert attainable == sorted(attainable)  # monotone improvement
    assert results[0].bottleneck == "memory"
    assert results[-1].bottleneck == "GPU"
    # Saturation: once the link binds, further capture is free of gain.
    assert attainable[-1] == pytest.approx(attainable[-2], rel=1e-9)
    assert attainable[-1] == pytest.approx(2 * GIGA)


def test_ablation_interconnect_vs_flat(benchmark):
    """Section V-B: a modeled fabric can reveal a bottleneck base
    Gables misses entirely."""
    soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()
    tight = InterconnectSpec(
        buses=(Bus("shared-fabric", 12 * GIGA),),
        usage=((0,), (0,)),
    )

    def run():
        flat = evaluate(soc, workload)
        fabric = evaluate_variant(soc, workload, InterconnectVariant(tight))
        return flat, fabric

    flat, fabric = benchmark(run)
    assert flat.attainable == pytest.approx(160 * GIGA)
    # Both IPs' traffic (0.25/8 + 0.75/8 bytes) over a 12 GB/s bus:
    assert fabric.bottleneck == "shared-fabric"
    assert fabric.attainable == pytest.approx(12 * GIGA / 0.125)


def test_ablation_concurrent_vs_serialized(benchmark):
    """Section V-C: concurrency is worth up to Nx; the gap collapses
    when one component dominates."""
    soc = FIGURE_6D.soc()
    balanced = Workload.two_ip(f=0.75, i0=8, i1=8)
    skewed = Workload.two_ip(f=0.999, i0=8, i1=8)

    def run():
        return {
            "balanced": (
                evaluate(soc, balanced).attainable,
                evaluate_variant(
                    soc, balanced, SerializedVariant()
                ).attainable,
            ),
            "skewed": (
                evaluate(soc, skewed).attainable,
                evaluate_variant(soc, skewed, SerializedVariant()).attainable,
            ),
        }

    results = benchmark(run)
    balanced_gain = results["balanced"][0] / results["balanced"][1]
    skewed_gain = results["skewed"][0] / results["skewed"][1]
    assert balanced_gain > 1.5  # concurrency pays on balanced work
    assert skewed_gain < balanced_gain  # and fades when one IP dominates
    assert skewed_gain >= 1.0


def test_ablation_serialized_memory_term(benchmark):
    """Equation 18's Di/Bpeak term: serialized work on a bandwidth-
    starved SoC is bound by off-chip transfer, not compute."""
    from repro.core import SoCSpec

    soc = SoCSpec.two_ip(100 * GIGA, 1 * GIGA, 1.0, 50 * GIGA, 50 * GIGA)
    workload = Workload.two_ip(f=0.5, i0=0.1, i1=0.1)

    def run():
        return evaluate_variant(soc, workload, SerializedVariant())

    result = benchmark(run)
    assert all(term.limiter == "memory" for term in result.ip_terms)
    # Total data 10 bytes/unit over 1 GB/s, serialized: 0.1 Gops/s.
    assert result.attainable == pytest.approx(0.1 * GIGA)
