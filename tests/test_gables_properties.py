"""Property-based tests on the Gables model's core invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MemorySideVariant,
    PhasedVariant,
    SerializedVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.core.extensions import MemorySideCache
from repro.core.gables import attainable_performance_dual

positive = st.floats(min_value=1e6, max_value=1e14, allow_nan=False,
                     allow_infinity=False)
intensity = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                      allow_infinity=False)
acceleration = st.floats(min_value=0.01, max_value=1000, allow_nan=False,
                         allow_infinity=False)
fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def soc_and_workload(draw, n_min=1, n_max=5):
    """A random N-IP SoC with a matching workload."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    ips = []
    from repro.core import IPBlock

    for i in range(n):
        accel = 1.0 if i == 0 else draw(acceleration)
        ips.append(IPBlock(f"ip{i}", accel, draw(positive)))
    soc = SoCSpec(
        peak_perf=draw(positive),
        memory_bandwidth=draw(positive),
        ips=tuple(ips),
    )
    weights = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(n)]
    total = sum(weights)
    if total == 0:
        weights[0] = 1.0
        total = 1.0
    fractions = tuple(w / total for w in weights)
    intensities = tuple(draw(intensity) for _ in range(n))
    workload = Workload(fractions=fractions, intensities=intensities)
    return soc, workload


@given(soc_and_workload())
@settings(max_examples=150, deadline=None)
def test_dual_formulation_agrees(pair):
    """Equations 12-14 and 9-11 are the same function."""
    soc, workload = pair
    time_domain = evaluate(soc, workload).attainable
    perf_domain = attainable_performance_dual(soc, workload)
    assert time_domain == pytest.approx(perf_domain, rel=1e-9)


@given(soc_and_workload())
@settings(max_examples=100, deadline=None)
def test_attainable_below_every_component_bound(pair):
    """P_attainable never exceeds any single component's bound."""
    soc, workload = pair
    result = evaluate(soc, workload)
    for term in result.ip_terms:
        if term.perf_bound is not None:
            assert result.attainable <= term.perf_bound * (1 + 1e-9)
    if result.memory_time > 0:
        assert result.attainable <= result.memory_perf_bound * (1 + 1e-9)


@given(soc_and_workload(), st.floats(min_value=1.01, max_value=100))
@settings(max_examples=80, deadline=None)
def test_more_memory_bandwidth_never_hurts(pair, factor):
    """Attainable performance is monotone in Bpeak."""
    soc, workload = pair
    base = evaluate(soc, workload).attainable
    boosted = evaluate(
        soc.with_memory_bandwidth(soc.memory_bandwidth * factor), workload
    ).attainable
    assert boosted >= base * (1 - 1e-9)


@given(soc_and_workload(n_min=2), st.floats(min_value=1.01, max_value=100))
@settings(max_examples=80, deadline=None)
def test_faster_accelerator_never_hurts(pair, factor):
    """Attainable performance is monotone in every Ai."""
    soc, workload = pair
    base = evaluate(soc, workload).attainable
    boosted_soc = soc.with_ip(1, acceleration=soc.ips[1].acceleration * factor)
    assert evaluate(boosted_soc, workload).attainable >= base * (1 - 1e-9)


@given(soc_and_workload(), st.floats(min_value=0.1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_uniform_hardware_scaling_scales_performance(pair, scale):
    """Scaling every rate by k scales P_attainable by exactly k."""
    soc, workload = pair
    from repro.core import IPBlock

    scaled = SoCSpec(
        peak_perf=soc.peak_perf * scale,
        memory_bandwidth=soc.memory_bandwidth * scale,
        ips=tuple(
            IPBlock(ip.name, ip.acceleration, ip.bandwidth * scale)
            for ip in soc.ips
        ),
    )
    base = evaluate(soc, workload).attainable
    boosted = evaluate(scaled, workload).attainable
    assert boosted == pytest.approx(base * scale, rel=1e-9)


@given(soc_and_workload())
@settings(max_examples=100, deadline=None)
def test_concurrent_never_slower_than_serialized(pair):
    """max(times) <= sum(times'): concurrency can only help."""
    soc, workload = pair
    concurrent = evaluate(soc, workload).attainable
    serialized = evaluate_variant(
        soc, workload, SerializedVariant()
    ).attainable
    assert concurrent >= serialized * (1 - 1e-9)


@given(soc_and_workload(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_memory_side_cache_bounded_by_extremes(pair, miss):
    """A uniform-m cache interpolates between base and traffic-free."""
    soc, workload = pair
    base = evaluate(soc, workload).attainable
    perfect = evaluate_variant(
        soc,
        workload,
        MemorySideVariant(MemorySideCache.uniform(soc.n_ips, 0.0)),
    ).attainable
    cached = evaluate_variant(
        soc,
        workload,
        MemorySideVariant(MemorySideCache.uniform(soc.n_ips, miss)),
    ).attainable
    assert base * (1 - 1e-9) <= cached <= perfect * (1 + 1e-9)


@given(soc_and_workload())
@settings(max_examples=80, deadline=None)
def test_disabled_memory_side_cache_equals_base(pair):
    """mi = 1 everywhere reduces Equation 15 to Equation 10."""
    soc, workload = pair
    base = evaluate(soc, workload)
    disabled = evaluate_variant(
        soc, workload, MemorySideVariant(MemorySideCache.disabled(soc.n_ips))
    )
    assert disabled.attainable == pytest.approx(base.attainable, rel=1e-12)
    assert disabled.memory_time == pytest.approx(base.memory_time, rel=1e-12)


@given(soc_and_workload(n_min=2))
@settings(max_examples=60, deadline=None)
def test_singleton_phases_equal_serialized(pair):
    """A phase sequence with one active IP per phase is *exactly* the
    serialized model: per singleton phase, base Gables' max(Di/Bi, Ci,
    sum(D)/Bpeak) collapses to Equation 18's T'_IP[i], and the phase
    sum is Equation 19's denominator."""
    from repro.core.extensions import Phase, PhasedUsecase
    from repro.core.params import Workload

    soc, workload = pair
    phases = []
    for index in workload.active_ips:
        phases.append(
            Phase(
                work=workload.fractions[index],
                workload=Workload.single_ip(
                    soc.n_ips, index, workload.intensities[index]
                ),
                name=f"phase-{index}",
            )
        )
    if len(phases) < 1:
        return
    # Renormalize phase works against fp drift in the fractions.
    total = sum(p.work for p in phases)
    phases = [
        Phase(work=p.work / total, workload=p.workload, name=p.name)
        for p in phases
    ]
    phased = evaluate_variant(
        soc, None, PhasedVariant(PhasedUsecase(tuple(phases)))
    )
    serialized = evaluate_variant(soc, workload, SerializedVariant())
    assert phased.attainable == pytest.approx(
        serialized.attainable, rel=1e-9
    )


@given(soc_and_workload())
@settings(max_examples=80, deadline=None)
def test_bottleneck_is_a_real_component(pair):
    soc, workload = pair
    result = evaluate(soc, workload)
    names = {term.name for term in result.ip_terms} | {"memory"}
    assert result.bottleneck in names
    assert result.bottleneck in result.binding_components


@given(soc_and_workload())
@settings(max_examples=80, deadline=None)
def test_iavg_between_min_and_max_active_intensity(pair):
    """The weighted harmonic mean lies within the active intensities."""
    soc, workload = pair
    active = [
        workload.intensities[i]
        for i, f in enumerate(workload.fractions)
        if f > 0
    ]
    iavg = workload.average_intensity()
    assert min(active) * (1 - 1e-9) <= iavg <= max(active) * (1 + 1e-9)
