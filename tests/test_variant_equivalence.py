"""Lowered-pipeline equivalence: every variant matches its legacy math.

The multi-layer refactor replaced six hand-written extension
evaluators with lowerings onto one shared engine
(:mod:`repro.core.lowering` scalar backend,
:func:`repro.core.batch.evaluate_lowered_batch` vectorized backend).
This suite pins the contract that made the refactor safe:

- the **scalar backend is bitwise identical** to the legacy
  formulations (re-implemented here, verbatim, as references);
- the **batch backend agrees within 1e-12 relative** with the scalar
  backend on the same points;

on seeded random SoCs and workloads, including the degenerate corners
(zero-``fi`` IPs, single-IP SoCs, and ``on_error="record"`` NaN
masking of invalid batch rows).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoordinationVariant,
    InterconnectVariant,
    IPBlock,
    IPTerm,
    MemorySideVariant,
    MultipathVariant,
    PhasedVariant,
    SerializedVariant,
    SoCSpec,
    Workload,
    evaluate_variant,
    evaluate_variant_batch,
)
from repro.core.extensions import (
    Bus,
    CoordinationModel,
    InterconnectSpec,
    MemorySideCache,
    MultiPathInterconnect,
    Phase,
    PhasedUsecase,
)
from repro.core.extensions import COORDINATION
from repro.core.extensions.interconnect import bus_times
from repro.core.extensions.multipath import optimal_route_split
from repro.core.extensions.serialized import serialized_ip_times
from repro.core.gables import evaluate, ip_terms, memory_time
from repro.core.result import MEMORY, GablesResult, pick_bottleneck

# ---------------------------------------------------------------------------
# Legacy reference implementations (the pre-refactor evaluators, kept
# verbatim so the lowered pipeline has an independent ground truth).
# ---------------------------------------------------------------------------


def legacy_serialized(soc, workload):
    terms = serialized_ip_times(soc, workload)
    total_time = math.fsum(term.time for term in terms)
    times = {term.name: term.time for term in terms}
    primary, binding = pick_bottleneck(times)
    return GablesResult(
        ip_terms=terms,
        memory_time=0.0,
        memory_perf_bound=math.inf,
        average_intensity=workload.average_intensity(),
        attainable=1.0 / total_time,
        bottleneck=primary,
        binding_components=binding,
    )


def legacy_memory_side(soc, workload, cache):
    terms = ip_terms(soc, workload)
    filtered_bytes = math.fsum(
        cache.miss_ratios[term.index] * term.data_bytes for term in terms
    )
    t_memory = filtered_bytes / soc.memory_bandwidth
    effective_iavg = math.inf if filtered_bytes == 0 else 1.0 / filtered_bytes
    memory_perf_bound = (
        math.inf if t_memory == 0 else soc.memory_bandwidth * effective_iavg
    )
    times = {term.name: term.time for term in terms}
    times[MEMORY] = t_memory
    primary, binding = pick_bottleneck(times)
    return GablesResult(
        ip_terms=terms,
        memory_time=t_memory,
        memory_perf_bound=memory_perf_bound,
        average_intensity=effective_iavg,
        attainable=1.0 / max(times.values()),
        bottleneck=primary,
        binding_components=binding,
    )


def legacy_buses(soc, workload, interconnect):
    terms = ip_terms(soc, workload)
    t_memory = memory_time(soc, terms)
    iavg = workload.average_intensity()
    t_buses = bus_times(soc, workload, interconnect)
    times = {term.name: term.time for term in terms}
    times[MEMORY] = t_memory
    times.update(t_buses)
    primary, binding = pick_bottleneck(times)
    return GablesResult(
        ip_terms=terms,
        memory_time=t_memory,
        memory_perf_bound=(
            math.inf if t_memory == 0 else soc.memory_bandwidth * iavg
        ),
        average_intensity=iavg,
        attainable=1.0 / max(times.values()),
        bottleneck=primary,
        binding_components=binding,
        extra_times=t_buses,
    )


def legacy_multipath(soc, workload, interconnect):
    terms = ip_terms(soc, workload)
    t_memory = memory_time(soc, terms)
    _, t_buses = optimal_route_split(
        interconnect, [term.data_bytes for term in terms]
    )
    times = {term.name: term.time for term in terms}
    times[MEMORY] = t_memory
    times.update(t_buses)
    primary, binding = pick_bottleneck(times)
    iavg = workload.average_intensity()
    return GablesResult(
        ip_terms=terms,
        memory_time=t_memory,
        memory_perf_bound=(
            math.inf if t_memory == 0 else soc.memory_bandwidth * iavg
        ),
        average_intensity=iavg,
        attainable=1.0 / max(times.values()),
        bottleneck=primary,
        binding_components=binding,
        extra_times=t_buses,
    )


def legacy_coordination(soc, workload, coordination):
    terms = list(ip_terms(soc, workload))
    t_coord = coordination.coordination_time(workload)
    t_memory = memory_time(soc, terms)
    iavg = workload.average_intensity()
    if t_coord > 0:
        host = terms[0]
        host_time = host.time + t_coord
        terms[0] = host._replace(time=host_time, perf_bound=1.0 / host_time)
    times = {term.name: term.time for term in terms}
    times[MEMORY] = t_memory
    if t_coord > 0:
        times[COORDINATION] = t_coord
    primary, binding = pick_bottleneck(times)
    return GablesResult(
        ip_terms=tuple(terms),
        memory_time=t_memory,
        memory_perf_bound=(
            math.inf if t_memory == 0 else soc.memory_bandwidth * iavg
        ),
        average_intensity=iavg,
        attainable=1.0 / max(times.values()),
        bottleneck=primary,
        binding_components=binding,
        extra_times={COORDINATION: t_coord} if t_coord > 0 else {},
    )


def legacy_phases(soc, usecase):
    results = []
    times = []
    for phase in usecase.phases:
        result = evaluate(soc, phase.workload)
        results.append((phase, result))
        times.append(phase.work / result.attainable)
    total = math.fsum(times)
    slowest = max(range(len(times)), key=lambda k: times[k])
    return 1.0 / total, tuple(times), usecase.phases[slowest].name


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

positive = st.floats(min_value=1e6, max_value=1e14, allow_nan=False,
                     allow_infinity=False)
intensity = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                      allow_infinity=False)
acceleration = st.floats(min_value=0.01, max_value=1000, allow_nan=False,
                         allow_infinity=False)


@st.composite
def soc_and_workload(draw, n_min=1, n_max=5):
    """A random N-IP SoC with a matching workload (zero-fi IPs allowed)."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    ips = []
    for i in range(n):
        accel = 1.0 if i == 0 else draw(acceleration)
        ips.append(IPBlock(f"ip{i}", accel, draw(positive)))
    soc = SoCSpec(
        peak_perf=draw(positive),
        memory_bandwidth=draw(positive),
        ips=tuple(ips),
    )
    weights = [draw(st.floats(min_value=0.0, max_value=1.0))
               for _ in range(n)]
    total = sum(weights)
    if total == 0:
        weights[0] = 1.0
        total = 1.0
    fractions = tuple(w / total for w in weights)
    intensities = tuple(draw(intensity) for _ in range(n))
    return soc, Workload(fractions=fractions, intensities=intensities)


@st.composite
def interconnect_for(draw, soc):
    n_buses = draw(st.integers(min_value=1, max_value=3))
    buses = tuple(
        Bus(f"bus{b}", draw(positive)) for b in range(n_buses)
    )
    usage = tuple(
        tuple(sorted(draw(st.sets(
            st.integers(min_value=0, max_value=n_buses - 1),
            min_size=1, max_size=n_buses,
        ))))
        for _ in range(soc.n_ips)
    )
    return InterconnectSpec(buses, usage)


@st.composite
def multipath_for(draw, soc):
    n_buses = draw(st.integers(min_value=2, max_value=3))
    buses = tuple(
        Bus(f"bus{b}", draw(positive)) for b in range(n_buses)
    )
    routes = tuple(
        tuple(
            (r,) for r in sorted(draw(st.sets(
                st.integers(min_value=0, max_value=n_buses - 1),
                min_size=1, max_size=n_buses,
            )))
        )
        for _ in range(soc.n_ips)
    )
    return MultiPathInterconnect(buses, routes)


def assert_bitwise_equal(lowered, reference):
    """Bitwise equality of two GablesResults (the scalar contract)."""
    assert lowered.attainable == reference.attainable
    assert lowered.bottleneck == reference.bottleneck
    assert lowered.binding_components == reference.binding_components
    assert lowered.memory_time == reference.memory_time
    assert lowered.memory_perf_bound == reference.memory_perf_bound
    assert lowered.average_intensity == reference.average_intensity
    assert lowered.component_times() == reference.component_times()
    assert lowered.extra_times == reference.extra_times
    for mine, theirs in zip(lowered.ip_terms, reference.ip_terms):
        assert mine.time == theirs.time
        assert mine.limiter == theirs.limiter


# ---------------------------------------------------------------------------
# Scalar backend: bitwise vs the legacy formulations
# ---------------------------------------------------------------------------


@given(soc_and_workload())
@settings(max_examples=100, deadline=None)
def test_base_variant_is_evaluate(pair):
    soc, workload = pair
    assert_bitwise_equal(
        evaluate_variant(soc, workload), evaluate(soc, workload)
    )


@given(soc_and_workload())
@settings(max_examples=100, deadline=None)
def test_serialized_scalar_bitwise(pair):
    soc, workload = pair
    assert_bitwise_equal(
        evaluate_variant(soc, workload, SerializedVariant()),
        legacy_serialized(soc, workload),
    )


@given(soc_and_workload(), st.data())
@settings(max_examples=100, deadline=None)
def test_memory_side_scalar_bitwise(pair, data):
    soc, workload = pair
    ratios = tuple(
        data.draw(st.floats(min_value=0.0, max_value=1.0))
        for _ in range(soc.n_ips)
    )
    cache = MemorySideCache(ratios)
    assert_bitwise_equal(
        evaluate_variant(soc, workload, MemorySideVariant(cache)),
        legacy_memory_side(soc, workload, cache),
    )


@given(soc_and_workload(), st.data())
@settings(max_examples=100, deadline=None)
def test_interconnect_scalar_bitwise(pair, data):
    soc, workload = pair
    spec = data.draw(interconnect_for(soc))
    assert_bitwise_equal(
        evaluate_variant(soc, workload, InterconnectVariant(spec)),
        legacy_buses(soc, workload, spec),
    )


@given(soc_and_workload(), st.data())
@settings(max_examples=60, deadline=None)
def test_multipath_scalar_bitwise(pair, data):
    soc, workload = pair
    multipath = data.draw(multipath_for(soc))
    assert_bitwise_equal(
        evaluate_variant(soc, workload, MultipathVariant(multipath)),
        legacy_multipath(soc, workload, multipath),
    )


@given(soc_and_workload(), st.data())
@settings(max_examples=100, deadline=None)
def test_coordination_scalar_bitwise(pair, data):
    soc, workload = pair
    dispatch = tuple(
        data.draw(st.floats(min_value=0.0, max_value=1e-3))
        for _ in range(soc.n_ips)
    )
    model = CoordinationModel(dispatch, ops_per_item=1e6)
    assert_bitwise_equal(
        evaluate_variant(soc, workload, CoordinationVariant(model)),
        legacy_coordination(soc, workload, model),
    )


@pytest.mark.parametrize(("variant", "replaced"), [
    (SerializedVariant(), True),
    (MemorySideVariant(MemorySideCache((0.5, 0.25))), False),
    (CoordinationVariant(CoordinationModel((0.0, 1e-4), ops_per_item=1e6)),
     True),
], ids=["serialized", "memory-side", "coordination"])
def test_lowered_terms_are_ip_terms(variant, replaced):
    """A term copied with ``_replace`` is still an ``IPTerm``."""
    soc = SoCSpec.two_ip(40e9, 10e9, acceleration=5, cpu_bandwidth=6e9,
                         acc_bandwidth=15e9)
    workload = Workload.two_ip(f=0.75, i0=8, i1=0.1)
    terms = evaluate_variant(soc, workload, variant).ip_terms
    assert [type(term) for term in terms] == [IPTerm, IPTerm]
    assert (terms != ip_terms(soc, workload)) is replaced
    if variant.kind == "serialized":
        folded = serialized_ip_times(soc, workload)
        assert [type(term) for term in folded] == [IPTerm, IPTerm]
        assert folded == terms


@given(soc_and_workload(n_min=2), st.data())
@settings(max_examples=60, deadline=None)
def test_phases_scalar_bitwise(pair, data):
    soc, _ = pair
    n_phases = data.draw(st.integers(min_value=1, max_value=3))
    phases = []
    for p in range(n_phases):
        _, phase_workload = data.draw(
            soc_and_workload(n_min=soc.n_ips, n_max=soc.n_ips)
        )
        phases.append(Phase(
            work=1.0 / n_phases, workload=phase_workload, name=f"p{p}"
        ))
    usecase = PhasedUsecase(tuple(phases))
    result = evaluate_variant(soc, None, PhasedVariant(usecase))
    attainable, times, bottleneck = legacy_phases(soc, usecase)
    assert result.attainable == attainable
    assert result.phase_times == times
    assert result.bottleneck_phase == bottleneck


# ---------------------------------------------------------------------------
# Batch backend: 1e-12 relative vs the scalar backend
# ---------------------------------------------------------------------------

_REL = 1e-12


def _batch_grid(soc, workloads):
    fractions = np.array([w.fractions for w in workloads])
    intensities = np.array([w.intensities for w in workloads])
    return fractions, intensities


def _assert_batch_matches_scalar(soc, workloads, variant):
    fractions, intensities = _batch_grid(soc, workloads)
    batch = evaluate_variant_batch(soc, variant, fractions, intensities)
    for index, workload in enumerate(workloads):
        scalar = evaluate_variant(soc, workload, variant)
        assert batch.attainables[index] == pytest.approx(
            scalar.attainable, rel=_REL
        )
        assert batch.component_names[batch.bottleneck_codes[index]] == (
            scalar.bottleneck
        )
        point = batch.result(index)
        assert point.extra_times.keys() == scalar.extra_times.keys()
        for name, time in scalar.extra_times.items():
            assert point.extra_times[name] == pytest.approx(
                time, rel=_REL, abs=0.0
            )
        for term, expected in zip(point.ip_terms, scalar.ip_terms):
            assert term.limiter == expected.limiter
            if expected.perf_bound is None:
                assert term.perf_bound is None
            else:
                assert term.perf_bound == pytest.approx(
                    expected.perf_bound, rel=_REL, abs=0.0
                )


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_batch_matches_scalar_every_single_phase_variant(data):
    soc, first = data.draw(soc_and_workload(n_min=2))
    workloads = [first] + [
        data.draw(soc_and_workload(n_min=soc.n_ips, n_max=soc.n_ips))[1]
        for _ in range(3)
    ]
    ratios = tuple(
        data.draw(st.floats(min_value=0.0, max_value=1.0))
        for _ in range(soc.n_ips)
    )
    dispatch = tuple(
        data.draw(st.floats(min_value=0.0, max_value=1e-3))
        for _ in range(soc.n_ips)
    )
    variants = [
        SerializedVariant(),
        MemorySideVariant(MemorySideCache(ratios)),
        InterconnectVariant(data.draw(interconnect_for(soc))),
        MultipathVariant(data.draw(multipath_for(soc))),
        CoordinationVariant(CoordinationModel(dispatch, ops_per_item=1e6)),
    ]
    for variant in variants:
        _assert_batch_matches_scalar(soc, workloads, variant)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_phased_batch_matches_scalar_across_overrides(data):
    soc, _ = data.draw(soc_and_workload(n_min=2))
    phases = tuple(
        Phase(
            work=0.5,
            workload=data.draw(
                soc_and_workload(n_min=soc.n_ips, n_max=soc.n_ips)
            )[1],
            name=f"p{p}",
        )
        for p in range(2)
    )
    variant = PhasedVariant(PhasedUsecase(phases))
    factors = (0.5, 1.0, 2.0)
    memory = np.array([soc.memory_bandwidth * f for f in factors])
    batch = evaluate_variant_batch(soc, variant, memory_bandwidth=memory)
    assert len(batch) == len(factors)
    for index, factor in enumerate(factors):
        scaled = soc.with_memory_bandwidth(
            soc.memory_bandwidth * factor
        )
        scalar = evaluate_variant(scaled, None, variant)
        assert batch.attainables[index] == pytest.approx(
            scalar.attainable, rel=_REL
        )
        assert batch.bottleneck(index) == scalar.bottleneck_phase
        assert batch.phase_times[index].tolist() == pytest.approx(
            list(scalar.phase_times), rel=_REL
        )


# ---------------------------------------------------------------------------
# Degenerate corners
# ---------------------------------------------------------------------------


def _two_ip_soc():
    return SoCSpec(
        peak_perf=40e9,
        memory_bandwidth=10e9,
        ips=(IPBlock("CPU", 1.0, 30e9), IPBlock("GPU", 8.0, 60e9)),
    )


def test_single_ip_soc_every_variant():
    soc = SoCSpec(
        peak_perf=40e9, memory_bandwidth=10e9,
        ips=(IPBlock("CPU", 1.0, 30e9),),
    )
    workload = Workload(fractions=(1.0,), intensities=(4.0,))
    spec = InterconnectSpec((Bus("bus0", 20e9),), ((0,),))
    multipath = MultiPathInterconnect(
        (Bus("bus0", 20e9), Bus("bus1", 20e9)), (((0,), (1,)),)
    )
    cache = MemorySideCache((0.25,))
    model = CoordinationModel((0.0,), ops_per_item=1e6)
    assert_bitwise_equal(
        evaluate_variant(soc, workload, SerializedVariant()),
        legacy_serialized(soc, workload),
    )
    assert_bitwise_equal(
        evaluate_variant(soc, workload, MemorySideVariant(cache)),
        legacy_memory_side(soc, workload, cache),
    )
    assert_bitwise_equal(
        evaluate_variant(soc, workload, InterconnectVariant(spec)),
        legacy_buses(soc, workload, spec),
    )
    assert_bitwise_equal(
        evaluate_variant(soc, workload, MultipathVariant(multipath)),
        legacy_multipath(soc, workload, multipath),
    )
    assert_bitwise_equal(
        evaluate_variant(soc, workload, CoordinationVariant(model)),
        legacy_coordination(soc, workload, model),
    )


def test_zero_fraction_ips_stay_idle_across_backends():
    soc = _two_ip_soc()
    workload = Workload(fractions=(1.0, 0.0), intensities=(4.0, 8.0))
    spec = InterconnectSpec((Bus("bus0", 20e9),), ((0,), (0,)))
    scalar = evaluate_variant(soc, workload, InterconnectVariant(spec))
    assert scalar.ip_terms[1].limiter == "idle"
    assert_bitwise_equal(scalar, legacy_buses(soc, workload, spec))
    batch = evaluate_variant_batch(
        soc,
        InterconnectVariant(spec),
        np.array([workload.fractions]),
        np.array([workload.intensities]),
    )
    assert batch.attainables[0] == pytest.approx(
        scalar.attainable, rel=_REL
    )
    assert batch.result(0).ip_terms[1].limiter == "idle"


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_coordination_drill_down_is_the_scalar_result(engine):
    """An idle host still runs the coordination work it dispatches,
    so its drill-down term is bound at 1 / t_coord, as the scalar fold
    bounds it; a point that dispatches nothing has no coordination
    component, even beside one that does."""
    soc = SoCSpec(
        peak_perf=10e9,
        memory_bandwidth=5e9,
        ips=(IPBlock("cpu", 1.0, 10e9), IPBlock("gpu", 4.0, 10e9)),
    )
    variant = CoordinationVariant(
        CoordinationModel((0.0, 1e-3), ops_per_item=1.0)
    )
    idle_host = Workload(fractions=(0.0, 1.0), intensities=(2.0, 2.0))
    host_only = Workload(fractions=(1.0, 0.0), intensities=(2.0, 2.0))
    scalars = [
        evaluate_variant(soc, workload, variant)
        for workload in (idle_host, host_only)
    ]
    assert scalars[0].ip_terms[0].limiter == "idle"
    assert scalars[0].ip_terms[0].perf_bound == 1000.0
    assert scalars[1].extra_times == {}
    fractions, intensities = _batch_grid(soc, [idle_host, host_only])
    batch = evaluate_variant_batch(
        soc, variant, fractions, intensities, engine=engine
    )
    assert [batch.result(i) for i in range(2)] == scalars


def test_record_mode_masks_invalid_rows_with_nan():
    soc = _two_ip_soc()
    spec = InterconnectSpec((Bus("bus0", 20e9),), ((0,), (0,)))
    fractions = np.array([
        [0.5, 0.5],
        [0.9, 0.9],  # invalid: fractions do not sum to 1
        [0.25, 0.75],
    ])
    intensities = np.full((3, 2), 4.0)
    batch = evaluate_variant_batch(
        soc, InterconnectVariant(spec), fractions, intensities,
        on_error="record",
    )
    assert len(batch.errors) == 1
    assert batch.errors[0].coords == (1,)
    assert math.isnan(batch.attainables[1])
    assert np.isnan(batch.extra_times_matrix[1]).all()
    for valid_row in (0, 2):
        scalar = evaluate_variant(
            soc,
            Workload(
                fractions=tuple(fractions[valid_row]),
                intensities=(4.0, 4.0),
            ),
            InterconnectVariant(spec),
        )
        assert batch.attainables[valid_row] == pytest.approx(
            scalar.attainable, rel=_REL
        )
        assert not np.isnan(batch.extra_times_matrix[valid_row]).any()
