"""Unit tests for the three Section V extensions plus phases."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    InterconnectVariant,
    MemorySideVariant,
    PhasedVariant,
    SerializedVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.core.extensions import (
    Bus,
    InterconnectSpec,
    MemorySideCache,
    Phase,
    PhasedUsecase,
)
from repro.core.extensions.interconnect import bus_times
from repro.core.extensions.memory_side import miss_ratio_for_capacity
from repro.core.extensions.serialized import concurrency_benefit
from repro.errors import SpecError, WorkloadError
from repro.units import GIGA


@pytest.fixture()
def soc():
    """The Figure 6b SoC (memory-bound at f=0.75)."""
    return SoCSpec.two_ip(40 * GIGA, 10 * GIGA, 5, 6 * GIGA, 15 * GIGA,
                          cpu_name="CPU", acc_name="GPU")


@pytest.fixture()
def workload():
    return Workload.two_ip(f=0.75, i0=8, i1=0.1)


class TestMemorySide:
    def test_filtering_relieves_memory_bottleneck(self, soc, workload):
        base = evaluate(soc, workload)
        assert base.bottleneck == "memory"
        cached = evaluate_variant(
            soc, workload, MemorySideVariant(MemorySideCache.uniform(2, 0.1))
        )
        assert cached.attainable > base.attainable
        # The GPU's link (unfiltered) becomes the new bottleneck.
        assert cached.bottleneck == "GPU"

    def test_ip_link_times_unchanged(self, soc, workload):
        """The SRAM is memory-side: every reference still crosses Bi."""
        base = evaluate(soc, workload)
        cached = evaluate_variant(
            soc, workload, MemorySideVariant(MemorySideCache.uniform(2, 0.0))
        )
        for before, after in zip(base.ip_terms, cached.ip_terms):
            assert after.transfer_time == before.transfer_time
            assert after.time == before.time

    def test_perfect_capture_zeroes_memory_time(self, soc, workload):
        cached = evaluate_variant(
            soc, workload, MemorySideVariant(MemorySideCache.uniform(2, 0.0))
        )
        assert cached.memory_time == 0.0
        assert math.isinf(cached.memory_perf_bound)

    def test_per_ip_ratios(self, soc, workload):
        """Filtering only the GPU's traffic (the big consumer)."""
        cached = evaluate_variant(
            soc, workload, MemorySideVariant(MemorySideCache((1.0, 0.01)))
        )
        expected_bytes = 0.25 / 8 + 0.01 * (0.75 / 0.1)
        assert cached.memory_time == pytest.approx(
            expected_bytes / (10 * GIGA)
        )

    def test_mismatched_ip_count_rejected(self, soc, workload):
        with pytest.raises(WorkloadError):
            evaluate_variant(
                soc,
                workload,
                MemorySideVariant(MemorySideCache.uniform(3, 0.5)),
            )

    @pytest.mark.parametrize("ratio", [-0.1, 1.1, math.nan])
    def test_invalid_miss_ratio_rejected(self, ratio):
        with pytest.raises(SpecError):
            MemorySideCache((ratio,))

    def test_miss_ratio_estimator_fits(self):
        assert miss_ratio_for_capacity(1e6, 2e6) == 0.0  # fits entirely
        assert miss_ratio_for_capacity(4e6, 1e6) == pytest.approx(0.75)
        assert miss_ratio_for_capacity(4e6, 1e6, reuse_fraction=0.5) \
            == pytest.approx(0.875)

    def test_estimator_streaming_never_captured(self):
        assert miss_ratio_for_capacity(1e6, 1e9, reuse_fraction=0.0) == 1.0


class TestInterconnect:
    @pytest.fixture()
    def interconnect(self):
        return InterconnectSpec(
            buses=(Bus("hb-fabric", 20 * GIGA), Bus("mm-fabric", 5 * GIGA)),
            usage=((0,), (0, 1)),  # CPU on hb; GPU routed hb->mm
        )

    def test_bus_times_follow_equation_16(self, soc, workload, interconnect):
        times = bus_times(soc, workload, interconnect)
        cpu_bytes = 0.25 / 8
        gpu_bytes = 0.75 / 0.1
        assert times["hb-fabric"] == pytest.approx(
            (cpu_bytes + gpu_bytes) / (20 * GIGA)
        )
        assert times["mm-fabric"] == pytest.approx(gpu_bytes / (5 * GIGA))

    def test_slow_bus_becomes_bottleneck(self, soc, workload, interconnect):
        result = evaluate_variant(
            soc, workload, InterconnectVariant(interconnect)
        )
        # mm-fabric carries 7.5 bytes/unit at 5 GB/s -> 0.667 Gops/s,
        # below the base model's 1.33 memory bound.
        assert result.bottleneck == "mm-fabric"
        assert result.attainable == pytest.approx(5 * GIGA / 7.5)

    def test_fast_buses_reduce_to_base(self, soc, workload):
        wide = InterconnectSpec(
            buses=(Bus("wide", math.inf),), usage=((0,), (0,))
        )
        base = evaluate(soc, workload)
        with_buses = evaluate_variant(soc, workload, InterconnectVariant(wide))
        assert with_buses.attainable == pytest.approx(base.attainable)
        assert with_buses.bottleneck == base.bottleneck

    def test_bus_names_by_string(self, soc, workload):
        spec = InterconnectSpec(
            buses=(Bus("a", 1 * GIGA),), usage=(("a",), ("a",))
        )
        assert spec.uses(0, 0) and spec.uses(1, 0)

    def test_unknown_bus_name_rejected(self):
        with pytest.raises(SpecError):
            InterconnectSpec(buses=(Bus("a", 1e9),), usage=(("b",),))

    def test_bus_index_out_of_range_rejected(self):
        with pytest.raises(SpecError):
            InterconnectSpec(buses=(Bus("a", 1e9),), usage=((3,),))

    def test_duplicate_bus_names_rejected(self):
        with pytest.raises(SpecError):
            InterconnectSpec(
                buses=(Bus("a", 1e9), Bus("a", 2e9)), usage=((), ())
            )

    def test_name_collision_with_ip_rejected(self, soc, workload):
        colliding = InterconnectSpec(
            buses=(Bus("CPU", 1 * GIGA),), usage=((0,), (0,))
        )
        with pytest.raises(SpecError, match="collide"):
            evaluate_variant(soc, workload, InterconnectVariant(colliding))

    def test_usage_count_mismatch_rejected(self, soc, workload):
        spec = InterconnectSpec(buses=(Bus("a", 1e9),), usage=((0,),))
        with pytest.raises(WorkloadError):
            evaluate_variant(soc, workload, InterconnectVariant(spec))

    def test_from_fabric_graph(self, generic_description):
        spec = generic_description.interconnect_spec()
        names = [bus.name for bus in spec.buses]
        assert set(names) == {
            "high-bandwidth", "multimedia", "system", "peripheral"
        }
        # The USB sits behind peripheral -> system -> high-bandwidth.
        usb_index = generic_description.ip_names.index("USB")
        used = {names[j] for j in spec.usage[usb_index]}
        assert used == {"peripheral", "system", "high-bandwidth"}


class TestSerialized:
    def test_serialized_sums_times(self, soc):
        workload = Workload.two_ip(f=0.5, i0=8, i1=8)
        result = evaluate_variant(soc, workload, SerializedVariant())
        # CPU: max(0.5/80e9 [dram], 0.5/48e9 [link], 0.5/40e9 [compute])
        cpu_time = max(
            (0.5 / 8) / (10 * GIGA), (0.5 / 8) / (6 * GIGA), 0.5 / (40 * GIGA)
        )
        gpu_time = max(
            (0.5 / 8) / (10 * GIGA), (0.5 / 8) / (15 * GIGA),
            0.5 / (200 * GIGA),
        )
        assert result.attainable == pytest.approx(1.0 / (cpu_time + gpu_time))

    def test_serialized_includes_bpeak_term(self):
        """Equation 18's new Di/Bpeak term can dominate."""
        soc = SoCSpec.two_ip(100 * GIGA, 1 * GIGA, 1, 50 * GIGA, 50 * GIGA)
        workload = Workload.two_ip(f=0.5, i0=0.1, i1=0.1)
        result = evaluate_variant(soc, workload, SerializedVariant())
        for term in result.ip_terms:
            assert term.limiter == "memory"

    def test_concurrency_benefit_at_least_one(self, soc, workload):
        assert concurrency_benefit(soc, workload) >= 1.0

    def test_amdahl_limit_structure(self):
        """With data free, serialized Gables reduces to Amdahl's Law."""
        from repro.baselines import amdahl_speedup

        acceleration = 8.0
        soc = SoCSpec.two_ip(10 * GIGA, 1e30, acceleration, 1e30, 1e30)
        f = 0.6
        workload = Workload(fractions=(1 - f, f),
                            intensities=(math.inf, math.inf))
        serialized = evaluate_variant(soc, workload, SerializedVariant())
        baseline = 10 * GIGA  # all work on IP[0] at Ppeak
        speedup = serialized.attainable / baseline
        assert speedup == pytest.approx(amdahl_speedup(f, acceleration))

    def test_result_conventions(self, soc, workload):
        result = evaluate_variant(soc, workload, SerializedVariant())
        assert result.memory_time == 0.0
        assert math.isinf(result.memory_perf_bound)
        assert result.bottleneck in ("CPU", "GPU")


class TestPhases:
    def test_single_phase_equals_base(self, soc, workload):
        usecase = PhasedUsecase.single(workload)
        phased = evaluate_variant(soc, None, PhasedVariant(usecase))
        assert phased.attainable == pytest.approx(
            evaluate(soc, workload).attainable
        )

    def test_two_phase_serialization(self, soc):
        """One IP active per phase ~ serialized work without the
        Bpeak-vs-Bi distinction collapse."""
        phase_cpu = Phase(0.5, Workload.two_ip(f=0.0, i0=8, i1=8), "cpu")
        phase_gpu = Phase(0.5, Workload.two_ip(f=1.0, i0=8, i1=8), "gpu")
        result = evaluate_variant(
            soc, None, PhasedVariant(PhasedUsecase((phase_cpu, phase_gpu)))
        )
        t_cpu = 0.5 / evaluate(soc, phase_cpu.workload).attainable
        t_gpu = 0.5 / evaluate(soc, phase_gpu.workload).attainable
        assert result.attainable == pytest.approx(1.0 / (t_cpu + t_gpu))
        assert result.bottleneck_phase in ("cpu", "gpu")

    def test_phase_shares_sum_to_one(self, soc):
        shares_bad = (Phase(0.5, Workload.two_ip(0.5, 1, 1)),
                      Phase(0.6, Workload.two_ip(0.5, 1, 1)))
        with pytest.raises(WorkloadError):
            PhasedUsecase(shares_bad)

    def test_phase_work_positive(self):
        with pytest.raises(WorkloadError):
            Phase(0.0, Workload.two_ip(0.5, 1, 1))

    def test_mismatched_ip_counts_rejected(self):
        with pytest.raises(WorkloadError):
            PhasedUsecase((
                Phase(0.5, Workload.two_ip(0.5, 1, 1)),
                Phase(0.5, Workload(fractions=(1.0,), intensities=(1.0,))),
            ))

    def test_phase_share_report(self, soc):
        phases = (
            Phase(0.9, Workload.two_ip(0.0, 8, 8), "big"),
            Phase(0.1, Workload.two_ip(1.0, 8, 8), "small"),
        )
        result = evaluate_variant(
            soc, None, PhasedVariant(PhasedUsecase(phases))
        )
        shares = result.phase_share()
        assert shares["big"] + shares["small"] == pytest.approx(1.0)
        assert shares["big"] > shares["small"]

    def test_soc_mismatch_rejected(self, soc):
        usecase = PhasedUsecase.single(
            Workload(fractions=(1.0,), intensities=(1.0,))
        )
        with pytest.raises(WorkloadError):
            evaluate_variant(soc, None, PhasedVariant(usecase))
