"""Unit tests for the simulated compute engines and kernels."""

from __future__ import annotations

import pytest

from repro.errors import SpecError
from repro.sim import ComputeEngine, KernelSpec, MemoryHierarchy, MemoryLevel
from repro.units import GIGA, MIB


@pytest.fixture()
def engine():
    return ComputeEngine(
        name="cpu",
        scalar_flops=7.5 * GIGA,
        simd_multiplier=5.6,
        parallel_lanes=8,
        hierarchy=MemoryHierarchy(
            levels=(MemoryLevel("L2", 2 * MIB, 40 * GIGA),),
            dram_read_bandwidth=20 * GIGA,
            write_penalty=0.6064,
        ),
        min_elements_per_lane=512,
    )


class TestKernelSpec:
    def test_intensity_from_flops_per_element(self):
        kernel = KernelSpec(elements=1024, flops_per_element=16)
        assert kernel.intensity == 2.0  # 16 flops / 8 bytes

    def test_with_intensity_round_trips(self):
        kernel = KernelSpec(elements=1024).with_intensity(64.0)
        assert kernel.intensity == 64.0
        assert kernel.flops_per_element == 512.0

    def test_read_only_variant_halves_bytes(self):
        inplace = KernelSpec(elements=1024, flops_per_element=8)
        read_only = KernelSpec(elements=1024, flops_per_element=8,
                               variant="read_only")
        assert read_only.intensity == 2 * inplace.intensity
        assert read_only.write_fraction == 0.0

    def test_stream_variant_doubles_footprint(self):
        inplace = KernelSpec(elements=1024)
        stream = KernelSpec(elements=1024, variant="stream")
        assert stream.footprint_bytes == 2 * inplace.footprint_bytes

    def test_totals_scale_with_trials(self):
        kernel = KernelSpec(elements=100, trials=7, flops_per_element=4)
        assert kernel.total_flops == 100 * 7 * 4
        assert kernel.total_bytes == 100 * 7 * 8

    def test_unknown_variant_rejected(self):
        with pytest.raises(SpecError):
            KernelSpec(elements=10, variant="gather")

    def test_intensity_sweep_builder(self):
        kernels = KernelSpec.intensity_sweep(1024, (1, 4, 16))
        assert [k.intensity for k in kernels] == [1, 4, 16]

    @pytest.mark.parametrize("bad", [0, -5])
    def test_bad_elements_rejected(self, bad):
        with pytest.raises(SpecError):
            KernelSpec(elements=bad)


class TestEngine:
    def test_peak_with_and_without_simd(self, engine):
        assert engine.peak_flops(simd=False) == 7.5 * GIGA
        assert engine.peak_flops(simd=True) == pytest.approx(42 * GIGA)

    def test_compute_bound_at_high_intensity(self, engine):
        rate = engine.attained_flops(elements=8 * 1024 * 1024,
                                     flops_per_byte=1024)
        assert rate == pytest.approx(7.5 * GIGA)

    def test_bandwidth_bound_at_low_intensity(self, engine):
        rate = engine.attained_flops(elements=32 * 1024 * 1024,
                                     flops_per_byte=0.125)
        dram = engine.hierarchy.streaming_bandwidth(128 * MIB, 0.5)
        assert rate == pytest.approx(dram * 0.125)

    def test_cache_resident_gets_cache_bandwidth(self, engine):
        small = engine.attained_flops(elements=64 * 1024,  # 256 KiB
                                      flops_per_byte=0.125)
        assert small == pytest.approx(40 * GIGA * 0.125)

    def test_bandwidth_cap_applies(self, engine):
        capped = engine.attained_flops(
            elements=32 * 1024 * 1024, flops_per_byte=0.125,
            bandwidth_cap=5 * GIGA,
        )
        assert capped == pytest.approx(5 * GIGA * 0.125)

    def test_small_problem_underutilizes_lanes(self, engine):
        tiny = engine.attained_flops(elements=1024, flops_per_byte=1024)
        assert tiny == pytest.approx(7.5 * GIGA * 1024 / (8 * 512))

    def test_utilization_saturates(self, engine):
        assert engine.utilization(8 * 512) == 1.0
        assert engine.utilization(10**9) == 1.0
        assert engine.utilization(2048) == 0.5

    def test_write_fraction_override(self, engine):
        read_only = engine.attained_flops(
            elements=32 * 1024 * 1024, flops_per_byte=0.125,
            write_fraction=0.0,
        )
        mixed = engine.attained_flops(
            elements=32 * 1024 * 1024, flops_per_byte=0.125,
            write_fraction=0.5,
        )
        assert read_only > mixed

    def test_non_float_engine_rejects_kernel(self):
        hvx = ComputeEngine(
            name="hvx",
            scalar_flops=1 * GIGA,
            hierarchy=MemoryHierarchy(levels=(),
                                      dram_read_bandwidth=10 * GIGA),
            supports_float=False,
        )
        with pytest.raises(SpecError, match="floating-point"):
            hvx.attained_flops(1024, 1.0)

    def test_dram_resident_threshold(self, engine):
        assert not engine.dram_resident(1 * MIB)
        assert engine.dram_resident(16 * MIB)

    def test_simd_multiplier_below_one_rejected(self, engine):
        with pytest.raises(SpecError):
            ComputeEngine(
                name="bad", scalar_flops=1e9,
                hierarchy=engine.hierarchy, simd_multiplier=0.5,
            )

    def test_demand_bytes_consistent(self, engine):
        demand = engine.demand_bytes_per_second(32 * 1024 * 1024, 2.0)
        rate = engine.attained_flops(32 * 1024 * 1024, 2.0)
        assert demand == pytest.approx(rate / 2.0)
