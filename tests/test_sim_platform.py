"""Unit tests for the simulated SoC platform: calibration, contention,
thermal behaviour (paper Section IV methodology)."""

from __future__ import annotations

import pytest

from repro.errors import SpecError
from repro.sim import (
    ConcurrentJob,
    KernelSpec,
    ThermalSpec,
    contention_efficiency,
    max_min_fair,
    simulated_snapdragon_835,
    weighted_fair,
)
from repro.units import GIGA

BIG = 32 * 1024 * 1024  # DRAM-resident element count


class TestMaxMinFair:
    def test_docstring_example(self):
        assert max_min_fair(10, [2, 5, 9]) == [2.0, 4.0, 4.0]

    def test_all_fit(self):
        assert max_min_fair(100, [10, 20]) == [10.0, 20.0]

    def test_equal_split_when_all_greedy(self):
        assert max_min_fair(30, [100, 100, 100]) == [10.0, 10.0, 10.0]

    def test_zero_demand_gets_zero(self):
        assert max_min_fair(10, [0, 5]) == [0.0, 5.0]

    def test_conservation(self):
        demands = [3.0, 7.0, 11.0, 2.0]
        allocations = max_min_fair(12, demands)
        assert sum(allocations) == pytest.approx(12)
        for demand, allocation in zip(demands, allocations):
            assert allocation <= demand + 1e-9

    def test_weighted_prefers_heavy_flow(self):
        allocations = weighted_fair(10, [100, 100], [3, 1])
        assert allocations[0] == pytest.approx(7.5)
        assert allocations[1] == pytest.approx(2.5)

    def test_weighted_modest_flow_satisfied_first(self):
        allocations = weighted_fair(10, [1, 100], [1, 1])
        assert allocations == [1.0, 9.0]

    def test_contention_efficiency_monotone(self):
        values = [contention_efficiency(n) for n in range(1, 8)]
        assert values[0] == 1.0
        assert values == sorted(values, reverse=True)
        assert min(values) >= 0.7


class TestWeightedFairProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    demand = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    weight = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)

    @given(st.lists(st.tuples(demand, weight), min_size=1, max_size=6),
           st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_demand_caps(self, flows, capacity):
        demands = [d for d, _ in flows]
        weights = [w for _, w in flows]
        allocations = weighted_fair(capacity, demands, weights)
        assert sum(allocations) <= min(capacity, sum(demands)) + 1e-6
        for allocation, d in zip(allocations, demands):
            assert -1e-9 <= allocation <= d + 1e-9

    @given(st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_equal_weights_match_max_min(self, capacity):
        demands = [3.0, 7.0, 11.0, 2.0]
        weighted = weighted_fair(capacity, demands, [1.0] * 4)
        plain = max_min_fair(capacity, demands)
        for a, b in zip(weighted, plain):
            assert a == pytest.approx(b, abs=1e-9)

    @given(st.floats(min_value=1.5, max_value=8.0))
    @settings(max_examples=30, deadline=None)
    def test_heavier_weight_never_gets_less(self, factor):
        """With equal greedy demands, the heavier flow's share is
        monotone in its weight."""
        capacity = 10.0
        base = weighted_fair(capacity, [100.0, 100.0], [1.0, 1.0])
        boosted = weighted_fair(capacity, [100.0, 100.0], [factor, 1.0])
        assert boosted[0] >= base[0] - 1e-9


class TestCalibration:
    """Every number the paper publishes, reproduced by the simulator."""

    def test_cpu_scalar_peak(self, platform):
        result = platform.run_kernel(
            "CPU", KernelSpec(elements=BIG).with_intensity(1024)
        )
        assert result.gflops == pytest.approx(7.5, rel=1e-3)

    def test_cpu_neon_peak_above_40(self, platform):
        result = platform.run_kernel(
            "CPU", KernelSpec(elements=BIG, simd=True).with_intensity(1024)
        )
        assert result.gflops > 40

    def test_cpu_dram_read_write(self, platform):
        result = platform.run_kernel(
            "CPU", KernelSpec(elements=BIG).with_intensity(0.125)
        )
        assert result.attained_bandwidth == pytest.approx(15.1e9, rel=0.02)

    def test_cpu_dram_read_only_near_20(self, platform):
        result = platform.run_kernel(
            "CPU",
            KernelSpec(elements=BIG, variant="read_only").with_intensity(0.125),
        )
        assert result.attained_bandwidth == pytest.approx(20e9, rel=0.03)

    def test_gpu_peak(self, platform):
        result = platform.run_kernel(
            "GPU", KernelSpec(elements=BIG, variant="stream").with_intensity(1024)
        )
        assert result.gflops == pytest.approx(349.6, rel=1e-3)

    def test_gpu_dram_bandwidth(self, platform):
        result = platform.run_kernel(
            "GPU",
            KernelSpec(elements=BIG, variant="stream").with_intensity(0.125),
        )
        assert result.attained_bandwidth == pytest.approx(24.4e9, rel=0.02)

    def test_dsp_scalar_peak(self, platform):
        result = platform.run_kernel(
            "DSP", KernelSpec(elements=BIG).with_intensity(1024)
        )
        assert result.gflops == pytest.approx(3.0, rel=1e-3)

    def test_dsp_dram_bandwidth(self, platform):
        result = platform.run_kernel(
            "DSP", KernelSpec(elements=BIG).with_intensity(0.125)
        )
        assert result.attained_bandwidth == pytest.approx(5.4e9, rel=0.02)

    def test_cache_bump_at_small_footprints(self, platform):
        """The paper: smaller arrays see higher bandwidth from L1/L2."""
        small = platform.run_kernel(
            "CPU", KernelSpec(elements=64 * 1024).with_intensity(0.125)
        )
        big = platform.run_kernel(
            "CPU", KernelSpec(elements=BIG).with_intensity(0.125)
        )
        assert small.attained_bandwidth > 2 * big.attained_bandwidth
        assert small.service_level in ("L1", "L2")
        assert big.service_level == "DRAM"

    def test_unknown_engine_rejected(self, platform):
        with pytest.raises(SpecError):
            platform.run_kernel("NPU", KernelSpec(elements=BIG))


class TestConcurrentRuns:
    def test_single_job_matches_run_kernel(self, platform):
        kernel = KernelSpec(elements=BIG).with_intensity(16)
        solo = platform.run_kernel("CPU", kernel)
        concurrent = platform.run_concurrent(
            [ConcurrentJob("CPU", kernel, 10 * GIGA)]
        )
        assert concurrent.aggregate_gflops == pytest.approx(
            solo.gflops, rel=1e-6
        )

    def test_contention_slows_low_intensity_pair(self, platform):
        kernel = KernelSpec(elements=BIG).with_intensity(0.5)
        solo_cpu = platform.run_kernel("CPU", kernel).gflops
        pair = platform.run_concurrent([
            ConcurrentJob("CPU", kernel, 5 * GIGA),
            ConcurrentJob("GPU",
                          KernelSpec(elements=BIG,
                                     variant="stream").with_intensity(0.5),
                          5 * GIGA),
        ])
        # Aggregate exceeds one engine but is below the no-contention sum.
        solo_gpu = platform.run_kernel(
            "GPU",
            KernelSpec(elements=BIG, variant="stream").with_intensity(0.5),
        ).gflops
        assert pair.aggregate_gflops < solo_cpu + solo_gpu

    def test_freed_bandwidth_reallocated(self, platform):
        """When the GPU share finishes, the CPU speeds up; total time is
        below the static-allocation prediction."""
        intensity = 0.5
        cpu_kernel = KernelSpec(elements=BIG).with_intensity(intensity)
        gpu_kernel = KernelSpec(elements=BIG,
                                variant="stream").with_intensity(intensity)
        result = platform.run_concurrent([
            ConcurrentJob("CPU", cpu_kernel, 20 * GIGA),
            ConcurrentJob("GPU", gpu_kernel, 1 * GIGA),  # finishes early
        ])
        assert result.job_runtimes["GPU"] < result.job_runtimes["CPU"]
        assert result.total_runtime_s == pytest.approx(
            result.job_runtimes["CPU"]
        )

    def test_duplicate_engines_rejected(self, platform):
        kernel = KernelSpec(elements=BIG)
        with pytest.raises(SpecError):
            platform.run_concurrent([
                ConcurrentJob("CPU", kernel, 1e9),
                ConcurrentJob("CPU", kernel, 1e9),
            ])

    def test_empty_jobs_rejected(self, platform):
        with pytest.raises(SpecError):
            platform.run_concurrent([])

    def test_cache_resident_job_avoids_contention(self, platform):
        """A small-footprint CPU job shouldn't be slowed by GPU traffic."""
        small = KernelSpec(elements=64 * 1024).with_intensity(0.5)
        gpu_kernel = KernelSpec(elements=BIG,
                                variant="stream").with_intensity(0.25)
        solo = platform.run_concurrent(
            [ConcurrentJob("CPU", small, 5 * GIGA)]
        ).job_runtimes["CPU"]
        shared = platform.run_concurrent([
            ConcurrentJob("CPU", small, 5 * GIGA),
            ConcurrentJob("GPU", gpu_kernel, 5 * GIGA),
        ]).job_runtimes["CPU"]
        assert shared == pytest.approx(solo, rel=1e-6)


class TestThermal:
    def test_controlled_mode_is_deterministic(self):
        p1 = simulated_snapdragon_835()
        p2 = simulated_snapdragon_835()
        for _ in range(3):
            r1 = p1.run_kernel("GPU",
                               KernelSpec(elements=BIG,
                                          variant="stream").with_intensity(1024))
            r2 = p2.run_kernel("GPU",
                               KernelSpec(elements=BIG,
                                          variant="stream").with_intensity(1024))
            assert r1.gflops == r2.gflops
            assert r1.throttle_factor == 1.0

    def test_uncontrolled_mode_throttles_hot_runs(self):
        """The paper: without the thermal chamber, sustained FP work
        overheats and performance varies run to run."""
        platform = simulated_snapdragon_835(thermally_controlled=False)
        kernel = KernelSpec(elements=BIG, trials=64,
                            variant="stream").with_intensity(1024)
        first = platform.run_kernel("GPU", kernel)
        # Heat the die with long runs, then measure again.
        for _ in range(5):
            platform.run_kernel("GPU", kernel)
        later = platform.run_kernel("GPU", kernel)
        assert later.gflops <= first.gflops
        assert later.throttle_factor < 1.0

    def test_thermal_spec_sustainable_watts(self):
        spec = ThermalSpec(ambient_c=25, limit_c=75, resistance_c_per_w=12.5)
        assert spec.sustainable_watts == pytest.approx(4.0)

    def test_limit_must_exceed_ambient(self):
        with pytest.raises(SpecError):
            ThermalSpec(ambient_c=80, limit_c=75)

    def test_reset_cools_die(self):
        platform = simulated_snapdragon_835(thermally_controlled=False)
        kernel = KernelSpec(elements=BIG, trials=64,
                            variant="stream").with_intensity(1024)
        for _ in range(5):
            platform.run_kernel("GPU", kernel)
        hot = platform.thermal.temperature_c
        platform.thermal.reset()
        assert platform.thermal.temperature_c < hot
