"""Tests for the empirical roofline toolkit (sweep + fitting),
checked against the paper's Section IV measurements."""

from __future__ import annotations

import pytest

from repro.core import (
    BaseVariant,
    MemorySideVariant,
    PhasedVariant,
    SerializedVariant,
    Workload,
    evaluate,
)
from repro.core.extensions import MemorySideCache, Phase, PhasedUsecase
from repro.errors import FittingError
from repro.ert import (
    acceleration_between,
    fit_roofline,
    gables_parameter_table,
    measured_soc_spec,
    optimistic_roofline,
    pessimism_ratio,
    roofline_summary,
    run_sweep,
    sweep_table,
    variant_prediction_table,
)
from repro.units import format_ops


class TestFigure7CPU:
    def test_peak_is_7_5_gflops(self, cpu_fit):
        assert cpu_fit.peak_gflops == pytest.approx(7.5, rel=0.01)

    def test_dram_bandwidth_is_15_gbs(self, cpu_fit):
        """Paper Fig. 7a: DRAM - 15.1 GB/s (read+write kernel)."""
        assert cpu_fit.dram_bandwidth == pytest.approx(15.1e9, rel=0.03)

    def test_cache_levels_above_dram(self, cpu_fit):
        assert cpu_fit.cache_bandwidths
        for bandwidth in cpu_fit.cache_bandwidths.values():
            assert bandwidth > cpu_fit.dram_bandwidth

    def test_bandwidth_half_of_theoretical_peak(self, cpu_fit):
        """Paper: 'The bandwidth ... is only 50% of the peak. The stated
        theoretical peak bandwidth is 30 GB/s.'"""
        assert cpu_fit.dram_bandwidth / 30e9 == pytest.approx(0.5, abs=0.05)


class TestFigure7GPU:
    def test_peak_is_349_gflops(self, gpu_fit):
        assert gpu_fit.peak_gflops == pytest.approx(349.6, rel=0.01)

    def test_dram_bandwidth_is_24_gbs(self, gpu_fit):
        """Paper Fig. 7b: DRAM - 24.4 GB/s (higher than the CPU's, 'as
        one would expect')."""
        assert gpu_fit.dram_bandwidth == pytest.approx(24.4e9, rel=0.03)

    def test_gpu_bandwidth_exceeds_cpu(self, cpu_fit, gpu_fit):
        assert gpu_fit.dram_bandwidth > cpu_fit.dram_bandwidth

    def test_acceleration_46_6x(self, cpu_fit, gpu_fit):
        """Paper: A1 = 349.6 / 7.5 = 46.6 ~ 47x."""
        assert acceleration_between(cpu_fit, gpu_fit) == pytest.approx(
            46.6, rel=0.02
        )

    def test_measured_below_theoretical_567(self, gpu_fit):
        """Paper: theoretical 567 GFLOPS, attained 349.6 — the
        optimistic/pessimistic estimate gap."""
        spec = optimistic_roofline("GPU", 567, 30e9)
        ratios = pessimism_ratio(spec, gpu_fit)
        assert ratios["compute"] == pytest.approx(349.6 / 567, rel=0.02)


class TestFigure9DSP:
    def test_peak_is_3_gflops(self, dsp_fit):
        """Paper: 3.0 GFLOP/s, 'somewhat less than the maximum 3.6
        GFLOPS/s predicted for four threads by the spec'."""
        assert dsp_fit.peak_gflops == pytest.approx(3.0, rel=0.01)
        assert dsp_fit.peak_gflops < 3.6

    def test_dram_bandwidth_is_5_4_gbs(self, dsp_fit):
        assert dsp_fit.dram_bandwidth == pytest.approx(5.4e9, rel=0.03)

    def test_dsp_bandwidth_much_less_than_cpu_gpu(self, cpu_fit, gpu_fit,
                                                  dsp_fit):
        """Paper: 'much less than the CPU and GPU and likely due to
        using a different interconnect fabric'."""
        assert dsp_fit.dram_bandwidth < cpu_fit.dram_bandwidth / 2
        assert dsp_fit.dram_bandwidth < gpu_fit.dram_bandwidth / 2

    def test_dsp_acceleration_below_one(self, cpu_fit, dsp_fit):
        assert acceleration_between(cpu_fit, dsp_fit) < 1.0


class TestRooflineShape:
    def test_bandwidth_then_compute_regions(self, platform):
        """Attained GFLOP/s rises with intensity, then flattens."""
        sweep = run_sweep(platform, "CPU",
                          footprints=(256 * 1024 * 1024,))
        column = sorted(sweep.samples, key=lambda s: s.intensity)
        rates = [s.gflops for s in column]
        assert rates == sorted(rates)  # non-decreasing
        assert rates[-1] == pytest.approx(rates[-2], rel=1e-6)  # flat roof

    def test_cache_bump_in_sweep(self, platform):
        sweep = run_sweep(platform, "CPU", intensities=(0.125,))
        by_footprint = sorted(sweep.samples, key=lambda s: s.footprint_bytes)
        assert by_footprint[0].gflops > by_footprint[-1].gflops

    def test_fit_to_roofline_object(self, cpu_fit):
        roofline = cpu_fit.to_roofline()
        assert roofline.peak_perf == pytest.approx(7.5e9, rel=0.01)
        # Queried below the DRAM ridge with the DRAM ceiling in force.
        assert roofline.attainable_under(0.1) == pytest.approx(
            cpu_fit.dram_bandwidth * 0.1, rel=1e-6
        )

    def test_ridge_point_consistency(self, cpu_fit):
        assert cpu_fit.ridge_point == pytest.approx(
            cpu_fit.peak_gflops * 1e9 / cpu_fit.dram_bandwidth
        )


class TestFittingErrors:
    def test_cache_only_sweep_rejected(self, platform):
        sweep = run_sweep(platform, "CPU", footprints=(16 * 1024,))
        with pytest.raises(FittingError, match="DRAM"):
            fit_roofline(sweep)

    def test_bandwidth_only_sweep_gives_pessimistic_ceiling(self, platform):
        """With only low-intensity samples, the L1-bound plateau
        masquerades as the compute roof — the paper's caveat that a
        pessimistic estimate 'may be the ceiling', not the peak."""
        sweep = run_sweep(platform, "CPU", intensities=(0.01,))
        fitted = fit_roofline(sweep)
        assert fitted.peak_gflops < 7.5 * 0.5  # far below the true peak

    def test_single_sample_sweep_rejected(self, platform):
        """One sample is its own 'roof', leaving no bandwidth-bound
        points to estimate DRAM from — fitting refuses."""
        sweep = run_sweep(
            platform, "CPU", intensities=(0.01,),
            footprints=(256 * 1024 * 1024,),
        )
        with pytest.raises(FittingError, match="bandwidth-bound"):
            fit_roofline(sweep)

    def test_bad_spec_values_rejected(self):
        with pytest.raises(FittingError):
            optimistic_roofline("x", 0, 10e9)


class TestReports:
    def test_roofline_summary_format(self, cpu_fit):
        text = roofline_summary(cpu_fit)
        assert "7.5 GFLOP/s (Maximum)" in text
        assert "DRAM" in text
        assert "ridge point" in text

    def test_sweep_table_contains_samples(self, platform):
        sweep = run_sweep(platform, "DSP", intensities=(1.0,),
                          footprints=(1024 * 1024,))
        text = sweep_table(sweep)
        assert "engine=DSP" in text
        assert "footprint" in text

    def test_sweep_table_truncation(self, platform):
        sweep = run_sweep(platform, "DSP")
        text = sweep_table(sweep, max_rows=5)
        assert "more)" in text

    def test_parameter_table(self, cpu_fit, gpu_fit, dsp_fit):
        text = gables_parameter_table(cpu_fit, [gpu_fit, dsp_fit])
        assert "46.6" in text
        assert "GPU" in text and "DSP" in text


class TestMeasuredSoC:
    """The Section IV hand-off: fitted engines become a model SoC."""

    def test_measured_soc_spec_takes_the_fitted_parameters(
        self, cpu_fit, gpu_fit, dsp_fit
    ):
        spec = measured_soc_spec(cpu_fit, (gpu_fit, dsp_fit))
        assert spec.ip_names == ("CPU", "GPU", "DSP")
        assert spec.peak_perf == cpu_fit.peak_gflops * 1e9
        assert spec.ips[0].acceleration == 1.0
        assert spec.ips[1].acceleration == acceleration_between(
            cpu_fit, gpu_fit
        )
        assert spec.ips[1].acceleration == pytest.approx(46.6, rel=0.01)
        assert spec.ips[2].acceleration == acceleration_between(
            cpu_fit, dsp_fit
        )
        assert [ip.bandwidth for ip in spec.ips] == [
            fit.dram_bandwidth for fit in (cpu_fit, gpu_fit, dsp_fit)
        ]
        assert spec.memory_bandwidth == max(
            fit.dram_bandwidth for fit in (cpu_fit, gpu_fit, dsp_fit)
        )

    def test_variant_prediction_table_has_one_row_per_variant(
        self, cpu_fit, gpu_fit, dsp_fit
    ):
        spec = measured_soc_spec(cpu_fit, (gpu_fit, dsp_fit))
        workload = Workload((0.2, 0.7, 0.1), (8.0, 32.0, 2.0))
        phased = PhasedUsecase((
            Phase(0.5, Workload((1.0, 0.0, 0.0), (8.0, 1.0, 1.0)), "cpu"),
            Phase(0.5, Workload((0.0, 1.0, 0.0), (1.0, 32.0, 1.0)), "gpu"),
        ))
        variants = (
            BaseVariant(),
            SerializedVariant(),
            MemorySideVariant(MemorySideCache((0.5, 0.5, 0.5))),
            PhasedVariant(phased),
        )
        rows = variant_prediction_table(spec, workload, variants).splitlines()
        assert len(rows) == 1 + len(variants)
        assert [row.split()[0] for row in rows[1:]] == [
            variant.kind for variant in variants
        ]
        base = evaluate(spec, workload)
        assert format_ops(base.attainable) in rows[1]
        assert rows[1].split()[-1] == base.bottleneck
        assert rows[4].split()[-1] in ("cpu", "gpu")
        assert not any("ops/sops/s" in row for row in rows)
        assert all(row.count("ops/s") == 1 for row in rows[1:])
