"""Integration tests: full cross-module pipelines.

Each test exercises a realistic end-to-end workflow a user of the
library would run, spanning at least three subpackages.
"""

from __future__ import annotations

import xml.dom.minidom

import pytest

from repro.core import (
    InterconnectVariant,
    MemorySideVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.core.extensions import MemorySideCache
from repro.explore import (
    UsecaseRequirement,
    minimum_sufficient_bandwidth,
    rank_socs,
    sensitivity,
)
from repro.units import GIGA


class TestMeasureThenModel:
    """The paper's own workflow: measure rooflines empirically
    (Section IV), then feed them into Gables (Section III)."""

    def test_measured_parameters_build_a_valid_soc(self, cpu_fit, gpu_fit,
                                                   dsp_fit):
        from repro.core import IPBlock
        from repro.ert import acceleration_between

        soc = SoCSpec(
            peak_perf=cpu_fit.peak_gflops * 1e9,
            memory_bandwidth=30e9,  # the stated theoretical peak
            ips=(
                IPBlock("CPU", 1.0, cpu_fit.dram_bandwidth),
                IPBlock("GPU", acceleration_between(cpu_fit, gpu_fit),
                        gpu_fit.dram_bandwidth),
                IPBlock("DSP", acceleration_between(cpu_fit, dsp_fit),
                        dsp_fit.dram_bandwidth),
            ),
            name="measured-sd835",
        )
        # The high-reuse offload story from the measured chip.
        good = evaluate(soc, Workload(fractions=(0.1, 0.9, 0.0),
                                      intensities=(64, 64, 1)))
        bad = evaluate(soc, Workload(fractions=(0.1, 0.9, 0.0),
                                     intensities=(64, 0.05, 1)))
        assert good.attainable > 10 * bad.attainable
        assert bad.bottleneck in ("GPU", "memory")

    def test_model_predicts_simulator_mixing_direction(self, platform,
                                                       cpu_fit, gpu_fit,
                                                       mixing_sweep):
        """Gables (analytic) and the simulator (behavioural) agree on
        who wins at high intensity and the rough factor."""
        from repro.core import IPBlock
        from repro.ert import acceleration_between

        soc = SoCSpec(
            peak_perf=cpu_fit.peak_gflops * 1e9,
            memory_bandwidth=28e9,
            ips=(
                IPBlock("CPU", 1.0, cpu_fit.dram_bandwidth),
                IPBlock("GPU", acceleration_between(cpu_fit, gpu_fit),
                        gpu_fit.dram_bandwidth),
            ),
        )
        baseline = evaluate(
            soc, Workload.two_ip(f=0.0, i0=1, i1=1)
        ).attainable
        offloaded = evaluate(
            soc, Workload.two_ip(f=1.0, i0=1024, i1=1024)
        ).attainable
        analytic_speedup = offloaded / baseline
        measured_speedup = mixing_sweep.peak_speedup().normalized
        # Gables is an upper bound: the simulator (with coordination
        # overhead) lands below it but within ~25%.
        assert measured_speedup <= analytic_speedup * (1 + 1e-9)
        assert measured_speedup > 0.75 * analytic_speedup


class TestGablesUpperBoundsSimulator:
    def test_analytic_bound_dominates_every_mixing_cell(self, cpu_fit,
                                                        gpu_fit,
                                                        mixing_sweep):
        """Gables is an *upper bound*: with the ERT-measured hardware
        parameters, the analytic answer must dominate the behavioural
        simulator at every (f, I) cell of the Fig. 8 grid."""
        from repro.core import IPBlock
        from repro.ert import acceleration_between

        soc = SoCSpec(
            peak_perf=cpu_fit.peak_gflops * 1e9,
            memory_bandwidth=30e9,
            ips=(
                IPBlock("CPU", 1.0, cpu_fit.dram_bandwidth),
                IPBlock("GPU", acceleration_between(cpu_fit, gpu_fit),
                        gpu_fit.dram_bandwidth),
            ),
        )
        for point in mixing_sweep.points:
            workload = Workload.two_ip(
                f=point.fraction, i0=point.intensity, i1=point.intensity
            )
            analytic = evaluate(soc, workload).attainable
            measured = point.gflops * 1e9
            assert measured <= analytic * (1 + 0.02), (
                point.fraction, point.intensity
            )

    def test_effective_acceleration_explains_the_gap(self, cpu_fit,
                                                     gpu_fit,
                                                     mixing_sweep):
        """At f=1, I=1024 the simulator attains ~84% of the analytic
        bound.  The simulator's mechanism — 1516 non-useful dispatch
        ops per 8192-useful-op element, issued on the offloaded engine
        — is analytically an *effective acceleration* derate
        ``A_eff = A1 * useful / (useful + overhead)``; plugging it into
        plain Gables reproduces the simulator's cell exactly."""
        from repro.core import IPBlock
        from repro.ert import acceleration_between

        a1 = acceleration_between(cpu_fit, gpu_fit)
        useful, overhead = 8192.0, 1516.0
        a_eff = a1 * useful / (useful + overhead)
        soc = SoCSpec(
            peak_perf=cpu_fit.peak_gflops * 1e9,
            memory_bandwidth=30e9,
            ips=(
                IPBlock("CPU", 1.0, cpu_fit.dram_bandwidth),
                IPBlock("GPU", a_eff, gpu_fit.dram_bandwidth),
            ),
        )
        workload = Workload.two_ip(f=1.0, i0=1024, i1=1024)
        adjusted = evaluate(soc, workload).attainable
        cell = [
            p for p in mixing_sweep.points
            if p.fraction == 1.0 and p.intensity == 1024
        ][0]
        assert cell.gflops * 1e9 == pytest.approx(adjusted, rel=0.01)


class TestUsecasePortfolio:
    """Down-select SoCs for the Table I camera portfolio."""

    def test_rank_presets_for_camera_portfolio(self, generic_spec):
        from repro.usecases import USECASES

        # Build requirements on the generic SoC's IP set; candidates
        # must share IP names, so compare generic variants.
        weak = generic_spec.with_memory_bandwidth(5 * GIGA)
        weak = SoCSpec(
            peak_perf=weak.peak_perf,
            memory_bandwidth=weak.memory_bandwidth,
            ips=weak.ips,
            name="generic-lowmem",
        )
        # Realistic quality floors per usecase: HDR+ is shots/s, video
        # targets are frame rates, Lens is an interactive rate.
        target_rates = {
            "HDR+": 5.0,
            "Videocapture": 30.0,
            "Videocapture (HFR)": 120.0,
            "Videoplayback UI": 60.0,
            "Google Lens": 10.0,
        }
        requirements = []
        for name, factory in USECASES.items():
            dataflow = factory()
            workload = dataflow.to_workload(generic_spec.ip_names)
            requirements.append(
                UsecaseRequirement(
                    workload,
                    required=target_rates[name] * dataflow.total_ops_per_item(),
                    name=name,
                )
            )
        ranked = rank_socs([generic_spec, weak], requirements)
        assert ranked[0].soc_name == generic_spec.name
        assert not ranked[1].feasible
        assert "Videocapture (HFR)" in ranked[1].failing_usecases()

    def test_hfr_fix_via_memory_side_cache(self, generic_spec):
        """Section V-A's knob applied to the Section II-B problem: a
        memory-side SRAM that captures ISP reference traffic lifts the
        HFR ceiling."""
        from repro.usecases import video_capture_hfr

        dataflow = video_capture_hfr()
        workload = dataflow.to_workload(generic_spec.ip_names)
        base = evaluate(generic_spec, workload)
        assert base.bottleneck == "memory"
        isp_index = generic_spec.ip_index("ISP")
        ratios = [1.0] * generic_spec.n_ips
        ratios[isp_index] = 0.2  # SRAM captures the reference re-reads
        cached = evaluate_variant(
            generic_spec,
            workload,
            MemorySideVariant(MemorySideCache(tuple(ratios))),
        )
        base_rate = base.attainable / dataflow.total_ops_per_item()
        cached_rate = cached.attainable / dataflow.total_ops_per_item()
        assert cached_rate > base_rate

    def test_fabric_extension_finds_hidden_bottleneck(self,
                                                      generic_description,
                                                      generic_spec):
        """A usecase that looks memory-fine in base Gables can bind on
        the multimedia fabric once Section V-B models it."""
        from repro.usecases import video_capture_hfr

        workload = video_capture_hfr().to_workload(generic_spec.ip_names)
        interconnect = generic_description.interconnect_spec()
        # Shrink the multimedia fabric to provoke the effect.
        from repro.core.extensions import Bus, InterconnectSpec

        buses = tuple(
            Bus(bus.name, bus.bandwidth if bus.name != "multimedia"
                else 8 * GIGA)
            for bus in interconnect.buses
        )
        tight = InterconnectSpec(buses, interconnect.usage)
        result = evaluate_variant(
            generic_spec, workload, InterconnectVariant(tight)
        )
        assert result.bottleneck == "multimedia"


class TestModelToPlotPipeline:
    def test_json_to_svg_workflow(self, tmp_path):
        """Load a stored design, evaluate, sweep, and render — the CLI
        path exercised as a library."""
        from repro.core import FIGURE_6C
        from repro.explore import sweep_memory_bandwidth
        from repro.io import load, save
        from repro.viz import RooflinePlotData, line_chart_svg, roofline_svg

        soc_path = tmp_path / "soc.json"
        save(FIGURE_6C.soc(), soc_path)
        soc = load(soc_path)
        workload = FIGURE_6C.workload()

        sufficient = minimum_sufficient_bandwidth(soc, workload)
        series = sweep_memory_bandwidth(
            soc, workload, [sufficient * s for s in (0.5, 1.0, 2.0)]
        )
        chart = line_chart_svg(
            {"attainable": list(zip(series.values(), series.attainables()))},
            title="Bpeak sweep", x_label="Bpeak", y_label="ops/s",
        )
        plot = roofline_svg(RooflinePlotData.from_model(soc, workload))
        xml.dom.minidom.parseString(chart)
        xml.dom.minidom.parseString(plot)

    def test_sensitivity_guides_fix(self, fig6):
        """The elasticity report points at the Fig. 6c -> 6d repair."""
        soc, workload = fig6["c"].soc(), fig6["c"].workload()
        report = sensitivity(soc, workload)
        assert report.top_lever() == "B[1]"
        # Follow the lever: more GPU reuse (I1) instead of raw B1 is the
        # software-side equivalent, and it recovers the balance.
        improved = evaluate(
            soc, Workload.two_ip(f=0.75, i0=8, i1=8)
        )
        assert improved.attainable > evaluate(soc, workload).attainable * 50
