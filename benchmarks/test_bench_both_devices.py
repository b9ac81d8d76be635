"""Section IV's cross-device claim: findings hold on both chipsets.

The paper: "We conduct our evaluation on two commercially available
Qualcomm SoCs, the Snapdragon 835 and the Snapdragon 821 ... Our
findings hold true for both systems."  This bench regenerates the
Section IV findings on both simulated devices side by side.
"""

from __future__ import annotations

from repro.ert import acceleration_between, fit_roofline, run_sweep
from repro.sim import (
    run_mixing_sweep,
    simulated_snapdragon_821,
    simulated_snapdragon_835,
)


def test_findings_hold_on_both_devices(benchmark):
    def run():
        findings = {}
        for name, factory in (
            ("sd835", simulated_snapdragon_835),
            ("sd821", simulated_snapdragon_821),
        ):
            platform = factory()
            cpu = fit_roofline(run_sweep(platform, "CPU"))
            gpu = fit_roofline(run_sweep(platform, "GPU"))
            mixing = run_mixing_sweep(platform)
            findings[name] = {
                "acceleration": acceleration_between(cpu, gpu),
                "peak_mixing": mixing.peak_speedup().normalized,
                "low_i_worst": min(
                    point.normalized for point in mixing.line(1)
                ),
            }
        return findings

    findings = benchmark(run)
    for name, device in findings.items():
        # Order-of-magnitude GPU acceleration on both.
        assert 20 < device["acceleration"] < 60, name
        # Big high-intensity offload win on both.
        assert device["peak_mixing"] > 25, name
        # Low-intensity offload slowdown on both.
        assert device["low_i_worst"] < 0.5, name
    # The newer chip is faster in every summary number.
    assert findings["sd835"]["acceleration"] > \
        findings["sd821"]["acceleration"]
    assert findings["sd835"]["peak_mixing"] > \
        findings["sd821"]["peak_mixing"]


def test_generational_roofline_improvement(benchmark):
    """Fig. 7/9 re-measured on the older device: every ceiling is
    lower, every shape identical."""

    def run():
        new = {
            engine: fit_roofline(
                run_sweep(simulated_snapdragon_835(), engine)
            )
            for engine in ("CPU", "GPU", "DSP")
        }
        old = {
            engine: fit_roofline(
                run_sweep(simulated_snapdragon_821(), engine)
            )
            for engine in ("CPU", "GPU", "DSP")
        }
        return new, old

    new, old = benchmark(run)
    for engine in ("CPU", "GPU", "DSP"):
        assert new[engine].peak_gflops > old[engine].peak_gflops
        assert new[engine].dram_bandwidth > old[engine].dram_bandwidth
        # Shape: both generations keep a finite ridge point.
        assert 0 < old[engine].ridge_point < 100
