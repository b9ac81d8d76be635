"""Per-experiment report generators: the paper's tables and figures.

Each function regenerates one paper artifact as text — the same rows
or series the paper reports, with the published values alongside for
comparison.  The CLI (``gables report <exp>``) and the benchmark
harness both call these, so "what the reproduction produces" has a
single definition.
"""

from __future__ import annotations


from .core import FIGURE_6_SEQUENCE, FIGURE_6_EXPECTED_GOPS, evaluate
from .errors import ReproError
from .obs.metrics import counter as _counter
from .obs.trace import span as _span
from .resilience.partial import check_on_error, degraded_banner, record_failure
from .units import GIGA

#: Paper-published targets for the Section IV measurements.
PAPER_FIG7_CPU = {"peak_gflops": 7.5, "dram_gbs": 15.1}
PAPER_FIG7_GPU = {"peak_gflops": 349.6, "dram_gbs": 24.4}
PAPER_FIG9_DSP = {"peak_gflops": 3.0, "dram_gbs": 5.4}
PAPER_FIG8_PEAK_SPEEDUP = 39.4
PAPER_GPU_ACCELERATION = 46.6


def report_fig6() -> str:
    """Figure 6a-6d: the two-IP walkthrough vs the appendix numbers."""
    lines = ["Figure 6: two-IP Gables walkthrough (paper appendix numbers)"]
    lines.append(f"{'step':>6} {'paper Gops/s':>14} {'model Gops/s':>14} "
                 f"{'bottleneck':>12} {'balanced':>9}")
    for scenario in FIGURE_6_SEQUENCE:
        result = evaluate(scenario.soc(), scenario.workload())
        expected = FIGURE_6_EXPECTED_GOPS[scenario.name]
        lines.append(
            f"{scenario.name:>6} {expected:>14.4g} "
            f"{result.attainable / GIGA:>14.4g} "
            f"{result.bottleneck:>12} {str(result.is_balanced()):>9}"
        )
    return "\n".join(lines)


def report_fig7() -> str:
    """Figure 7: empirical CPU and GPU rooflines on the simulated SoC."""
    from .ert import acceleration_between, fit_roofline, run_sweep
    from .sim import simulated_snapdragon_835

    platform = simulated_snapdragon_835()
    cpu = fit_roofline(run_sweep(platform, "CPU"))
    gpu = fit_roofline(run_sweep(platform, "GPU"))
    lines = ["Figure 7: empirical rooflines (simulated Snapdragon 835)"]
    lines.append(f"{'engine':>7} {'paper peak':>11} {'meas peak':>10} "
                 f"{'paper BW':>9} {'meas BW':>8}")
    for fitted, paper in ((cpu, PAPER_FIG7_CPU), (gpu, PAPER_FIG7_GPU)):
        lines.append(
            f"{fitted.engine:>7} {paper['peak_gflops']:>11.4g} "
            f"{fitted.peak_gflops:>10.4g} {paper['dram_gbs']:>9.4g} "
            f"{fitted.dram_bandwidth / GIGA:>8.4g}"
        )
    lines.append(
        f"GPU acceleration A1 = {acceleration_between(cpu, gpu):.1f}x "
        f"(paper: {PAPER_GPU_ACCELERATION}x ~ 47x)"
    )
    return "\n".join(lines)


def report_fig8() -> str:
    """Figure 8: normalized performance vs offload fraction."""
    from .sim import run_mixing_sweep, simulated_snapdragon_835

    sweep = run_mixing_sweep(simulated_snapdragon_835())
    lines = ["Figure 8: CPU+GPU mixing (normalized to CPU-only at I=1)"]
    fractions = sorted({p.fraction for p in sweep.points})
    header = "I \\ f  " + " ".join(f"{f:>7.3f}" for f in fractions)
    lines.append(header)
    for intensity in sweep.intensities():
        row = [f"{intensity:>6g}"]
        for point in sweep.line(intensity):
            row.append(f"{point.normalized:>7.2f}")
        lines.append(" ".join(row))
    peak = sweep.peak_speedup()
    lines.append(
        f"peak speedup {peak.normalized:.1f}x at f={peak.fraction:g}, "
        f"I={peak.intensity:g} (paper: {PAPER_FIG8_PEAK_SPEEDUP}x at I=1024)"
    )
    return "\n".join(lines)


def report_fig9() -> str:
    """Figure 9: the Hexagon DSP scalar-unit roofline."""
    from .ert import fit_roofline, run_sweep
    from .sim import simulated_snapdragon_835

    fitted = fit_roofline(run_sweep(simulated_snapdragon_835(), "DSP"))
    lines = ["Figure 9: DSP scalar roofline (simulated Hexagon 682)"]
    lines.append(
        f"paper: {PAPER_FIG9_DSP['peak_gflops']} GFLOP/s, "
        f"DRAM {PAPER_FIG9_DSP['dram_gbs']} GB/s "
        "(text: fabric-limited ~12.5 GB/s)"
    )
    lines.append(
        f"measured: {fitted.peak_gflops:.4g} GFLOP/s, "
        f"DRAM {fitted.dram_bandwidth / GIGA:.4g} GB/s"
    )
    return "\n".join(lines)


def report_fig2() -> str:
    """Figure 2: SoC market growth and on-die heterogeneity."""
    from .market import generate_market_dataset, ip_count_by_generation

    dataset = generate_market_dataset()
    by_year = dataset.introductions_by_year()
    lines = ["Figure 2a: new SoC chipsets per year (synthetic dataset)"]
    lines.append("year   " + " ".join(f"{y}" for y in by_year))
    lines.append("count  " + " ".join(f"{c:>4}" for c in by_year.values()))
    qc_2014 = dataset.vendor_counts(2014).get("Qualcomm", 0)
    qc_2017 = dataset.vendor_counts(2017).get("Qualcomm", 0)
    lines.append(
        f"Qualcomm consolidation: {qc_2014} (2014) -> {qc_2017} (2017) "
        "[paper: 49 -> 27]"
    )
    lines.append("")
    lines.append("Figure 2b: IP blocks per SoC generation (after Shao et al.)")
    generations = ip_count_by_generation()
    lines.append("gen    " + " ".join(f"{g:>3}" for g in generations))
    lines.append("IPs    " + " ".join(f"{c:>3}" for c in generations.values()))
    return "\n".join(lines)


def report_table1() -> str:
    """Table I: usecase / IP concurrency matrix from the dataflows."""
    from .usecases import TABLE_I_COLUMNS, USECASES, activity_matrix

    matrix = activity_matrix()
    width = max(len(name) for name in USECASES) + 2
    lines = ["Table I: camera usecases and concurrently exercised IPs"]
    lines.append(" " * width + " ".join(f"{c:>7}" for c in TABLE_I_COLUMNS))
    for name in USECASES:
        active = set(matrix[name])
        row = "".join(
            f"{'X':>8}" if column in active else f"{'':>8}"
            for column in TABLE_I_COLUMNS
        )
        lines.append(f"{name:<{width}}" + row.lstrip(" ").rjust(len(row) - 1))
    concurrency = [len(matrix[name]) for name in USECASES]
    lines.append(
        f"IPs active per usecase: {concurrency} "
        f"(>= half of the {len(TABLE_I_COLUMNS)}-IP columns in every row: "
        f"{all(c >= len(TABLE_I_COLUMNS) // 2 for c in concurrency)})"
    )
    return "\n".join(lines)


def report_variants(variant: str | None = None) -> str:
    """Every model variant on the Figure 6d design point.

    One row per :data:`~repro.core.variants.VARIANT_CHOICES` entry (or
    just ``variant`` when given), evaluated through the lowered
    pipeline with the CLI's illustrative default structures — the
    quickest way to see how each Section V extension reshapes the same
    design's bound.
    """
    from .core import (
        FIGURE_6D,
        VARIANT_CHOICES,
        PhasedVariant,
        Workload,
        evaluate_variant,
        variant_from_config,
    )
    from .core.extensions import Phase, PhasedUsecase

    soc = FIGURE_6D.soc()
    workload = FIGURE_6D.workload()
    names = (variant,) if variant else VARIANT_CHOICES
    lines = [f"Model variants on the {FIGURE_6D.name} design point "
             f"({soc.name})"]
    lines.append(f"{'variant':>14} {'Gops/s':>10} {'bottleneck':>14}")
    for name in names:
        if name == "phases":
            # No CLI default exists for phases; illustrate with a
            # half-host, half-concurrent split of the same workload.
            chosen = PhasedVariant(PhasedUsecase((
                Phase(0.5, Workload.single_ip(
                    soc.n_ips, 0, workload.intensities[0], name="host"
                ), name="host"),
                Phase(0.5, workload, name="concurrent"),
            )))
        else:
            chosen = variant_from_config(name, soc)
        result = evaluate_variant(
            soc,
            workload if chosen.requires_workload else None,
            chosen,
        )
        lines.append(
            f"{name:>14} {result.attainable / GIGA:>10.4g} "
            f"{result.bottleneck:>14}"
        )
    return "\n".join(lines)


def report_all(on_error: str = "raise") -> str:
    """Every paper artifact, concatenated — the one-shot reproduction.

    Under ``on_error="skip"``/``"record"``, a section whose generator
    raises a :class:`~repro.errors.ReproError` is dropped (or, for
    ``"record"``, replaced by a one-line placeholder) and a degraded-
    output banner heads the report instead of the failure aborting the
    whole reproduction.
    """
    check_on_error(on_error)
    generators = (
        ("fig2", report_fig2),
        ("table1", report_table1),
        ("fig6", report_fig6),
        ("fig7", report_fig7),
        ("fig8", report_fig8),
        ("fig9", report_fig9),
    )
    sections = []
    failures = []
    for name, generator in generators:
        try:
            sections.append(generator())
        except ReproError as err:
            if on_error == "raise":
                raise
            failure = record_failure((name,), err)
            failures.append(failure)
            if on_error == "record":
                sections.append(
                    f"[section {name} unavailable: "
                    f"{failure.code}: {failure.message}]"
                )
    rule = "\n" + "=" * 72 + "\n"
    body = rule.join(sections)
    if failures:
        banner = degraded_banner(failures, len(generators), what="sections")
        return banner + "\n\n" + body if body else banner
    return body


def _instrumented(experiment: str, generator):
    """Wrap a report generator with a span and a generation counter."""

    def run(*args, **kwargs) -> str:
        _counter("reports.generated").inc()
        with _span(f"report.{experiment}", experiment=experiment):
            return generator(*args, **kwargs)

    run.__name__ = generator.__name__
    run.__doc__ = generator.__doc__
    return run


#: Experiment id -> report generator (the CLI's registry).
REPORTS = {
    experiment: _instrumented(experiment, generator)
    for experiment, generator in {
        "fig2": report_fig2,
        "fig6": report_fig6,
        "fig7": report_fig7,
        "fig8": report_fig8,
        "fig9": report_fig9,
        "table1": report_table1,
        "variants": report_variants,
        "all": report_all,
    }.items()
}
