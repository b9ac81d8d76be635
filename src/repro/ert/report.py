"""Human-readable reports for empirical roofline measurements.

Formats the Section IV artifacts — per-engine rooflines (Figs. 7a, 7b,
9) and the derived Gables hardware parameters — as plain-text tables
for the CLI and the benchmark harness.
"""

from __future__ import annotations

from ..core.variants import evaluate_variant
from ..units import format_bandwidth, format_flops, format_ops
from .fitting import EmpiricalRoofline, acceleration_between
from .sweep import SweepResult


def roofline_summary(fitted: EmpiricalRoofline) -> str:
    """One engine's fitted ceilings as the paper's figure labels.

    E.g. ``"7.5 GFLOP/s (Maximum), DRAM - 15.1 GB/s"``.
    """
    lines = [
        f"{fitted.engine}: "
        f"{format_flops(fitted.peak_gflops * 1e9)} (Maximum), "
        f"DRAM - {format_bandwidth(fitted.dram_bandwidth)}",
    ]
    for level, bandwidth in sorted(fitted.cache_bandwidths.items()):
        lines.append(f"  {level} - {format_bandwidth(bandwidth)}")
    lines.append(f"  ridge point: {fitted.ridge_point:.3g} ops/byte")
    return "\n".join(lines)


def sweep_table(sweep: SweepResult, max_rows: int | None = None) -> str:
    """The raw sweep as an aligned text table."""
    header = (
        f"{'footprint':>12} {'intensity':>10} {'GFLOP/s':>10} {'level':>6}"
    )
    rows = [f"# engine={sweep.engine} variant={sweep.variant} simd={sweep.simd}",
            header]
    samples = sweep.samples[:max_rows] if max_rows else sweep.samples
    for s in samples:
        rows.append(
            f"{s.footprint_bytes:>12.3g} {s.intensity:>10.4g} "
            f"{s.gflops:>10.4g} {s.service_level:>6}"
        )
    if max_rows and len(sweep.samples) > max_rows:
        rows.append(f"... ({len(sweep.samples) - max_rows} more)")
    return "\n".join(rows)


def variant_prediction_table(soc, workload, variants) -> str:
    """Model predictions for a measured SoC under several variants.

    ``soc`` is typically :func:`repro.ert.fitting.measured_soc_spec`'s
    output; each :class:`~repro.core.variants.ModelVariant` in
    ``variants`` runs through the lowered pipeline and contributes one
    row of attainable performance plus its binding component — the
    measured-versus-modeled comparison of Section IV extended to every
    formulation of the model.
    """
    rows = [f"{'variant':>14} {'attainable':>14} {'bottleneck':>14}"]
    for variant in variants:
        result = evaluate_variant(
            soc, workload if variant.requires_workload else None, variant
        )
        rows.append(
            f"{variant.kind:>14} "
            f"{format_ops(result.attainable):>14} "
            f"{result.bottleneck:>14}"
        )
    return "\n".join(rows)


def gables_parameter_table(reference: EmpiricalRoofline, others) -> str:
    """The measured chips as Gables hardware inputs.

    ``Ppeak`` comes from the reference engine; each other engine
    contributes its ``Ai`` (peak ratio) and ``Bi`` (DRAM bandwidth).
    """
    rows = [
        f"{'IP':>8} {'A_i':>8} {'B_i':>12} {'peak':>14}",
        f"{reference.engine:>8} {1.0:>8.3g} "
        f"{format_bandwidth(reference.dram_bandwidth):>12} "
        f"{format_flops(reference.peak_gflops * 1e9):>14}",
    ]
    for fitted in others:
        rows.append(
            f"{fitted.engine:>8} "
            f"{acceleration_between(reference, fitted):>8.3g} "
            f"{format_bandwidth(fitted.dram_bandwidth):>12} "
            f"{format_flops(fitted.peak_gflops * 1e9):>14}"
        )
    return "\n".join(rows)
