"""Roofline extraction from empirical sweep samples.

Turns a :class:`~repro.ert.sweep.SweepResult` into the two numbers a
roofline needs — attained compute peak and attained memory bandwidth —
plus per-cache-level bandwidth ceilings, and packages them as a
:class:`~repro.core.roofline.Roofline` so the measured chips plug
straight into the Gables model (the paper's Section IV workflow).

Extraction logic mirrors how the ERT reports are read by hand:

- the **compute peak** is the best rate at high intensity (where no
  bandwidth can bind);
- the **DRAM bandwidth** is the best implied bytes/s among samples
  whose working set spilled past every cache *and* whose intensity
  kept them bandwidth-bound;
- each **cache level's bandwidth** is the same statistic restricted to
  samples served by that level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.params import IPBlock, SoCSpec
from ..core.roofline import Ceiling, Roofline
from ..errors import FittingError
from ..obs.trace import span as _span
from .sweep import SweepResult

#: A sample counts as bandwidth-bound when it attains less than this
#: share of the sweep's best rate.
_BW_BOUND_SHARE = 0.95


@dataclass(frozen=True)
class EmpiricalRoofline:
    """The fitted ceilings of one engine.

    Attributes
    ----------
    engine:
        Engine name.
    peak_gflops:
        Attained compute ceiling (the paper's "pessimistic" estimate).
    dram_bandwidth:
        Attained bytes/s from DRAM-resident working sets.
    cache_bandwidths:
        Level name -> attained bytes/s for cache-resident sets.
    ridge_point:
        ``peak / dram_bandwidth`` in ops/byte.
    """

    engine: str
    peak_gflops: float
    dram_bandwidth: float
    cache_bandwidths: dict

    @property
    def ridge_point(self) -> float:
        """Intensity where the DRAM slant meets the compute roof."""
        return self.peak_gflops * 1e9 / self.dram_bandwidth

    def to_roofline(self) -> Roofline:
        """Package as a model-ready :class:`Roofline`.

        Cache bandwidths become named bandwidth *ceilings* above the
        DRAM roofline — strictly they are higher roofs for resident
        working sets; we encode them as ceilings of an inverted
        roofline the way ERT plots overlay them.  For Gables inputs the
        DRAM numbers are the ones to use (inter-IP data travels via
        DRAM in the base model).
        """
        return Roofline(
            peak_perf=self.peak_gflops * 1e9,
            peak_bandwidth=max(
                [self.dram_bandwidth, *self.cache_bandwidths.values()]
            ),
            ceilings=(
                Ceiling("DRAM", "bandwidth", self.dram_bandwidth),
            ),
            name=self.engine,
        )


def fit_roofline(sweep: SweepResult) -> EmpiricalRoofline:
    """Extract the empirical roofline from a sweep.

    Raises :class:`~repro.errors.FittingError` when the sweep lacks
    DRAM-resident samples (footprints never left the caches) or lacks a
    compute-bound region (every sample bandwidth-bound).
    """
    with _span("ert.fit_roofline", engine=sweep.engine):
        return _fit_roofline(sweep)


def _fit_roofline(sweep: SweepResult) -> EmpiricalRoofline:
    if not sweep.samples:
        raise FittingError(f"sweep for {sweep.engine!r} has no samples")
    peak = sweep.max_gflops()

    dram = [s for s in sweep.dram_samples() if s.gflops < _BW_BOUND_SHARE * peak]
    if not dram:
        raise FittingError(
            f"sweep for {sweep.engine!r} has no bandwidth-bound DRAM "
            "samples; extend the footprint or lower the intensity ladder"
        )
    # Use only the largest footprint: working sets just past the last
    # cache still get partial hits, overstating sustainable DRAM rate.
    asymptote = max(s.footprint_bytes for s in dram)
    dram_bandwidth = max(
        s.attained_bandwidth for s in dram if s.footprint_bytes == asymptote
    )

    compute_bound = [s for s in sweep.samples if s.gflops >= _BW_BOUND_SHARE * peak]
    if not compute_bound:
        raise FittingError(
            f"sweep for {sweep.engine!r} never reached a compute roof; "
            "raise the intensity ladder"
        )

    cache_bandwidths: dict = {}
    for sample in sweep.samples:
        if sample.service_level == "DRAM":
            continue
        if sample.gflops >= _BW_BOUND_SHARE * peak:
            continue  # compute-bound: implies nothing about the level
        implied = sample.attained_bandwidth
        current = cache_bandwidths.get(sample.service_level, 0.0)
        cache_bandwidths[sample.service_level] = max(current, implied)
    # Drop levels slower than DRAM's asymptote (boundary artifacts).
    cache_bandwidths = {
        level: bw
        for level, bw in cache_bandwidths.items()
        if bw > dram_bandwidth
    }

    return EmpiricalRoofline(
        engine=sweep.engine,
        peak_gflops=peak,
        dram_bandwidth=dram_bandwidth,
        cache_bandwidths=cache_bandwidths,
    )


def acceleration_between(
    reference: EmpiricalRoofline, accelerator: EmpiricalRoofline
) -> float:
    """``Ai`` estimate: accelerator peak over reference peak.

    The paper: ``A1 = 349.6 / 7.5 = 46.6 ~ 47x`` for the Adreno GPU
    against the non-NEON CPU roofline.
    """
    if reference.peak_gflops <= 0:
        raise FittingError("reference peak must be positive")
    return accelerator.peak_gflops / reference.peak_gflops


def measured_soc_spec(
    reference: EmpiricalRoofline,
    others,
    memory_bandwidth: float | None = None,
    name: str = "measured",
) -> SoCSpec:
    """Assemble the measured engines into a model-ready SoC.

    The Section IV hand-off made executable: ``Ppeak`` is the reference
    engine's attained peak, each other engine contributes its ``Ai``
    (peak ratio, :func:`acceleration_between`) and ``Bi`` (attained
    DRAM bytes/s), and ``Bpeak`` defaults to the best attained DRAM
    bandwidth among all engines (the shared interface can move at
    least what any one engine drove through it).  The returned
    :class:`~repro.core.params.SoCSpec` plugs directly into the model
    front door — ``evaluate_variant(spec, workload, variant)`` — so
    measured chips run through the same lowered pipeline as paper
    specs.
    """
    others = tuple(others)
    if memory_bandwidth is None:
        memory_bandwidth = max(
            fitted.dram_bandwidth for fitted in (reference, *others)
        )
    if memory_bandwidth <= 0:
        raise FittingError("memory bandwidth must be positive")
    ips = [IPBlock(reference.engine, 1.0, reference.dram_bandwidth)]
    ips += [
        IPBlock(
            fitted.engine,
            acceleration_between(reference, fitted),
            fitted.dram_bandwidth,
        )
        for fitted in others
    ]
    return SoCSpec(
        peak_perf=reference.peak_gflops * 1e9,
        memory_bandwidth=memory_bandwidth,
        ips=tuple(ips),
        name=name,
    )


def optimistic_roofline(
    engine: str, spec_gflops: float, spec_bandwidth: float
) -> EmpiricalRoofline:
    """The manufacturer-specification ("optimistic") estimate.

    The paper contrasts spec-sheet rooflines (never exceedable, maybe
    unattainable) with micro-benchmarked ones (attainable, maybe a
    ceiling).  This helper represents the former in the same shape so
    the two can be compared numerically.
    """
    if spec_gflops <= 0 or spec_bandwidth <= 0:
        raise FittingError("spec numbers must be positive")
    return EmpiricalRoofline(
        engine=f"{engine} (spec)",
        peak_gflops=spec_gflops,
        dram_bandwidth=spec_bandwidth,
        cache_bandwidths={},
    )


def pessimism_ratio(
    optimistic: EmpiricalRoofline, pessimistic: EmpiricalRoofline
) -> dict:
    """How far below spec the measured ceilings sit.

    Returns ``{"compute": measured/spec, "bandwidth": measured/spec}``;
    the paper's examples: GPU compute 349.6/567 ~ 0.62, CPU read+write
    bandwidth 15.1/30 ~ 0.50.
    """
    if math.isclose(optimistic.peak_gflops, 0) or math.isclose(
        optimistic.dram_bandwidth, 0
    ):
        raise FittingError("optimistic roofline must be positive")
    return {
        "compute": pessimistic.peak_gflops / optimistic.peak_gflops,
        "bandwidth": pessimistic.dram_bandwidth / optimistic.dram_bandwidth,
    }
