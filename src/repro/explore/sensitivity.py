"""Sensitivity analysis: which knob moves attainable performance most.

For early-stage design the first-order question is "what do I get per
unit of X?".  We report *elasticities* — relative change in
``P_attainable`` per relative change in each hardware parameter — via
central finite differences.  Under bottleneck analysis most
elasticities are exactly 0 (slack components) or 1 (the binding
component scales through), so the report doubles as crisp bottleneck
attribution with magnitudes.

All perturbations (two per knob) are evaluated as one batch through
:func:`repro.core.batch.evaluate_batch` — the workload never changes,
only the hardware-rate arrays, so the full report costs a single
vectorized pass instead of ``2 * knobs + 1`` scalar evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.gables import evaluate
from ..core.params import SoCSpec, Workload
from ..core.variants import ModelVariant, evaluate_variant
from ..errors import SpecError
from .sweep import _evaluate_points

#: Relative perturbation for finite differences.
_DEFAULT_STEP = 1e-4


@dataclass(frozen=True)
class SensitivityReport:
    """Elasticity of attainable performance to each hardware input.

    Keys: ``"Ppeak"``, ``"Bpeak"``, ``"A[i]"`` and ``"B[i]"`` per IP.
    """

    baseline: float
    elasticities: dict

    def top_lever(self) -> str:
        """The parameter with the largest positive elasticity."""
        return max(self.elasticities, key=lambda k: self.elasticities[k])

    def dead_knobs(self, tol: float = 1e-6) -> tuple:
        """Parameters whose improvement buys (to first order) nothing."""
        return tuple(
            sorted(k for k, e in self.elasticities.items() if abs(e) < tol)
        )


def sensitivity(
    soc: SoCSpec,
    workload: Workload,
    step: float = _DEFAULT_STEP,
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SensitivityReport:
    """Compute the full elasticity report for one design point.

    With ``variant`` set, both the baseline and the perturbation batch
    run through the lowered pipeline, so the elasticities account for
    the variant's extra constraints (buses, coordination, ...).
    Workload-carrying variants (phased usecases) ignore ``workload``.
    """
    if not 0 < step < 0.1:
        raise SpecError(f"step must lie in (0, 0.1), got {step!r}")
    if variant is None:
        baseline = evaluate(soc, workload).attainable
    elif variant.requires_workload:
        baseline = evaluate_variant(soc, workload, variant).attainable
    else:
        baseline = evaluate_variant(soc, None, variant).attainable
    if baseline == 0:
        raise SpecError("degenerate baseline performance")

    n = soc.n_ips
    accelerations = np.array([ip.acceleration for ip in soc.ips])
    base_peaks = np.array([soc.ip_peak(i) for i in range(n)])
    base_bandwidths = np.array([ip.bandwidth for ip in soc.ips])

    # One batch row per perturbation, two (up/down) per knob.  Each row
    # overrides exactly the arrays its scalar counterpart would change:
    # a Ppeak row rescales every engine (accelerations are relative), an
    # A[i] or B[i] row touches one column, a Bpeak row only the memory
    # axis.
    knobs = []
    peaks_rows = []
    memory_rows = []
    bandwidth_rows = []

    def add(knob: str, factor: float) -> None:
        peaks = base_peaks.copy()
        memory = soc.memory_bandwidth
        bandwidths = base_bandwidths.copy()
        if knob == "Ppeak":
            peaks = accelerations * (soc.peak_perf * factor)
        elif knob == "Bpeak":
            memory = soc.memory_bandwidth * factor
        elif knob.startswith("A["):
            index = int(knob[2:-1])
            peaks[index] = (accelerations[index] * factor) * soc.peak_perf
        else:  # B[i]
            index = int(knob[2:-1])
            bandwidths[index] = base_bandwidths[index] * factor
        peaks_rows.append(peaks)
        memory_rows.append(memory)
        bandwidth_rows.append(bandwidths)

    names = ["Ppeak", "Bpeak"]
    names += [f"A[{index}]" for index in range(1, n)]
    names += [
        f"B[{index}]"
        for index in range(n)
        if soc.ips[index].bandwidth != float("inf")
    ]
    for knob in names:
        knobs.append(knob)
        add(knob, 1.0 + step)
        add(knob, 1.0 - step)

    batch = _evaluate_points(
        soc,
        variant,
        workload,
        len(peaks_rows),
        validate=False,
        memory_bandwidth=np.array(memory_rows),
        ip_bandwidths=np.array(bandwidth_rows),
        ip_peaks=np.array(peaks_rows),
        engine=engine,
    )
    attained = batch.attainables.tolist()
    elasticities: dict = {}
    for position, knob in enumerate(knobs):
        up = attained[2 * position]
        down = attained[2 * position + 1]
        elasticities[knob] = (up - down) / (2.0 * step * baseline)
    return SensitivityReport(baseline=baseline, elasticities=elasticities)
