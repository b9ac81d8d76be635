"""Generational scaling studies: planning SoCs 2-3 years out.

The paper's framing problem: "one must plan for future usecases 2-3
years in advance of when the SoC is deployed."  Compute and bandwidth
do not scale together — logic rides what is left of Moore's law while
off-chip bandwidth crawls with memory standards (the memory wall) — so
a usecase that is compute-bound on today's chip drifts memory-bound on
tomorrow's.  This module projects a design forward under explicit
annual growth rates and reports when each usecase's bottleneck flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_finite_positive
from ..core.params import IPBlock, SoCSpec, Workload
from ..core.variants import ModelVariant
from ..errors import SpecError
from .sweep import _evaluate_points


@dataclass(frozen=True)
class TechnologyTrend:
    """Annual growth multipliers for each hardware axis.

    Defaults reflect the late-2010s mobile reality: logic throughput
    ~1.3x/year (process + architecture), off-chip bandwidth ~1.12x/year
    (LPDDR generations), IP links tracking logic more than memory.
    """

    compute_growth: float = 1.30
    memory_bandwidth_growth: float = 1.12
    link_bandwidth_growth: float = 1.20

    def __post_init__(self) -> None:
        for field_name in ("compute_growth", "memory_bandwidth_growth",
                           "link_bandwidth_growth"):
            value = getattr(self, field_name)
            require_finite_positive(value, field_name)
            if value < 1.0:
                raise SpecError(
                    f"{field_name} must be >= 1 (technology regresses "
                    "only in fiction)"
                )

    @property
    def balance_drift_per_year(self) -> float:
        """How fast machine balance (ops/byte) rises: the memory wall.

        > 1 means every year demands more data reuse from software to
        stay compute-bound — the quantitative version of the paper's
        conjecture that operational intensity "bears careful thought".
        """
        return self.compute_growth / self.memory_bandwidth_growth


def project_soc(soc: SoCSpec, years: float,
                trend: TechnologyTrend | None = None) -> SoCSpec:
    """The same design, fabricated ``years`` later under ``trend``.

    Compute (``Ppeak``; accelerations are relative and stay put) and
    bandwidths scale by their compounded growth.  Infinite link
    bandwidths stay infinite.
    """
    if years < 0:
        raise SpecError(f"years must be >= 0, got {years!r}")
    trend = trend or TechnologyTrend()
    compute = trend.compute_growth**years
    memory = trend.memory_bandwidth_growth**years
    link = trend.link_bandwidth_growth**years
    ips = tuple(
        IPBlock(
            ip.name,
            ip.acceleration,
            ip.bandwidth if ip.bandwidth == float("inf")
            else ip.bandwidth * link,
        )
        for ip in soc.ips
    )
    return SoCSpec(
        peak_perf=soc.peak_perf * compute,
        memory_bandwidth=soc.memory_bandwidth * memory,
        ips=ips,
        name=f"{soc.name}+{years:g}y",
    )


@dataclass(frozen=True)
class DriftPoint:
    """One year of a bottleneck-drift projection."""

    year: float
    attainable: float
    bottleneck: str
    speedup_vs_today: float


def bottleneck_drift(
    soc: SoCSpec,
    workload: Workload,
    years: int = 5,
    trend: TechnologyTrend | None = None,
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> tuple:
    """Project a fixed usecase across future chip generations.

    Returns one :class:`DriftPoint` per year 0..years.  The classic
    outcome: early years ride compute growth near-linearly; once the
    usecase's intensity falls below the growing machine balance, gains
    flatten to the bandwidth growth rate and the bottleneck reads
    ``memory`` — the model's argument for investing in reuse rather
    than FLOPs.

    With ``variant`` set the projection runs through the lowered
    pipeline; buses and coordination then appear as candidate
    bottlenecks.  Workload-carrying variants (phased usecases) ignore
    ``workload`` and attribute each year to its binding *phase*.
    """
    if years < 0:
        raise SpecError(f"years must be >= 0, got {years}")
    trend = trend or TechnologyTrend()
    # All projected generations in one batch: each year is a row of
    # scaled hardware rates (the same products project_soc computes),
    # the workload is constant.  Year 0 scales by exactly 1.0, so row 0
    # doubles as "today" for the speedup column.
    year_axis = np.arange(years + 1, dtype=float)
    compute = trend.compute_growth**year_axis
    memory = soc.memory_bandwidth * trend.memory_bandwidth_growth**year_axis
    link = trend.link_bandwidth_growth**year_axis
    accelerations = np.array([ip.acceleration for ip in soc.ips])
    base_bandwidths = np.array([ip.bandwidth for ip in soc.ips])
    ip_peaks = accelerations * (soc.peak_perf * compute)[:, np.newaxis]
    ip_bandwidths = np.where(
        np.isinf(base_bandwidths),
        np.inf,
        base_bandwidths * link[:, np.newaxis],
    )
    batch = _evaluate_points(
        soc,
        variant,
        workload,
        years + 1,
        validate=False,
        memory_bandwidth=memory,
        ip_bandwidths=ip_bandwidths,
        ip_peaks=ip_peaks,
        engine=engine,
    )
    attainables = batch.attainables.tolist()
    bottlenecks = batch.bottlenecks()
    today = attainables[0]
    return tuple(
        DriftPoint(
            year=float(year),
            attainable=attainable,
            bottleneck=bottleneck,
            speedup_vs_today=attainable / today,
        )
        for year, attainable, bottleneck in zip(
            range(years + 1), attainables, bottlenecks
        )
    )


def years_until_memory_bound(
    soc: SoCSpec,
    workload: Workload,
    trend: TechnologyTrend | None = None,
    horizon: int = 20,
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> float:
    """First projected year the memory interface binds (inf if never).

    The planning number the drift study produces: how long the current
    software (its intensities) stays ahead of the memory wall.  Only
    meaningful for variants that attribute to components (phased
    variants attribute to phases, so the answer is always ``inf``).
    """
    trend = trend or TechnologyTrend()
    for point in bottleneck_drift(soc, workload, horizon, trend,
                                  variant=variant, engine=engine):
        if point.bottleneck == "memory":
            return point.year
    return float("inf")
