"""Pareto-frontier utilities for design-space exploration.

Early SoC design trades attainable performance against cost proxies
(DRAM bandwidth is expensive in power and pins; IP area is expensive in
silicon).  These helpers enumerate candidate designs, attach a cost,
and extract the non-dominated set.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.params import SoCSpec, Workload
from ..core.variants import ModelVariant
from ..errors import SpecError
from ..obs.metrics import counter as _counter
from ..obs.trace import span as _span
from .sweep import _evaluate_points

_PARETO_CANDIDATES = _counter("explore.pareto.candidates")
_PARETO_KEPT = _counter("explore.pareto.kept")


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design: label, cost (lower better), perf (higher)."""

    label: str
    cost: float
    performance: float

    def dominates(self, other: "DesignPoint") -> bool:
        """Weakly better on both axes, strictly on at least one."""
        no_worse = self.cost <= other.cost and self.performance >= other.performance
        strictly = self.cost < other.cost or self.performance > other.performance
        return no_worse and strictly


def pareto_front(points: Sequence[DesignPoint]) -> tuple:
    """Non-dominated subset, sorted by ascending cost.

    O(n log n): sweep by cost, keep points that raise the best-so-far
    performance.  Duplicate-cost points keep only the best performer.
    """
    if not points:
        raise SpecError("pareto_front needs at least one point")
    _PARETO_CANDIDATES.inc(len(points))
    with _span("explore.pareto_front", candidates=len(points)) as sp:
        ordered = sorted(points, key=lambda p: (p.cost, -p.performance))
        front = []
        best_perf = float("-inf")
        for point in ordered:
            if point.performance > best_perf:
                front.append(point)
                best_perf = point.performance
        _PARETO_KEPT.inc(len(front))
        sp.set_attribute("kept", len(front))
    return tuple(front)


#: Cost model signature: SoCSpec -> abstract cost units.
CostModel = Callable[[SoCSpec], float]


def default_cost_model(
    bandwidth_weight: float = 1.0, compute_weight: float = 0.2
) -> CostModel:
    """A simple cost proxy: GB/s of DRAM plus weighted total IP Gops.

    Bandwidth is weighted heavier than compute, reflecting the mobile
    reality the paper leans on (pins, power, and LPDDR cost scale with
    bandwidth; compute area is comparatively cheap).
    """
    if bandwidth_weight < 0 or compute_weight < 0:
        raise SpecError("cost weights must be non-negative")

    def cost(soc: SoCSpec) -> float:
        total_compute = sum(
            soc.ip_peak(i) for i in range(soc.n_ips)
        )
        return (
            bandwidth_weight * soc.memory_bandwidth / 1e9
            + compute_weight * total_compute / 1e9
        )

    return cost


def explore_bandwidth_frontier(
    soc: SoCSpec,
    workload: Workload,
    bandwidths: Sequence[float],
    cost_model: CostModel | None = None,
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> tuple:
    """Pareto frontier over ``Bpeak`` candidates for one usecase.

    Demonstrates the Fig. 6c lesson quantitatively: beyond the
    sufficient bandwidth, cost rises with zero performance gain, so
    those points fall off the frontier.  With ``variant`` set the axis
    is evaluated through the lowered pipeline instead of base Gables;
    workload-carrying variants (phased usecases) ignore ``workload``.
    """
    if not bandwidths:
        raise SpecError("need at least one candidate bandwidth")
    cost_model = cost_model or default_cost_model()
    # Candidate SoC objects are still built per point (the cost model
    # sees them); the model runs once over the whole bandwidth axis.
    candidates = [soc.with_memory_bandwidth(b) for b in bandwidths]
    batch = _evaluate_points(
        soc,
        variant,
        workload,
        len(bandwidths),
        validate=False,
        memory_bandwidth=np.asarray(bandwidths, dtype=float),
        engine=engine,
    )
    points = [
        DesignPoint(
            label=f"Bpeak={bandwidth / 1e9:.3g}GB/s",
            cost=cost_model(candidate),
            performance=attainable,
        )
        for bandwidth, candidate, attainable in zip(
            bandwidths, candidates, batch.attainables.tolist()
        )
    ]
    return pareto_front(points)
