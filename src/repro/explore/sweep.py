"""One-dimensional parameter sweeps over the Gables model.

The paper's analyses are sweeps: Figure 6 walks ``f``, ``Bpeak`` and
``I1``; Figure 8 sweeps ``f`` per intensity line.  This module provides
those sweeps over *any* evaluator with the model's signature, recording
the attainable performance and the binding component at every point —
the bottleneck transitions are where the design insight lives.

Each built-in sweep runs on the vectorized batch engine
(:func:`repro.core.batch.evaluate_batch`): the whole parameter grid is
constructed as numpy arrays and evaluated in one shot, which is what
makes dense, interactive sweeps cheap (see ``docs/performance.md``).
Passing a custom ``evaluate_fn`` opts out of batching and falls back to
the per-point scalar loop, preserving the pluggable-evaluator escape
hatch for power-constrained or extended models.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..core.batch import evaluate_batch, fraction_grid
from ..core.gables import evaluate
from ..core.params import SoCSpec, Workload
from ..core.variants import (
    ModelVariant,
    evaluate_variant,
    evaluate_variant_batch,
)
from ..errors import ReproError, SpecError, WorkloadError
from ..obs.metrics import counter as _counter
from ..obs.trace import span as _span
from ..resilience.partial import check_on_error, record_failure

_SWEEP_SERIES = _counter("explore.sweep.series")
_SWEEP_POINTS = _counter("explore.sweep.points")
_SWEEP_BATCHES = _counter("explore.sweep.batches")


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: input value, bound, and attribution."""

    value: float
    attainable: float
    bottleneck: str


class BottleneckTransition(NamedTuple):
    """One binding-component crossover, bracketed by its sample points.

    The crossover happens somewhere in ``(previous_value, value]``:
    ``previous_value`` is the last sample still bound by
    ``from_component`` and ``value`` the first sample bound by
    ``to_component`` (``index`` is that point's position in the
    series).  Plots can bracket the crossover with both endpoints
    instead of a single post-transition tick.
    """

    value: float
    from_component: str
    to_component: str
    previous_value: float
    index: int


@dataclass(frozen=True)
class SweepSeries:
    """An ordered sweep with transition analysis.

    ``errors`` holds :class:`repro.resilience.PointFailure` records
    (``coords=(swept_value,)``) for points that failed under a tolerant
    ``on_error`` mode; failed points are never part of ``points``.
    """

    parameter: str
    points: tuple
    errors: tuple = ()

    def values(self) -> tuple:
        """The swept input values."""
        return tuple(p.value for p in self.points)

    def attainables(self) -> tuple:
        """Attainable performance at each point."""
        return tuple(p.attainable for p in self.points)

    def best(self) -> SweepPoint:
        """The point with the highest attainable performance."""
        return max(self.points, key=lambda p: p.attainable)

    def bottleneck_transitions(self) -> tuple:
        """Crossovers where the binding component changes.

        Returns :class:`BottleneckTransition` records — e.g. the ``f``
        interval over which a two-IP design flips from CPU-bound to
        memory-bound.  Each record carries both the pre- and
        post-transition sample values, bracketing the crossover.
        """
        transitions = []
        for index, (before, after) in enumerate(
            zip(self.points, self.points[1:])
        ):
            if before.bottleneck != after.bottleneck:
                transitions.append(
                    BottleneckTransition(
                        value=after.value,
                        from_component=before.bottleneck,
                        to_component=after.bottleneck,
                        previous_value=before.value,
                        index=index + 1,
                    )
                )
        return tuple(transitions)


EvaluateFn = Callable[[SoCSpec, Workload], object]


def _series(
    parameter: str,
    values: Sequence[float],
    build: Callable[[float], tuple],
    evaluate_fn: EvaluateFn,
    batch_fn=None,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
) -> SweepSeries:
    check_on_error(on_error)
    if variant is not None and evaluate_fn is not evaluate:
        raise SpecError(
            "pass either a custom evaluate_fn or a variant, not both"
        )
    use_batch = (
        batch_fn is not None
        and evaluate_fn is evaluate
        and on_error == "raise"
    )
    if variant is not None:
        # Route scalar fallbacks through the lowered engine; the batch
        # fast path (built variant-aware by the sweep functions) stays.
        def evaluate_fn(soc, workload, _variant=variant):  # noqa: F811
            return evaluate_variant(soc, workload, _variant)

    if len(values) == 0:
        raise SpecError(f"sweep over {parameter!r} needs at least one value")
    _SWEEP_SERIES.inc()
    _SWEEP_POINTS.inc(len(values))
    errors: tuple = ()
    with _span("explore.sweep", parameter=parameter, points=len(values)):
        if use_batch:
            # Fast path: the whole grid through the vectorized engine.
            _SWEEP_BATCHES.inc()
            batch = batch_fn(np.asarray(values, dtype=float))
            names = batch.component_names
            points = tuple(
                SweepPoint(
                    value=float(value),
                    attainable=attainable,
                    bottleneck=names[code],
                )
                for value, attainable, code in zip(
                    values,
                    batch.attainables.tolist(),
                    batch.bottleneck_codes.tolist(),
                )
            )
        else:
            # Scalar loop: custom evaluators, and the tolerant modes
            # (which need per-point exception capture).  Surviving
            # points are bitwise identical to a fault-free run — the
            # same scalar evaluation either way.
            scalar_points = []
            failures = []
            for value in values:
                try:
                    soc, workload = build(value)
                    result = evaluate_fn(soc, workload)
                except ReproError as err:
                    if on_error == "raise":
                        raise
                    failures.append(record_failure((float(value),), err))
                    continue
                scalar_points.append(
                    SweepPoint(
                        value=float(value),
                        attainable=result.attainable,
                        bottleneck=result.bottleneck,
                    )
                )
            points = tuple(scalar_points)
            if on_error == "record":
                errors = tuple(failures)
    return SweepSeries(parameter=parameter, points=points, errors=errors)


def _require_workload_variant(
    variant: ModelVariant | None, parameter: str
) -> None:
    """Reject workload-parameter sweeps of workload-free variants."""
    if variant is not None and not variant.requires_workload:
        raise SpecError(
            f"variant {variant.kind!r} carries its own workloads; "
            f"cannot sweep {parameter!r}"
        )


def _workload_matrices(workload: Workload, k: int) -> tuple:
    """The workload's (fi, Ii) vectors tiled to K batch rows."""
    shape = (k, workload.n_ips)
    fractions = np.broadcast_to(
        np.asarray(workload.fractions, dtype=float), shape
    )
    intensities = np.broadcast_to(
        np.asarray(workload.intensities, dtype=float), shape
    )
    return fractions, intensities


def sweep_fraction(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    fractions: Sequence[float],
    evaluate_fn: EvaluateFn = evaluate,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep the share of work at one IP (the paper's f-sweeps).

    Work removed from / granted to IP ``ip_index`` is redistributed
    proportionally among the rest (see
    :meth:`~repro.core.params.Workload.with_fraction_at`).
    """
    _require_workload_variant(variant, f"f[{ip_index}]")

    def batch_fn(values: np.ndarray):
        grid = fraction_grid(workload.fractions, ip_index, values)
        intensities_m = np.broadcast_to(
            np.asarray(workload.intensities, dtype=float), grid.shape
        )
        if variant is None:
            return evaluate_batch(
                soc, grid, intensities_m, validate=False, engine=engine
            )
        return evaluate_variant_batch(
            soc, variant, grid, intensities_m, validate=False,
            engine=engine,
        )

    return _series(
        f"f[{ip_index}]",
        fractions,
        lambda f: (soc, workload.with_fraction_at(ip_index, f)),
        evaluate_fn,
        batch_fn,
        on_error=on_error,
        variant=variant,
    )


def sweep_intensity(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    intensities: Sequence[float],
    evaluate_fn: EvaluateFn = evaluate,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep one IP's operational intensity (Fig. 6c -> 6d's ``I1``)."""
    if not 0 <= ip_index < workload.n_ips:
        raise SpecError(f"ip_index {ip_index} out of range")
    _require_workload_variant(variant, f"I[{ip_index}]")

    def build(value: float) -> tuple:
        intensities_new = list(workload.intensities)
        intensities_new[ip_index] = value
        return soc, replace(workload, intensities=tuple(intensities_new))

    def batch_fn(values: np.ndarray):
        if not np.all((values > 0) & ~np.isnan(values)):
            raise WorkloadError(
                "swept intensities must be positive (inf allowed)"
            )
        matrix = np.tile(
            np.asarray(workload.intensities, dtype=float), (len(values), 1)
        )
        matrix[:, ip_index] = values
        fractions_m, _ = _workload_matrices(workload, len(values))
        if variant is None:
            return evaluate_batch(
                soc, fractions_m, matrix, validate=False, engine=engine
            )
        return evaluate_variant_batch(
            soc, variant, fractions_m, matrix, validate=False,
            engine=engine,
        )

    return _series(
        f"I[{ip_index}]", intensities, build, evaluate_fn, batch_fn,
        on_error=on_error, variant=variant,
    )


def sweep_memory_bandwidth(
    soc: SoCSpec,
    workload: Workload,
    bandwidths: Sequence[float],
    evaluate_fn: EvaluateFn = evaluate,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep ``Bpeak`` (Fig. 6b -> 6c's question: does more DRAM help?)."""

    def batch_fn(values: np.ndarray):
        if variant is not None and not variant.requires_workload:
            return evaluate_variant_batch(
                soc, variant, memory_bandwidth=values, engine=engine
            )
        fractions_m, intensities_m = _workload_matrices(workload, len(values))
        if variant is None:
            return evaluate_batch(
                soc, fractions_m, intensities_m, memory_bandwidth=values,
                engine=engine,
            )
        return evaluate_variant_batch(
            soc, variant, fractions_m, intensities_m,
            memory_bandwidth=values, engine=engine,
        )

    return _series(
        "Bpeak",
        bandwidths,
        lambda b: (soc.with_memory_bandwidth(b), workload),
        evaluate_fn,
        batch_fn,
        on_error=on_error,
        variant=variant,
    )


def sweep_ip_bandwidth(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    bandwidths: Sequence[float],
    evaluate_fn: EvaluateFn = evaluate,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep one IP's link bandwidth ``Bi``."""
    if not 0 <= ip_index < soc.n_ips:
        raise SpecError(f"IP index {ip_index} out of range for N={soc.n_ips}")

    def batch_fn(values: np.ndarray):
        matrix = np.tile(
            np.array([ip.bandwidth for ip in soc.ips]), (len(values), 1)
        )
        matrix[:, ip_index] = values
        if variant is not None and not variant.requires_workload:
            return evaluate_variant_batch(
                soc, variant, ip_bandwidths=matrix, engine=engine
            )
        fractions_m, intensities_m = _workload_matrices(workload, len(values))
        if variant is None:
            return evaluate_batch(
                soc, fractions_m, intensities_m, ip_bandwidths=matrix,
                engine=engine,
            )
        return evaluate_variant_batch(
            soc, variant, fractions_m, intensities_m, ip_bandwidths=matrix,
            engine=engine,
        )

    return _series(
        f"B[{ip_index}]",
        bandwidths,
        lambda b: (soc.with_ip(ip_index, bandwidth=b), workload),
        evaluate_fn,
        batch_fn,
        on_error=on_error,
        variant=variant,
    )


def sweep_acceleration(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    accelerations: Sequence[float],
    evaluate_fn: EvaluateFn = evaluate,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep one IP's acceleration ``Ai`` (how big should the IP be?)."""
    if ip_index == 0:
        raise SpecError("IP[0] defines Ppeak; its acceleration is fixed at 1")
    if not 0 <= ip_index < soc.n_ips:
        raise SpecError(f"IP index {ip_index} out of range for N={soc.n_ips}")

    def batch_fn(values: np.ndarray):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise SpecError(
                "swept accelerations must be finite positive numbers"
            )
        matrix = np.tile(
            np.array([soc.ip_peak(i) for i in range(soc.n_ips)]),
            (len(values), 1),
        )
        matrix[:, ip_index] = values * soc.peak_perf
        if variant is not None and not variant.requires_workload:
            return evaluate_variant_batch(
                soc, variant, ip_peaks=matrix, engine=engine
            )
        fractions_m, intensities_m = _workload_matrices(workload, len(values))
        if variant is None:
            return evaluate_batch(
                soc, fractions_m, intensities_m, ip_peaks=matrix,
                engine=engine,
            )
        return evaluate_variant_batch(
            soc, variant, fractions_m, intensities_m, ip_peaks=matrix,
            engine=engine,
        )

    return _series(
        f"A[{ip_index}]",
        accelerations,
        lambda a: (soc.with_ip(ip_index, acceleration=a), workload),
        evaluate_fn,
        batch_fn,
        on_error=on_error,
        variant=variant,
    )
