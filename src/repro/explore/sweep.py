"""One-dimensional parameter sweeps over the Gables model.

The paper's analyses are sweeps: Figure 6 walks ``f``, ``Bpeak`` and
``I1``; Figure 8 sweeps ``f`` per intensity line.  This module provides
those sweeps, recording the attainable performance and the binding
component at every point — the bottleneck transitions are where the
design insight lives.

Every sweep runs on the vectorized batch engine
(:func:`repro.core.batch.evaluate_batch`), in every ``on_error`` mode:
the swept values are checked in one vectorized pass against the rule
of the scalar constructor they feed, each rejected value carries that
constructor's own error, and the accepted values are evaluated in one
shot, which is what makes dense, interactive sweeps cheap (see
``docs/performance.md``).  The surviving points of a tolerant sweep
are therefore bitwise equal to a ``"raise"`` sweep over the accepted
values.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..core.batch import (
    _finite_positive,
    _in_unit_range,
    _positive,
    evaluate_batch,
    fraction_grid,
)
from ..core.params import SoCSpec, Workload
from ..core.variants import ModelVariant, evaluate_variant_batch
from ..errors import ReproError, SpecError, WorkloadError
from ..obs.metrics import counter as _counter
from ..obs.trace import span as _span
from ..resilience.partial import PointFailure, check_on_error, record_failure

_SWEEP_SERIES = _counter("explore.sweep.series")
_SWEEP_POINTS = _counter("explore.sweep.points")
_SWEEP_BATCHES = _counter("explore.sweep.batches")


class SweepPoint(NamedTuple):
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

    def __len__(self) -> int:
        """Number of evaluated points."""
        return len(self.points)

    def values(self) -> tuple:
        """The swept input values."""
        return tuple(p.value for p in self.points)

    def attainables(self) -> tuple:
        """Attainable performance at each point."""
        return tuple(p.attainable for p in self.points)

    def bottlenecks(self) -> tuple:
        """The binding component's name at each point."""
        return tuple(p.bottleneck for p in self.points)

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


def _records(record: type, batch, *coords: np.ndarray) -> tuple:
    """One ``record`` per row the batch evaluated (code >= 0).

    ``coords`` holds one array per axis, aligned with the batch's rows.
    ``record`` is a named tuple whose fields are a row's coordinates,
    then its attainable bound and bottleneck name.  A dense sweep
    builds tens of thousands of them, so each is made by
    ``tuple.__new__`` over the zipped columns, all in C: calling
    ``record`` would run its Python ``__new__`` once per row.
    """
    evaluated = batch.bottleneck_codes >= 0
    names = batch.component_names
    return tuple(map(tuple.__new__, repeat(record), zip(
        *(column[evaluated].tolist() for column in coords),
        batch.attainables[evaluated].tolist(),
        map(names.__getitem__, batch.bottleneck_codes[evaluated].tolist()),
    )))


def _series(
    parameter: str,
    values: Sequence[float],
    accepts: Callable[[np.ndarray], np.ndarray],
    build: Callable[[float], object],
    batch_fn: Callable[[np.ndarray, str], object],
    on_error: str,
) -> SweepSeries:
    """Check the values, then evaluate the accepted ones as one batch.

    ``accepts`` is the vectorized rule of the scalar constructor
    ``build``: True exactly where ``build(value)`` does not raise.  A
    rejected value gets ``build``'s own error, raised for the first one
    under ``"raise"``, kept in value order under ``"record"`` and
    dropped under ``"skip"``.  Tolerant modes run ``batch_fn`` under
    ``on_error="record"``, so a row the batch rejects fails alone.
    """
    check_on_error(on_error)
    if len(values) == 0:
        raise SpecError(f"sweep over {parameter!r} needs at least one value")
    _SWEEP_SERIES.inc()
    _SWEEP_POINTS.inc(len(values))
    failures = []
    points: tuple = ()
    with _span("explore.sweep", parameter=parameter, points=len(values)):
        swept = np.asarray(values, dtype=float)
        accepted = accepts(swept)
        for index in np.flatnonzero(~accepted).tolist():
            try:
                build(values[index])
            except ReproError as err:
                if on_error == "raise":
                    raise
                failures.append(
                    (index, record_failure((float(values[index]),), err))
                )
        kept = np.flatnonzero(accepted)
        if kept.size:
            _SWEEP_BATCHES.inc()
            kept_values = swept[kept]
            batch = batch_fn(
                kept_values, "raise" if on_error == "raise" else "record"
            )
            points = _records(SweepPoint, batch, kept_values)
            # Phased batches run only under "raise" and carry no errors.
            for failure in getattr(batch, "errors", ()):
                index = int(kept[failure.coords[0]])
                failures.append((index, PointFailure(
                    coords=(float(values[index]),),
                    code=failure.code,
                    message=failure.message,
                )))
    errors: tuple = ()
    if on_error == "record":
        failures.sort(key=lambda item: item[0])
        errors = tuple(failure for _, failure in failures)
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


def _evaluate_points(
    soc: SoCSpec,
    variant: ModelVariant | None,
    workload: Workload | None,
    k: int,
    *,
    validate: bool,
    fractions=None,
    intensities=None,
    on_error: str = "raise",
    engine: str = "auto",
    **hardware,
):
    """Evaluate ``k`` points of ``variant`` (``None``: base Gables).

    The explore drivers' one dispatch between the base model and the
    lowered pipeline.  Every row evaluates ``workload``, broadcast,
    unless ``fractions`` or ``intensities`` gives that axis as a
    (k, N) grid; ``hardware`` holds the per-point overrides.  A
    workload-free variant (a phased usecase) carries its own workloads:
    it runs on the overrides alone, validated, under ``"raise"``.
    """
    if variant is not None and not variant.requires_workload:
        return evaluate_variant_batch(soc, variant, engine=engine, **hardware)
    if fractions is None:
        fractions = np.broadcast_to(workload.fractions, (k, workload.n_ips))
    if intensities is None:
        intensities = np.broadcast_to(
            workload.intensities, (k, workload.n_ips)
        )
    options = dict(validate=validate, on_error=on_error, engine=engine)
    if variant is None:
        return evaluate_batch(
            soc, fractions, intensities, **options, **hardware
        )
    return evaluate_variant_batch(
        soc, variant, fractions, intensities, **options, **hardware
    )


def sweep_fraction(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    fractions: Sequence[float],
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep the share of work at one IP (the paper's f-sweeps).

    Work removed from / granted to IP ``ip_index`` is redistributed
    proportionally among the rest (see
    :meth:`~repro.core.params.Workload.with_fraction_at`).
    """
    if not 0 <= ip_index < workload.n_ips:
        raise WorkloadError(
            f"IP index {ip_index} out of range for N={workload.n_ips}"
        )
    _require_workload_variant(variant, f"f[{ip_index}]")

    def batch_fn(values: np.ndarray, on_error: str):
        return _evaluate_points(
            soc, variant, workload, len(values), validate=False,
            fractions=fraction_grid(workload.fractions, ip_index, values),
            on_error=on_error, engine=engine,
        )

    return _series(
        f"f[{ip_index}]",
        fractions,
        _in_unit_range,
        lambda f: workload.with_fraction_at(ip_index, f),
        batch_fn,
        on_error,
    )


def sweep_intensity(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    intensities: Sequence[float],
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep one IP's operational intensity (Fig. 6c -> 6d's ``I1``)."""
    if not 0 <= ip_index < workload.n_ips:
        raise SpecError(f"ip_index {ip_index} out of range")
    _require_workload_variant(variant, f"I[{ip_index}]")

    def build(value: float) -> Workload:
        intensities_new = list(workload.intensities)
        intensities_new[ip_index] = value
        return replace(workload, intensities=tuple(intensities_new))

    def batch_fn(values: np.ndarray, on_error: str):
        matrix = np.tile(
            np.asarray(workload.intensities, dtype=float), (len(values), 1)
        )
        matrix[:, ip_index] = values
        return _evaluate_points(
            soc, variant, workload, len(values), validate=False,
            intensities=matrix, on_error=on_error, engine=engine,
        )

    return _series(
        f"I[{ip_index}]", intensities, _positive, build, batch_fn, on_error
    )


def sweep_memory_bandwidth(
    soc: SoCSpec,
    workload: Workload,
    bandwidths: Sequence[float],
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep ``Bpeak`` (Fig. 6b -> 6c's question: does more DRAM help?)."""

    def batch_fn(values: np.ndarray, on_error: str):
        return _evaluate_points(
            soc, variant, workload, len(values), validate=True,
            memory_bandwidth=values, on_error=on_error, engine=engine,
        )

    return _series(
        "Bpeak",
        bandwidths,
        _finite_positive,
        soc.with_memory_bandwidth,
        batch_fn,
        on_error,
    )


def sweep_ip_bandwidth(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    bandwidths: Sequence[float],
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep one IP's link bandwidth ``Bi``."""
    if not 0 <= ip_index < soc.n_ips:
        raise SpecError(f"IP index {ip_index} out of range for N={soc.n_ips}")

    def batch_fn(values: np.ndarray, on_error: str):
        matrix = np.tile(
            np.array([ip.bandwidth for ip in soc.ips]), (len(values), 1)
        )
        matrix[:, ip_index] = values
        return _evaluate_points(
            soc, variant, workload, len(values), validate=True,
            ip_bandwidths=matrix, on_error=on_error, engine=engine,
        )

    return _series(
        f"B[{ip_index}]",
        bandwidths,
        _positive,
        lambda b: soc.with_ip(ip_index, bandwidth=b),
        batch_fn,
        on_error,
    )


def sweep_acceleration(
    soc: SoCSpec,
    workload: Workload,
    ip_index: int,
    accelerations: Sequence[float],
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepSeries:
    """Sweep one IP's acceleration ``Ai`` (how big should the IP be?)."""
    if ip_index == 0:
        raise SpecError("IP[0] defines Ppeak; its acceleration is fixed at 1")
    if not 0 <= ip_index < soc.n_ips:
        raise SpecError(f"IP index {ip_index} out of range for N={soc.n_ips}")

    def batch_fn(values: np.ndarray, on_error: str):
        matrix = np.tile(
            np.array([soc.ip_peak(i) for i in range(soc.n_ips)]),
            (len(values), 1),
        )
        with np.errstate(over="ignore"):  # an overflowed peak is inf
            matrix[:, ip_index] = values * soc.peak_perf
        return _evaluate_points(
            soc, variant, workload, len(values), validate=True,
            ip_peaks=matrix, on_error=on_error, engine=engine,
        )

    return _series(
        f"A[{ip_index}]",
        accelerations,
        _finite_positive,
        lambda a: soc.with_ip(ip_index, acceleration=a),
        batch_fn,
        on_error,
    )
