"""Vectorized batch evaluation of the Gables model (Equations 9-11).

Every analysis in the paper is a sweep — Figure 6 walks ``f``,
``Bpeak`` and ``I1``; Figure 8 sweeps ``f`` per intensity line — and a
sweep is just the same max-of-linear-terms model applied to many
parameter points.  :func:`evaluate_batch` computes the whole sweep in
one shot over numpy arrays: K points x N IPs in, K attainable values
and K integer-coded bottleneck attributions out, with no per-point
Python objects on the hot path.

Semantics match :func:`repro.core.gables.evaluate` term for term.  Each
arithmetic step performs the same IEEE-754 operations in the same
order as the scalar path, so batch and scalar results agree *exactly*
for up to two IPs; the only divergence channel is the reduction over
per-IP byte counts (``math.fsum`` scalar vs pairwise ``numpy.sum``
batch), which for N > 2 can differ in the last ulp.  The test suite
(``tests/test_batch.py``) pins exact agreement on two-IP grids —
including the ``f = 0``, ``I = inf`` and denormal-underflow edge cases
— and agreement within 1e-12 relative beyond.

Hardware parameters can vary across the batch too: ``memory_bandwidth``
(per point), ``ip_bandwidths`` and ``ip_peaks`` (per point and IP)
override the SoC's values, which is how the ``Bpeak``/``Bi``/``Ai``
sweeps in :mod:`repro.explore.sweep` and the generational projections
in :mod:`repro.explore.scaling` ride the same batch path.

:func:`evaluate_batch` (the base model) and
:func:`evaluate_lowered_batch` (one lowered phase) share one body.  It
resolves the ``engine`` switch, coerces and validates the inputs on
every call (:func:`prepare_batch`), and runs either the interpreter in
this module, which is the ground truth, or the one compiled tier, the
fused ufunc kernel of :mod:`repro.core.compile`, under a single span.

Validation accepts exactly the points the scalar constructors accept:
a row's work fractions pass when, as in ``Workload``, their
``math.fsum`` lies within ``FRACTION_SUM_TOL`` of one
(:func:`_fraction_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EvaluationError, SpecError, WorkloadError
from ..obs.metrics import counter as _counter
from ..obs.trace import span as _span
from ..resilience.partial import check_on_error, point_failure
from .._validation import FRACTION_SUM_TOL
from .compile import ENGINE_CHOICES, compile_phase
from .lowering import COORDINATION, LoweredPhase
from .params import SoCSpec
from .result import BINDING_REL_TOL, MEMORY, GablesResult, IPTerm

#: Module-level instrument handles (one registry lookup at import).
_BATCH_CALLS = _counter("core.evaluate_batch.calls")
_BATCH_POINTS = _counter("core.evaluate_batch.points")
_LOWERED_CALLS = _counter("core.evaluate_lowered_batch.calls")


@dataclass(frozen=True)
class BatchResult:
    """K model evaluations as parallel arrays (the batch dual of
    :class:`~repro.core.result.GablesResult`).

    All arrays share the leading batch axis K; per-IP quantities carry
    a trailing IP axis N.  ``bottleneck_codes`` holds the *component
    index* of the binding resource per point: ``0 .. N-1`` name the IPs
    in SoC order and ``N`` (== :attr:`memory_code`) names the shared
    DRAM interface — integer-coded so region maps and transition scans
    stay in numpy.

    Attributes
    ----------
    component_names:
        IP names in index order plus ``"memory"`` last; the decoding
        table for ``bottleneck_codes``.
    fractions, intensities:
        The (K, N) inputs echoed back.
    compute_times, data_bytes, transfer_times, ip_times:
        The (K, N) per-IP terms of Equation 9.
    memory_times, memory_perf_bounds, average_intensities:
        The (K,) memory terms of Equations 10 and 13.
    attainables:
        (K,) attainable performance (Equation 11).
    bottleneck_codes:
        (K,) integer component codes of the binding resource; ``-1``
        marks a point that failed under a tolerant ``on_error`` mode.
    valid:
        (K,) boolean mask of points that evaluated cleanly, or ``None``
        for an ``on_error="raise"`` batch (everything valid by
        construction).  Under ``on_error="record"`` invalid rows stay
        in place with NaN-masked outputs.
    errors:
        Tuple of :class:`repro.resilience.PointFailure` records for the
        failed points (``coords=(batch_index,)`` in the *original*
        grid), empty for a clean batch.
    point_indices:
        Under ``on_error="skip"``, the original batch indices of the
        retained rows (failed rows are compressed away); ``None``
        otherwise.
    extra_names, extra_times_matrix:
        Lowered-variant shared-resource components (bus and
        coordination times): names in column order and their (K, Q)
        time matrix.  Empty / ``None`` for the base model.
    combine:
        ``"max"`` (concurrent, Equation 11) or ``"sum"`` (serialized,
        Equation 19) — how per-point component times became the
        attainable bound.
    folded_memory:
        True when each IP's time already folds its ``Di / Bpeak`` DRAM
        term (the serialized regime); ``memory_times`` is then zero.
    """

    component_names: tuple
    fractions: np.ndarray
    intensities: np.ndarray
    compute_times: np.ndarray
    data_bytes: np.ndarray
    transfer_times: np.ndarray
    ip_times: np.ndarray
    memory_times: np.ndarray
    memory_perf_bounds: np.ndarray
    average_intensities: np.ndarray
    attainables: np.ndarray
    bottleneck_codes: np.ndarray
    valid: np.ndarray | None = None
    errors: tuple = ()
    point_indices: np.ndarray | None = None
    extra_names: tuple = ()
    extra_times_matrix: np.ndarray | None = None
    combine: str = "max"
    folded_memory: bool = False

    def __len__(self) -> int:
        """Number of evaluated points K."""
        return self.attainables.shape[0]

    @property
    def n_ips(self) -> int:
        """Number of IPs N."""
        return len(self.component_names) - 1 - len(self.extra_names)

    @property
    def memory_code(self) -> int:
        """The ``bottleneck_codes`` value meaning "memory binds"."""
        return self.n_ips

    def bottleneck(self, index: int) -> str:
        """The binding component's name at point ``index``.

        Failed points under a tolerant mode report ``"invalid"``.
        """
        code = int(self.bottleneck_codes[index])
        if code < 0:
            return "invalid"
        return self.component_names[code]

    def bottlenecks(self) -> tuple:
        """Binding component names for every point, in batch order."""
        names = self.component_names
        return tuple(
            "invalid" if code < 0 else names[code]
            for code in self.bottleneck_codes.tolist()
        )

    def result(self, index: int) -> GablesResult:
        """Materialize point ``index`` as a full scalar result object.

        Reconstructs the per-IP :class:`~repro.core.result.IPTerm`
        records (limiter attribution, dual bounds) and the tied-binding
        set exactly as the scalar evaluator reports them, so code built
        against :class:`GablesResult` can drill into one batch point.
        """
        if not 0 <= index < len(self):
            raise EvaluationError(
                f"batch index {index} out of range for K={len(self)}"
            )
        if self.valid is not None and not bool(self.valid[index]):
            failure = next(
                (f for f in self.errors if f.coords == (index,)), None
            )
            detail = (
                f" ({failure.code}: {failure.message})"
                if failure is not None
                else ""
            )
            raise EvaluationError(
                f"batch point {index} failed during tolerant "
                f"evaluation{detail}"
            )
        terms = []
        for i, name in enumerate(self.component_names[: self.n_ips]):
            fraction = float(self.fractions[index, i])
            time = float(self.ip_times[index, i])
            compute_time = float(self.compute_times[index, i])
            transfer_time = float(self.transfer_times[index, i])
            if fraction == 0:
                limiter = "idle"
                perf_bound = None
            elif self.folded_memory and time > max(
                transfer_time, compute_time
            ):
                # The folded Di/Bpeak term strictly dominates: the IP is
                # bound by its own DRAM traffic (serialized regime).
                limiter = "memory"
                perf_bound = math.inf if time == 0 else 1.0 / time
            else:
                limiter = (
                    "bandwidth" if transfer_time > compute_time else "compute"
                )
                perf_bound = math.inf if time == 0 else 1.0 / time
            terms.append(
                IPTerm(
                    index=i,
                    name=name,
                    fraction=fraction,
                    intensity=float(self.intensities[index, i]),
                    compute_time=compute_time,
                    data_bytes=float(self.data_bytes[index, i]),
                    transfer_time=transfer_time,
                    time=time,
                    perf_bound=perf_bound,
                    limiter=limiter,
                )
            )
        memory_time = float(self.memory_times[index])
        extra = {
            name: float(self.extra_times_matrix[index, j])
            for j, name in enumerate(self.extra_names)
        }
        times = {term.name: term.time for term in terms}
        if self.combine == "max":
            times[MEMORY] = memory_time
            times.update(extra)
        binding_time = max(times.values())
        binding = tuple(
            name
            for name, t in times.items()
            if math.isclose(t, binding_time, rel_tol=BINDING_REL_TOL)
        )
        return GablesResult(
            ip_terms=tuple(terms),
            memory_time=memory_time,
            memory_perf_bound=float(self.memory_perf_bounds[index]),
            average_intensity=float(self.average_intensities[index]),
            attainable=float(self.attainables[index]),
            bottleneck=self.bottleneck(index),
            binding_components=binding,
            extra_times=extra,
        )


def _as_batch_matrix(values, n_ips: int, name: str, exc: type) -> np.ndarray:
    """Coerce per-IP input to a float (K, N) matrix."""
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise exc(f"{name} must be a (K, N) matrix, got shape {matrix.shape}")
    if matrix.shape[1] != n_ips:
        raise exc(
            f"{name} covers {matrix.shape[1]} IPs per point, "
            f"expected {n_ips}"
        )
    return matrix


#: How close to the ``FRACTION_SUM_TOL`` boundary a numpy row sum must
#: lie to be re-summed exactly.  Pairwise summation of up to thousands
#: of fractions in [0, 1] errs far less than this.
_SUM_MARGIN = 1e-12

#: Below this many IPs a row sum adds the columns in order.  numpy's
#: ``sum(axis=1)`` pays a fixed per-row cost that dwarfs a few column
#: adds, and for fewer than 8 terms it adds in order too (bitwise the
#: same totals); from 8 columns up its reduction is the faster one.
_IN_ORDER_MAX_IPS = 7


def _fraction_sums(fractions: np.ndarray) -> np.ndarray:
    """Per-row fraction sums that decide as ``Workload`` decides.

    A row sum (in column order below 8 IPs, numpy's pairwise
    ``sum(axis=1)`` from there) and the constructor's ``math.fsum`` can
    round to opposite sides of ``FRACTION_SUM_TOL``, so a row whose
    ``|sum - 1|`` lies within ``_SUM_MARGIN`` of the tolerance is
    re-summed with ``math.fsum``.  Only rows of finite fractions in
    [0, 1] are re-summed: the range check rejects the others, and
    ``math.fsum`` raises ``OverflowError`` on a row such as
    ``(1e308, 1e308, -1e308, ...)`` that numpy cancels to near one.
    """
    n = fractions.shape[1]
    if n <= _IN_ORDER_MAX_IPS:
        totals = fractions[:, 0].copy()
        for column in range(1, n):
            totals += fractions[:, column]
    else:
        totals = fractions.sum(axis=1)
    near = np.abs(np.abs(totals - 1.0) - FRACTION_SUM_TOL) <= _SUM_MARGIN
    for row in np.flatnonzero(near).tolist():
        values = fractions[row]
        if ((values >= 0) & (values <= 1)).all():
            totals[row] = math.fsum(values.tolist())
    return totals


def _validate_workload_arrays(
    fractions: np.ndarray, intensities: np.ndarray
) -> None:
    """Vectorized equivalent of the ``Workload`` constructor checks."""
    if not np.all(np.isfinite(fractions) & (fractions >= 0)
                  & (fractions <= 1)):
        raise WorkloadError(
            "batch fractions must be finite values in [0, 1]"
        )
    totals = _fraction_sums(fractions)
    if not np.all(np.abs(totals - 1.0) <= FRACTION_SUM_TOL):
        bad = int(np.argmax(np.abs(totals - 1.0)))
        raise WorkloadError(
            f"batch fractions must sum to 1 per point; point {bad} "
            f"sums to {float(totals[bad])!r}"
        )
    # Positive, possibly inf, never NaN — mirrors require_positive.
    if not np.all((intensities > 0) & ~np.isnan(intensities)):
        raise WorkloadError("batch intensities must be positive (inf allowed)")


def _validate_hardware_arrays(
    memory_bandwidth: np.ndarray,
    ip_bandwidths: np.ndarray,
    ip_peaks: np.ndarray,
) -> None:
    """Vectorized equivalent of the ``SoCSpec``/``IPBlock`` checks."""
    if not np.all(np.isfinite(memory_bandwidth) & (memory_bandwidth > 0)):
        raise SpecError(
            "batch memory_bandwidth values must be finite and positive"
        )
    if not np.all((ip_bandwidths > 0) & ~np.isnan(ip_bandwidths)):
        raise SpecError("batch IP bandwidths must be positive (inf allowed)")
    # A finite Ai * Ppeak can overflow to inf, which the scalar model
    # evaluates (the IP's compute time is 0).
    if not np.all((ip_peaks > 0) & ~np.isnan(ip_peaks)):
        raise SpecError("batch IP peaks must be positive (inf allowed)")


def _pointwise_failures(
    fractions: np.ndarray,
    intensities: np.ndarray,
    memory_bandwidth: np.ndarray,
    ip_bandwidths: np.ndarray,
    ip_peaks: np.ndarray,
) -> tuple:
    """Per-row validity for the tolerant ``on_error`` modes.

    Runs the same checks as the all-or-nothing validators but flags
    individual rows instead of raising, returning ``(valid_mask,
    failures)`` where each failure is ``(index, code, message)`` and a
    row keeps only its *first* failure (check order mirrors the scalar
    constructors: workload before hardware).
    """
    k = fractions.shape[0]
    valid = np.ones(k, dtype=bool)
    failures: list = []

    def flag(row_mask: np.ndarray, code: str, message: str) -> None:
        fresh = row_mask & valid
        for index in np.nonzero(fresh)[0].tolist():
            failures.append((index, code, message))
        valid[fresh] = False

    with np.errstate(invalid="ignore"):
        flag(
            ~(
                np.isfinite(fractions)
                & (fractions >= 0)
                & (fractions <= 1)
            ).all(axis=1),
            "WORKLOAD_FRACTION_RANGE",
            "fractions must be finite values in [0, 1]",
        )
        totals = _fraction_sums(fractions)
        flag(
            ~(np.abs(totals - 1.0) <= FRACTION_SUM_TOL),
            "WORKLOAD_FRACTION_SUM",
            "fractions must sum to 1",
        )
        flag(
            ~((intensities > 0) & ~np.isnan(intensities)).all(axis=1),
            "WORKLOAD_INTENSITY_NONPOSITIVE",
            "intensities must be positive (inf allowed)",
        )
        n = fractions.shape[1]
        bandwidth = np.broadcast_to(np.atleast_1d(memory_bandwidth), (k,))
        flag(
            ~(np.isfinite(bandwidth) & (bandwidth > 0)),
            "SPEC_NEGATIVE_BANDWIDTH",
            "memory_bandwidth must be finite and positive",
        )
        ip_bw = np.broadcast_to(ip_bandwidths, (k, n))
        flag(
            ~((ip_bw > 0) & ~np.isnan(ip_bw)).all(axis=1),
            "SPEC_NEGATIVE_BANDWIDTH",
            "IP bandwidths must be positive (inf allowed)",
        )
        peaks = np.broadcast_to(ip_peaks, (k, n))
        flag(
            ~((peaks > 0) & ~np.isnan(peaks)).all(axis=1),
            "SPEC_NONPOSITIVE_PEAK",
            "IP peaks must be positive (inf allowed)",
        )
    return valid, failures


def _resolve_engine(engine: str, on_error: str) -> str:
    """Map the three-way ``engine`` switch onto an executable choice.

    ``auto`` picks the compiled kernel whenever the batch qualifies;
    ``on_error="skip"`` compresses rows out of every array, which only
    the interpreter implements (``auto`` falls back silently,
    ``compiled`` refuses).
    """
    if engine not in ENGINE_CHOICES:
        raise SpecError(
            f"unknown engine {engine!r}; choose from "
            f"{', '.join(ENGINE_CHOICES)}"
        )
    if engine == "interpreted":
        return "interpreted"
    if on_error == "skip":
        if engine == "compiled":
            raise SpecError(
                "engine='compiled' does not support on_error='skip'; "
                "use engine='auto' or 'interpreted'"
            )
        return "interpreted"
    return "compiled"


def _compiled_call(
    soc, fractions, intensities, memory_bandwidth, ip_bandwidths, ip_peaks,
    valid, on_error, failures, phase,
):
    """Run the fused kernel, wiring the lazy interpreted replay (called
    like :func:`_evaluate_batch_impl`)."""
    kernel = compile_phase(soc, phase)
    valid_init = None if valid is None else valid.copy()
    failures_init = tuple(failures)

    def replay() -> BatchResult:
        return _evaluate_batch_impl(
            soc, fractions, intensities, memory_bandwidth, ip_bandwidths,
            ip_peaks,
            valid=None if valid_init is None else valid_init.copy(),
            on_error=on_error, failures=list(failures_init), phase=phase,
        )

    return kernel(
        fractions, intensities, memory_bandwidth, ip_bandwidths, ip_peaks,
        valid=valid, on_error=on_error, failures=failures,
        route_solver=None if phase is None else phase.route_solver,
        replay=replay,
    )


def evaluate_batch(
    soc: SoCSpec,
    fractions,
    intensities,
    *,
    memory_bandwidth=None,
    ip_bandwidths=None,
    ip_peaks=None,
    validate: bool = True,
    on_error: str = "raise",
    engine: str = "auto",
) -> BatchResult:
    """Evaluate Equations 9-11 over K parameter points in one shot.

    Parameters
    ----------
    soc:
        The SoC supplying IP names and default hardware rates.
    fractions, intensities:
        (K, N) arrays (an (N,) vector is promoted to K=1): row ``k``
        is one workload's ``fi`` / ``Ii`` vector.
    memory_bandwidth:
        Optional ``Bpeak`` override — a scalar or (K,) array, one value
        per point (a ``Bpeak`` sweep is a batch over this axis).
    ip_bandwidths, ip_peaks:
        Optional per-IP hardware overrides, broadcastable to (K, N).
        ``ip_peaks`` holds *absolute* engine rates ``Ai * Ppeak`` in
        ops/s.
    validate:
        When True (default), run the vectorized equivalent of the
        scalar constructors' validation over every point.  Callers
        batching already-validated :class:`Workload` objects may pass
        False to skip the redundant pass.
    on_error:
        ``"raise"`` (default) aborts on the first bad point, exactly
        as before.  ``"record"`` evaluates every point it can: invalid
        rows stay in the batch with NaN outputs and code ``-1``
        bottlenecks, and each failure is captured as a
        :class:`repro.resilience.PointFailure` in ``errors`` — the
        valid rows are bitwise identical to an all-valid run.
        ``"skip"`` additionally compresses the failed rows out of the
        arrays, recording the surviving rows' original indices in
        ``point_indices``.  Structural problems (mismatched shapes, an
        empty batch) always raise.

    engine:
        ``"auto"`` (default) runs the fused compiled kernel
        (:mod:`repro.core.compile`) whenever the batch qualifies and
        falls back to the interpreter otherwise (``on_error="skip"``);
        ``"compiled"`` forces the kernel (raising when unsupported);
        ``"interpreted"`` forces the original engine.  Both engines
        produce bitwise-identical numbers; the compiled path returns a
        lazy :class:`~repro.core.compile.FusedBatchResult` duck-type.

    The inputs are coerced and validated on every call, so a caller
    that edits its arrays in place gets the edited values' numbers and
    errors.

    Returns a :class:`BatchResult`; raises the same exception types as
    the scalar constructors and evaluator (:class:`WorkloadError` for
    bad workload arrays, :class:`SpecError` for bad hardware arrays,
    :class:`EvaluationError` for degenerate all-zero-time points).
    """
    return _evaluate(
        soc, None, fractions, intensities, memory_bandwidth, ip_bandwidths,
        ip_peaks, validate, on_error, engine,
    )


def evaluate_lowered_batch(
    soc: SoCSpec,
    phase: LoweredPhase,
    fractions,
    intensities,
    *,
    memory_bandwidth=None,
    ip_bandwidths=None,
    ip_peaks=None,
    validate: bool = True,
    on_error: str = "raise",
    engine: str = "auto",
) -> BatchResult:
    """Vectorized backend of the lowered pipeline: one phase, K points.

    Evaluates a single :class:`~repro.core.lowering.LoweredPhase` —
    any single-phase model variant (base, serialized, memory-side,
    interconnect, multipath, coordination) — over K workload points
    with the same hardware overrides, validation, and tolerant
    ``on_error`` semantics as :func:`evaluate_batch`.  The phase's own
    ``workload`` attribute is ignored: the grid supplies the workload
    vectors (multi-phase models are sequenced one batch per phase by
    :func:`repro.core.variants.evaluate_variant_batch`).

    Extra shared-resource components (bus and coordination times) come
    back as the :attr:`BatchResult.extra_times_matrix` columns and
    participate in per-point bottleneck attribution exactly as in the
    scalar engine.  Agreement with the scalar backend is within 1e-12
    relative (the reduction-order caveat in the module docstring).

    ``engine`` selects the execution tier exactly as in
    :func:`evaluate_batch`; route-solver phases stay compiled — only
    the per-point solver callback itself runs in Python, with the
    surrounding arithmetic fused.
    """
    return _evaluate(
        soc, phase, fractions, intensities, memory_bandwidth, ip_bandwidths,
        ip_peaks, validate, on_error, engine,
    )


def _evaluate(
    soc, phase, fractions, intensities, memory_bandwidth, ip_bandwidths,
    ip_peaks, validate, on_error, engine,
):
    """The one body behind both batch entry points.

    ``phase=None`` is the base model and keeps the
    ``core.evaluate_batch`` span and counters; a lowered phase reports
    as ``core.evaluate_lowered_batch``.
    """
    use = _resolve_engine(engine, on_error)
    (
        fractions, intensities, memory_bandwidth, ip_bandwidths, ip_peaks,
        valid, failures, k,
    ) = prepare_batch(
        soc, fractions, intensities, memory_bandwidth, ip_bandwidths,
        ip_peaks, validate, on_error,
    )
    if phase is None:
        name = "core.evaluate_batch"
        _BATCH_CALLS.inc()
    else:
        name = "core.evaluate_lowered_batch"
        _LOWERED_CALLS.inc()
    _BATCH_POINTS.inc(k)
    run = _compiled_call if use == "compiled" else _evaluate_batch_impl
    # One span per batch — never one per point; a shared no-op
    # singleton while tracing is off.
    with _span(name, soc=soc.name, points=k, engine=use):
        return run(
            soc, fractions, intensities, memory_bandwidth, ip_bandwidths,
            ip_peaks, valid=valid, on_error=on_error, failures=failures,
            phase=phase,
        )


def prepare_batch(
    soc: SoCSpec,
    fractions,
    intensities,
    memory_bandwidth,
    ip_bandwidths,
    ip_peaks,
    validate: bool,
    on_error: str,
) -> tuple:
    """Coerce and validate raw batch inputs; the batch's one way in.

    Both entry points call this on every call, so an input edited in
    place between calls is judged afresh.  Returns ``(fractions,
    intensities, memory_bandwidth, ip_bandwidths, ip_peaks, valid,
    failures, k)`` as the evaluators take them.
    """
    check_on_error(on_error)
    n = soc.n_ips
    fractions = _as_batch_matrix(fractions, n, "fractions", WorkloadError)
    intensities = _as_batch_matrix(
        intensities, n, "intensities", WorkloadError
    )
    if fractions.shape != intensities.shape:
        raise WorkloadError(
            f"fractions and intensities must have the same shape, "
            f"got {fractions.shape} and {intensities.shape}"
        )
    k = fractions.shape[0]
    if k == 0:
        # Structural, so it raises under every validate/on_error mode.
        raise WorkloadError("batch needs at least one point")

    if memory_bandwidth is None:
        memory_bandwidth = np.asarray(soc.memory_bandwidth, dtype=float)
    else:
        memory_bandwidth = np.asarray(memory_bandwidth, dtype=float)
        if memory_bandwidth.ndim > 1 or (
            memory_bandwidth.ndim == 1 and memory_bandwidth.shape[0] != k
        ):
            raise SpecError(
                "memory_bandwidth must be a scalar or a (K,) array"
            )
    if ip_bandwidths is None:
        ip_bandwidths = np.array([ip.bandwidth for ip in soc.ips])
    else:
        ip_bandwidths = _as_batch_matrix(
            ip_bandwidths, n, "ip_bandwidths", SpecError
        )
    if ip_peaks is None:
        ip_peaks = np.array([soc.ip_peak(i) for i in range(n)])
    else:
        ip_peaks = _as_batch_matrix(ip_peaks, n, "ip_peaks", SpecError)

    valid = None
    failures: list = []
    if on_error == "raise":
        if validate:
            _validate_workload_arrays(fractions, intensities)
            _validate_hardware_arrays(
                memory_bandwidth, ip_bandwidths, ip_peaks
            )
    elif validate:
        valid, failures = _pointwise_failures(
            fractions, intensities, memory_bandwidth, ip_bandwidths,
            ip_peaks,
        )
    else:
        valid = np.ones(k, dtype=bool)
    return (
        fractions, intensities, memory_bandwidth, ip_bandwidths, ip_peaks,
        valid, failures, k,
    )


def _evaluate_batch_impl(
    soc: SoCSpec,
    fractions: np.ndarray,
    intensities: np.ndarray,
    memory_bandwidth: np.ndarray,
    ip_bandwidths: np.ndarray,
    ip_peaks: np.ndarray,
    valid: np.ndarray | None = None,
    on_error: str = "raise",
    failures: list | None = None,
    phase: LoweredPhase | None = None,
) -> BatchResult:
    k = fractions.shape[0]
    combine = "max" if phase is None else phase.combine
    folded = phase is not None and phase.fold_memory_per_ip
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Equation 9 per point: Ci = fi / (Ai * Ppeak); Di = fi / Ii
        # (f / inf == 0.0 covers the perfect-reuse case the scalar path
        # special-cases); transfer = Di / Bi; T_IP = max of the two.
        compute_times = fractions / ip_peaks
        data_bytes = fractions / intensities
        transfer_times = data_bytes / ip_bandwidths
        ip_times = np.maximum(transfer_times, compute_times)

        mem_bw_col = (
            memory_bandwidth[:, np.newaxis]
            if memory_bandwidth.ndim == 1
            else memory_bandwidth
        )
        if folded:
            # Equation 18: each IP also pays Di / Bpeak itself.
            ip_times = np.maximum(ip_times, data_bytes / mem_bw_col)

        # Host coordination: serialized dispatch work lands on IP[0]
        # and joins the bottleneck set as its own component.
        t_coord = None
        if phase is not None and phase.dispatch_seconds is not None:
            dispatch = np.asarray(phase.dispatch_seconds, dtype=float)
            active = fractions[:, 1:] > 0
            t_coord = (
                np.where(active, dispatch[1:], 0.0).sum(axis=1)
                / phase.ops_per_item
            )
            if np.any(t_coord > 0):
                if COORDINATION in soc.ip_names:
                    raise SpecError(
                        f"component name {COORDINATION!r} collides with "
                        "an IP"
                    )
                ip_times[:, 0] = ip_times[:, 0] + t_coord
            else:
                t_coord = None

        # Equation 10: Tmemory = sum(Di) / Bpeak, and the Iavg dual —
        # with the memory-side filter (Eq. 15) or the serialized fold
        # (memory term leaves the comparison) applied as lowered.
        total_bytes = data_bytes.sum(axis=1)
        if phase is not None and phase.memory_weights is not None:
            weights = np.asarray(phase.memory_weights, dtype=float)
            filtered_bytes = (data_bytes * weights).sum(axis=1)
            memory_times = filtered_bytes / memory_bandwidth
            average_intensities = np.where(
                filtered_bytes == 0, np.inf, 1.0 / filtered_bytes
            )
            memory_perf_bounds = np.where(
                memory_times == 0,
                np.inf,
                memory_bandwidth * average_intensities,
            )
        elif phase is not None and not phase.include_memory:
            memory_times = np.zeros(k)
            average_intensities = np.where(
                total_bytes == 0, np.inf, 1.0 / total_bytes
            )
            memory_perf_bounds = np.full(k, np.inf)
        else:
            memory_times = total_bytes / memory_bandwidth
            average_intensities = np.where(
                total_bytes == 0, np.inf, 1.0 / total_bytes
            )
            memory_perf_bounds = np.where(
                memory_times == 0,
                np.inf,
                memory_bandwidth * average_intensities,
            )

        # Extra shared-resource columns: fixed buses (Eq. 16), then
        # solver-assigned bus loads, then the coordination component.
        extra_cols: list = []
        extra_names: list = []
        if phase is not None:
            for bus in phase.buses:
                weights = np.asarray(bus.traffic_weights, dtype=float)
                extra_cols.append(
                    (data_bytes * weights).sum(axis=1) / bus.bandwidth
                )
                extra_names.append(bus.name)
            if phase.route_solver is not None:
                solver = phase.route_solver
                solved = np.zeros((k, len(solver.bus_names)))
                rows = (
                    range(k)
                    if valid is None
                    else np.nonzero(valid)[0].tolist()
                )
                for index in rows:
                    row = data_bytes[index]
                    times = solver(row.tolist())
                    solved[index] = [times[b] for b in solver.bus_names]
                extra_cols.extend(
                    solved[:, j] for j in range(len(solver.bus_names))
                )
                extra_names.extend(solver.bus_names)
            if extra_names:
                overlap = (set(soc.ip_names) | {MEMORY}) & set(extra_names)
                if overlap:
                    raise SpecError(
                        f"bus names collide with IP/memory names: "
                        f"{sorted(overlap)!r}"
                    )
        if t_coord is not None:
            extra_cols.append(t_coord)
            extra_names.append(COORDINATION)
        extra_matrix = (
            np.column_stack(extra_cols) if extra_cols else None
        )

        # Equation 11 (or 19) plus bottleneck attribution: binding
        # component is the *first* (IP order, memory, then extras)
        # whose time ties the max within BINDING_REL_TOL — same rule
        # as pick_bottleneck().
        if combine == "sum":
            all_times = ip_times
            total_times = ip_times.sum(axis=1)
            if on_error == "raise":
                if not np.all(total_times > 0):
                    raise EvaluationError(
                        "serialized usecase takes zero time"
                    )
            else:
                progressing = total_times > 0
                degenerate = valid & ~progressing
                for index in np.nonzero(degenerate)[0].tolist():
                    failures.append((
                        index,
                        "EVAL_DEGENERATE_POINT",
                        "serialized usecase takes zero time",
                    ))
                valid = valid & progressing
            attainables = 1.0 / total_times
            binding = all_times.max(axis=1)
        else:
            columns = [ip_times, memory_times[:, np.newaxis]]
            if extra_matrix is not None:
                columns.append(extra_matrix)
            all_times = np.concatenate(columns, axis=1)
            binding = all_times.max(axis=1)
            if on_error == "raise":
                if not np.all(binding > 0):
                    bad = int(np.argmin(binding > 0))
                    raise EvaluationError(
                        f"degenerate usecase at batch point {bad}: every "
                        "component takes zero time"
                    )
            else:
                # NaN compares False, so invalid rows are excluded too.
                progressing = binding > 0
                degenerate = valid & ~progressing
                for index in np.nonzero(degenerate)[0].tolist():
                    failures.append((
                        index,
                        "EVAL_DEGENERATE_POINT",
                        "degenerate usecase: every component takes zero "
                        "time",
                    ))
                valid = valid & progressing
            attainables = 1.0 / binding
        binding_col = binding[:, np.newaxis]
        ties = (all_times == binding_col) | (
            np.abs(all_times - binding_col)
            <= BINDING_REL_TOL * np.maximum(np.abs(all_times), binding_col)
        )
        bottleneck_codes = ties.argmax(axis=1)

    errors = ()
    point_indices = None
    if on_error != "raise":
        failures.sort(key=lambda item: item[0])
        errors = tuple(
            point_failure((index,), code, message)
            for index, code, message in failures
        )
        # Masking touches only the freshly computed arrays (never the
        # echoed inputs), so every valid row keeps the exact bit
        # pattern an all-valid run produces.
        bottleneck_codes = np.where(valid, bottleneck_codes, -1)
        invalid = ~valid
        for array in (
            attainables, memory_times, memory_perf_bounds,
            average_intensities,
        ):
            array[invalid] = np.nan
        for array in (compute_times, data_bytes, transfer_times, ip_times):
            array[invalid, :] = np.nan
        if extra_matrix is not None:
            extra_matrix[invalid, :] = np.nan
        if on_error == "skip":
            point_indices = np.nonzero(valid)[0]
            keep = point_indices
            fractions = fractions[keep]
            intensities = intensities[keep]
            compute_times = compute_times[keep]
            data_bytes = data_bytes[keep]
            transfer_times = transfer_times[keep]
            ip_times = ip_times[keep]
            memory_times = memory_times[keep]
            memory_perf_bounds = memory_perf_bounds[keep]
            average_intensities = average_intensities[keep]
            attainables = attainables[keep]
            bottleneck_codes = bottleneck_codes[keep]
            if extra_matrix is not None:
                extra_matrix = extra_matrix[keep]
            valid = np.ones(keep.shape[0], dtype=bool)

    return BatchResult(
        component_names=soc.ip_names + (MEMORY,) + tuple(extra_names),
        fractions=fractions,
        intensities=intensities,
        compute_times=compute_times,
        data_bytes=data_bytes,
        transfer_times=transfer_times,
        ip_times=ip_times,
        memory_times=memory_times,
        memory_perf_bounds=memory_perf_bounds,
        average_intensities=average_intensities,
        attainables=attainables,
        bottleneck_codes=bottleneck_codes,
        valid=valid,
        errors=errors,
        point_indices=point_indices,
        extra_names=tuple(extra_names),
        extra_times_matrix=extra_matrix,
        combine=combine,
        folded_memory=folded,
    )


def fraction_grid(base_fractions, ip_index: int, values) -> np.ndarray:
    """Vectorized :meth:`~repro.core.params.Workload.with_fraction_at`.

    Builds the (K, N) fraction matrix of an f-sweep: row ``k`` assigns
    ``values[k]`` to IP ``ip_index`` and redistributes the remainder
    among the other IPs proportionally to their base fractions (or
    entirely to IP[0] when all other base fractions are zero), with the
    same exact renormalization as the scalar method.
    """
    base = np.asarray(base_fractions, dtype=float)
    n = base.shape[0]
    if not 0 <= ip_index < n:
        raise WorkloadError(f"IP index {ip_index} out of range for N={n}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise WorkloadError("sweep values must be a 1-D sequence")
    if not np.all(np.isfinite(values) & (values >= 0) & (values <= 1)):
        raise WorkloadError("swept fractions must lie in [0, 1]")

    other_total = math.fsum(
        f for i, f in enumerate(base.tolist()) if i != ip_index
    )
    k = values.shape[0]
    if other_total > 0:
        # Same op order as the scalar path: (1 - f) * fj, then / total.
        grid = ((1.0 - values)[:, np.newaxis] * base) / other_total
    else:
        grid = np.zeros((k, n))
        if ip_index != 0:
            grid[:, 0] = 1.0 - values
    grid[:, ip_index] = values
    totals = grid.sum(axis=1)
    drifted = (totals > 0) & (totals != 1.0)
    if np.any(drifted):
        grid[drifted] /= totals[drifted, np.newaxis]
    return grid
