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
:func:`evaluate_lowered_batch` (one lowered phase) share one body, and
every verdict a batch gives is made there, once, whichever engine runs:

- :func:`prepare_batch` coerces the inputs and checks them against one
  ordered table of the scalar constructors' rules (``_RULES``).  Under
  ``on_error="raise"`` the first rule any point breaks raises over the
  batch; under ``"record"`` and ``"skip"`` each row keeps the first rule
  it breaks.  A row's work fractions pass when, as in ``Workload``,
  their ``math.fsum`` lies within ``FRACTION_SUM_TOL`` of one
  (:func:`_fraction_sums`).
- An engine computes, under a single span: the interpreter in this
  module, which is the ground truth, or the one compiled tier, the fused
  ufunc kernel of :mod:`repro.core.compile`.
- ``_judge`` rules on the engine's output.  A point whose every
  component takes zero time has no bound (Equation 11); every failed
  point becomes one :class:`~repro.resilience.PointFailure`.
  ``_apply_verdict`` then writes NaN and code ``-1`` into the failed
  rows of every computed array (never into the echoed inputs) and, under
  ``"skip"``, compresses them out.

The compiled engine returns a :class:`FusedBatchResult`: the bound and
its attribution are eager, and the per-term matrices and
:meth:`~FusedBatchResult.result` drill-downs are replayed by the
interpreter on first access, under the original call's verdict.
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


class _Attribution:
    """The attribution helpers both batch result types share."""

    __slots__ = ()

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


@dataclass(frozen=True)
class BatchResult(_Attribution):
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
        extra = {
            name: float(self.extra_times_matrix[index, j])
            for j, name in enumerate(self.extra_names)
        }
        # As in the scalar fold, coordination is a component only on a
        # point that dispatches work, and then it lands on the host.
        if extra.get(COORDINATION) == 0:
            del extra[COORDINATION]
        terms = []
        for i, name in enumerate(self.component_names[: self.n_ips]):
            fraction = float(self.fractions[index, i])
            time = float(self.ip_times[index, i])
            compute_time = float(self.compute_times[index, i])
            transfer_time = float(self.transfer_times[index, i])
            if fraction == 0:
                limiter = "idle"
                perf_bound = (
                    1.0 / time if i == 0 and COORDINATION in extra else None
                )
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


class FusedBatchResult(_Attribution):
    """A compiled-engine batch result: eager bound, lazy drill-down.

    Duck-types :class:`BatchResult`.  The kernel computes only what the
    bound needs, ``attainables`` and ``bottleneck_codes``; ``valid``,
    ``errors`` and ``point_indices`` are the call's verdict.  The other
    fields (``ip_times``, ``data_bytes``, ``memory_perf_bounds``, ...)
    and :meth:`result` reconstructions materialize on first access: the
    interpreter replays the call on its inputs and the call's verdict is
    applied to the replay, so drill-down values match the interpreted
    engine bitwise and no failure is recorded twice.
    """

    __slots__ = (
        "component_names",
        "attainables",
        "bottleneck_codes",
        "valid",
        "errors",
        "point_indices",
        "extra_names",
        "combine",
        "folded_memory",
        "_replay",
        "_full",
    )

    def __init__(
        self,
        *,
        component_names: tuple,
        attainables: np.ndarray,
        bottleneck_codes: np.ndarray,
        valid: np.ndarray | None,
        errors: tuple,
        point_indices: np.ndarray | None,
        extra_names: tuple,
        combine: str,
        folded_memory: bool,
        replay,
    ) -> None:
        self.component_names = component_names
        self.attainables = attainables
        self.bottleneck_codes = bottleneck_codes
        self.valid = valid
        self.errors = errors
        self.point_indices = point_indices
        self.extra_names = extra_names
        self.combine = combine
        self.folded_memory = folded_memory
        self._replay = replay
        self._full = None

    def materialize(self) -> BatchResult:
        """The full interpreted :class:`BatchResult` for this call
        (replayed once, then kept on the instance)."""
        if self._full is None:
            self._full = self._replay()
        return self._full

    def result(self, index: int) -> GablesResult:
        """Materialize point ``index`` as a full scalar result object."""
        return self.materialize().result(index)

    def __getattr__(self, name: str):
        if name in BatchResult.__dataclass_fields__:
            return getattr(self.materialize(), name)
        raise AttributeError(name)


def _private(array: np.ndarray, values) -> np.ndarray:
    """``array``, copied when it shares memory with a writeable ndarray
    the caller passed, so that no result reads a later edit of it.  A
    read-only view (an ``np.broadcast_to`` grid) is not copied."""
    if (
        isinstance(values, np.ndarray)
        and values.flags.writeable
        and np.may_share_memory(array, values)
    ):
        return array.copy()
    return array


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
    return _private(matrix, values)


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


def _in_unit_range(values: np.ndarray) -> np.ndarray:
    """In ``[0, 1]``: both comparisons are False for NaN and +-inf."""
    return (values >= 0) & (values <= 1)


def _sums_to_one(fractions: np.ndarray) -> np.ndarray:
    return np.abs(_fraction_sums(fractions) - 1.0) <= FRACTION_SUM_TOL


def _positive(values: np.ndarray) -> np.ndarray:
    """Positive, possibly inf, never NaN (``> 0`` is False for NaN):
    ``require_positive``."""
    return values > 0


def _finite_positive(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (values > 0)


#: The scalar constructors' checks in the order they run (``Workload``,
#: then ``SoCSpec``/``IPBlock``).  Each rule: error code, exception
#: type, message, the position of the checked input in
#: ``prepare_batch``'s inputs, whether that input has a trailing IP
#: axis, and the elementwise test its acceptable values pass.
_RULES = (
    ("WORKLOAD_FRACTION_RANGE", WorkloadError,
     "fractions must be finite values in [0, 1]", 0, True, _in_unit_range),
    ("WORKLOAD_FRACTION_SUM", WorkloadError,
     "fractions must sum to 1", 0, False, _sums_to_one),
    ("WORKLOAD_INTENSITY_NONPOSITIVE", WorkloadError,
     "intensities must be positive (inf allowed)", 1, True, _positive),
    ("SPEC_NEGATIVE_BANDWIDTH", SpecError,
     "memory_bandwidth must be finite and positive", 2, False,
     _finite_positive),
    ("SPEC_NEGATIVE_BANDWIDTH", SpecError,
     "IP bandwidths must be positive (inf allowed)", 3, True, _positive),
    # A finite Ai * Ppeak can overflow to inf, which the scalar model
    # evaluates (the IP's compute time is 0).
    ("SPEC_NONPOSITIVE_PEAK", SpecError,
     "IP peaks must be positive (inf allowed)", 4, True, _positive),
)


def _validate(inputs: tuple, on_error: str) -> tuple:
    """Check the coerced ``inputs`` against ``_RULES``.

    Under ``"raise"`` the first rule any point breaks raises over the
    whole batch, and ``(None, [])`` comes back.  The tolerant modes
    return ``(valid, failures)``: each row keeps the first rule it
    breaks, as one ``(index, code, message)`` failure.
    """
    if on_error == "raise":
        for _, exc, message, arg, _, accepts in _RULES:
            if not np.all(accepts(inputs[arg])):
                if accepts is _sums_to_one:
                    totals = _fraction_sums(inputs[0])
                    bad = int(np.argmax(np.abs(totals - 1.0)))
                    message += (
                        f" per point; point {bad} sums to "
                        f"{float(totals[bad])!r}"
                    )
                raise exc(f"batch {message}")
        return None, []
    k, n = inputs[0].shape
    valid = np.ones(k, dtype=bool)
    failures: list = []
    with np.errstate(invalid="ignore", over="ignore"):
        for code, _, message, arg, per_ip, accepts in _RULES:
            ok = accepts(inputs[arg])
            if per_ip:
                ok = np.broadcast_to(ok, (k, n)).all(axis=1)
            else:
                ok = np.broadcast_to(ok, (k,))
            failures.extend(
                (index, code, message)
                for index in np.flatnonzero(valid & ~ok).tolist()
            )
            valid &= ok
    return valid, failures


def _resolve_engine(engine: str) -> str:
    """The engine a batch runs on; ``"auto"`` is the compiled kernel."""
    if engine not in ENGINE_CHOICES:
        raise SpecError(
            f"unknown engine {engine!r}; choose from "
            f"{', '.join(ENGINE_CHOICES)}"
        )
    return "interpreted" if engine == "interpreted" else "compiled"


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
        ``"auto"`` (default) and ``"compiled"`` run the fused compiled
        kernel (:mod:`repro.core.compile`); ``"interpreted"`` runs the
        interpreter.  Both engines produce bitwise-identical numbers
        and the same verdict in every ``on_error`` mode; the compiled
        path returns a lazy :class:`FusedBatchResult` duck-type.

    The inputs are coerced and validated on every call, so a caller
    that edits its arrays in place gets the edited values' numbers and
    errors; a writeable array the caller passed is copied, so a later
    edit changes no result already returned.

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
    use = _resolve_engine(engine)
    prepared = prepare_batch(
        soc, fractions, intensities, memory_bandwidth, ip_bandwidths,
        ip_peaks, validate, on_error,
    )
    k = prepared[0][0].shape[0]
    if phase is None:
        name = "core.evaluate_batch"
        _BATCH_CALLS.inc()
    else:
        name = "core.evaluate_lowered_batch"
        _LOWERED_CALLS.inc()
    _BATCH_POINTS.inc(k)
    # One span per batch — never one per point; a shared no-op
    # singleton while tracing is off.
    with _span(name, soc=soc.name, points=k, engine=use):
        return _run(soc, phase, prepared, on_error, use)


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
    place between calls is judged afresh.  Returns ``(inputs, valid,
    failures)``: the coerced ``(fractions, intensities,
    memory_bandwidth, ip_bandwidths, ip_peaks)``, then the validation
    verdict (``valid`` is ``None`` under ``"raise"``; failures are
    ``(index, code, message)``).
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
        memory_bandwidth = _private(
            np.asarray(memory_bandwidth, dtype=float), memory_bandwidth
        )
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

    inputs = (
        fractions, intensities, memory_bandwidth, ip_bandwidths, ip_peaks
    )
    if validate:
        return (inputs, *_validate(inputs, on_error))
    return inputs, None if on_error == "raise" else np.ones(k, dtype=bool), []


def _run(soc, phase, prepared: tuple, on_error: str, use: str):
    """One prepared batch call: the engine computes, then the verdict."""
    inputs, valid, failures = prepared
    if use == "interpreted":
        fields, progress = _evaluate_batch_impl(
            soc, *inputs, valid=valid, phase=phase
        )
    else:
        fields, progress = compile_phase(soc, phase)(
            *inputs, valid=valid,
            route_solver=None if phase is None else phase.route_solver,
        )
    valid, errors = _judge(progress, valid, failures, fields["combine"])
    fields = _apply_verdict(fields, valid, on_error)
    if use == "interpreted":
        return BatchResult(errors=errors, **fields)

    def replay() -> BatchResult:
        full, _ = _evaluate_batch_impl(soc, *inputs, valid=valid, phase=phase)
        return BatchResult(errors=errors, **_apply_verdict(full, valid, on_error))

    return FusedBatchResult(errors=errors, replay=replay, **fields)


#: The verdict on a point whose every component takes zero time, per
#: combine rule: the message raised over the batch (``{bad}`` is the
#: first such point) and the one a tolerant mode records.
_DEGENERATE = {
    "max": (
        "degenerate usecase at batch point {bad}: every component takes "
        "zero time",
        "degenerate usecase: every component takes zero time",
    ),
    "sum": (
        "serialized usecase takes zero time",
        "serialized usecase takes zero time",
    ),
}


def _judge(progress, valid, failures: list, combine: str) -> tuple:
    """Rule on an engine's output; returns ``(valid, errors)``.

    ``progress`` is each row's binding time (or serialized total): a
    row whose progress is not positive has no bound (Equation 11).
    Under ``"raise"`` (``valid is None``) such a row raises over the
    batch.  Otherwise it fails as ``EVAL_DEGENERATE_POINT`` beside the
    validation ``failures``, and each failure becomes one
    :class:`~repro.resilience.PointFailure`, in row order: the one place
    a batch builds them.
    """
    raised, recorded = _DEGENERATE[combine]
    if valid is None:
        # min > 0 is all(progress > 0), a NaN row included.
        if not np.min(progress) > 0:
            bad = int(np.argmin(progress > 0))
            raise EvaluationError(raised.format(bad=bad))
        return None, ()
    degenerate = np.flatnonzero(valid & ~(progress > 0)).tolist()
    valid[degenerate] = False
    failures = failures + [
        (index, "EVAL_DEGENERATE_POINT", recorded) for index in degenerate
    ]
    failures.sort(key=lambda failure: failure[0])
    return valid, tuple(
        point_failure((index,), code, message)
        for index, code, message in failures
    )


#: The per-row arrays an engine computes: a failed row reads NaN in each.
_COMPUTED = (
    "compute_times", "data_bytes", "transfer_times", "ip_times",
    "memory_times", "memory_perf_bounds", "average_intensities",
    "attainables", "extra_times_matrix",
)


def _apply_verdict(fields: dict, valid, on_error: str) -> dict:
    """Write the verdict into an engine's freshly computed ``fields``.

    A failed row reads NaN in every computed array and code ``-1``; the
    echoed inputs are never touched, so every valid row keeps the exact
    bit pattern of an all-valid run.  ``"skip"`` then compresses the
    failed rows out of every per-row array and keeps the surviving rows'
    original indices as ``point_indices``.
    """
    fields.update(valid=valid, point_indices=None)
    if valid is None:
        return fields
    invalid = ~valid
    fields["bottleneck_codes"][invalid] = -1
    computed = [name for name in _COMPUTED if fields.get(name) is not None]
    for name in computed:
        fields[name][invalid] = np.nan
    if on_error == "skip":
        keep = np.flatnonzero(valid)
        for name in (*computed, "bottleneck_codes", "fractions",
                     "intensities"):
            if name in fields:
                fields[name] = fields[name][keep]
        fields.update(
            valid=np.ones(keep.shape[0], dtype=bool), point_indices=keep
        )
    return fields


def _evaluate_batch_impl(
    soc: SoCSpec,
    fractions: np.ndarray,
    intensities: np.ndarray,
    memory_bandwidth: np.ndarray,
    ip_bandwidths: np.ndarray,
    ip_peaks: np.ndarray,
    valid: np.ndarray | None = None,
    phase: LoweredPhase | None = None,
) -> tuple:
    """The interpreter, the ground-truth engine.

    Returns ``(fields, progress)``: the :class:`BatchResult` fields it
    computes, before any verdict, and each row's binding time (or
    serialized total).  ``valid`` only picks the rows the route solver
    runs on.
    """
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
            progress = ip_times.sum(axis=1)
            binding = all_times.max(axis=1)
        else:
            columns = [ip_times, memory_times[:, np.newaxis]]
            if extra_matrix is not None:
                columns.append(extra_matrix)
            all_times = np.concatenate(columns, axis=1)
            binding = progress = all_times.max(axis=1)
        attainables = 1.0 / progress
        binding_col = binding[:, np.newaxis]
        ties = (all_times == binding_col) | (
            np.abs(all_times - binding_col)
            <= BINDING_REL_TOL * np.maximum(np.abs(all_times), binding_col)
        )
        bottleneck_codes = ties.argmax(axis=1)

    fields = dict(
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
        extra_names=tuple(extra_names),
        extra_times_matrix=extra_matrix,
        combine=combine,
        folded_memory=folded,
    )
    return fields, progress


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
