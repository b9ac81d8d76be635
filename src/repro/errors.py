"""Exception hierarchy for the Gables reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still being able to distinguish configuration problems from
evaluation problems.

Every subclass carries two stable, machine-readable attributes:

``code``
    A default ``UPPER_SNAKE`` error code.  Raise sites may attach a
    finer-grained code from :data:`FINE_GRAINED_CODES` via the
    keyword-only ``code=`` constructor argument — automated callers
    (batch drivers, the CLI, CI) dispatch on codes, never on message
    text.
``exit_code``
    The process exit status the CLI maps this class to.  Exit codes are
    distinct per class (and asserted so by ``tests/test_errors.py``),
    so shell pipelines can tell a malformed input file (8) from a
    measurement that never converged (10).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    code = "REPRO_ERROR"
    exit_code = 2

    def __init__(self, *args, code: str | None = None) -> None:
        super().__init__(*args)
        if code is not None:
            self.code = code


class SpecError(ReproError, ValueError):
    """A hardware specification is malformed or inconsistent.

    Raised when constructing or validating :class:`repro.core.SoCSpec`
    and related hardware description objects (e.g. a negative bandwidth,
    an acceleration ``A0 != 1`` for IP[0], or a bus matrix whose shape
    does not match the IP count).
    """

    code = "SPEC_INVALID"
    exit_code = 3


class WorkloadError(ReproError, ValueError):
    """A software usecase description is malformed.

    Raised for invalid work fractions (negative, or not summing to one),
    non-positive operational intensities, or a workload whose IP count
    does not match the SoC it is evaluated against.
    """

    code = "WORKLOAD_INVALID"
    exit_code = 4


class EvaluationError(ReproError, RuntimeError):
    """Model evaluation could not produce a well-defined answer."""

    code = "EVALUATION_FAILED"
    exit_code = 5


class SimulationError(ReproError, RuntimeError):
    """The simulated SoC substrate reached an inconsistent state."""

    code = "SIMULATION_FAILED"
    exit_code = 6


class FittingError(ReproError, RuntimeError):
    """Empirical roofline extraction failed (e.g. too few samples)."""

    code = "FITTING_FAILED"
    exit_code = 7


class SerializationError(ReproError, ValueError):
    """A document could not be encoded to or decoded from JSON."""

    code = "SERIALIZATION_FAILED"
    exit_code = 8


class ObservabilityError(ReproError, RuntimeError):
    """The instrumentation layer was misused or hit bad telemetry data.

    Raised by :mod:`repro.obs` for metric type conflicts (a name
    registered as a counter requested as a gauge), invalid metric
    updates, and malformed trace files handed to the summarizer.
    """

    code = "OBSERVABILITY_FAILED"
    exit_code = 9


class MeasurementError(ReproError, RuntimeError):
    """An empirical measurement failed and its retry budget ran out.

    Raised by the ERT sweep driver (:mod:`repro.ert.sweep`) when a
    sample drops out — an injected measurement fault, or a real one on
    hardware — and the active :class:`repro.resilience.RetryPolicy`
    exhausts its attempts.
    """

    code = "MEASUREMENT_FAILED"
    exit_code = 10


class ServeError(ReproError, RuntimeError):
    """The evaluation service rejected or could not finish a request.

    Raised by :mod:`repro.serve` for request-layer problems that are
    not model errors: malformed request envelopes, unknown endpoints,
    admission-control shedding, expired deadlines, a draining server,
    and worker crashes.  Raise sites always attach a fine-grained
    ``SERVE_*`` code from :data:`FINE_GRAINED_CODES`; the HTTP status
    each code maps to lives in :data:`repro.serve.HTTP_STATUS_BY_CODE`.
    """

    code = "SERVE_FAILED"
    exit_code = 11


#: Fine-grained instance codes raise sites attach via ``code=``, mapped
#: to the class that is allowed to carry them.  The catalog is the
#: contract automated callers dispatch on; ``tests/test_errors.py``
#: asserts it is unique and that every code maps to a ReproError class.
FINE_GRAINED_CODES: dict = {
    "SPEC_NEGATIVE_BANDWIDTH": SpecError,
    "SPEC_NONPOSITIVE_PEAK": SpecError,
    "WORKLOAD_FRACTION_RANGE": WorkloadError,
    "WORKLOAD_FRACTION_SUM": WorkloadError,
    "WORKLOAD_INTENSITY_NONPOSITIVE": WorkloadError,
    "EVAL_DEGENERATE_POINT": EvaluationError,
    "SERIALIZATION_NONFINITE": SerializationError,
    "MEASUREMENT_DROPOUT": MeasurementError,
    "MEASUREMENT_RETRIES_EXHAUSTED": MeasurementError,
    "SERVE_BAD_REQUEST": ServeError,
    "SERVE_UNKNOWN_ENDPOINT": ServeError,
    "SERVE_METHOD_NOT_ALLOWED": ServeError,
    "SERVE_PAYLOAD_TOO_LARGE": ServeError,
    "SERVE_DEADLINE_EXCEEDED": ServeError,
    "SERVE_OVERLOADED": ServeError,
    "SERVE_SHUTTING_DOWN": ServeError,
    "SERVE_WORKER_CRASHED": ServeError,
    "OBS_EXPOSITION_MALFORMED": ObservabilityError,
    "SLO_BAD_OBJECTIVE": ObservabilityError,
    "SLO_BURN_RATE_EXCEEDED": ObservabilityError,
}


def error_classes() -> tuple:
    """Every :class:`ReproError` subclass (including the base), sorted.

    Walks ``__subclasses__`` recursively so the catalog tests cannot go
    stale when a new subclass is added without a code.
    """
    seen = {ReproError}
    frontier = [ReproError]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                frontier.append(sub)
    return tuple(sorted(seen, key=lambda cls: cls.__name__))


def exit_code_for(err: BaseException) -> int:
    """The CLI exit status for an exception (2 for unknown ReproErrors)."""
    return int(getattr(err, "exit_code", 2))
