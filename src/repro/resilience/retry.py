"""Retry and outlier rejection for noisy measurement.

The ERT methodology the paper adopts already assumes repetition ("we
repeatedly benchmark this kernel ... to seek the best achievable
performance"); this module adds the *failure* half of that story: a
sample that drops out is measured again, up to a fixed number of
attempts, and an anomalous sample is kept from polluting the best-of
reduction.

:class:`RetryPolicy` is a frozen value object; :func:`call_with_retry`
executes one measurement closure under a policy, and
:func:`reject_outliers_mad` trims a repeat set by median absolute
deviation before the pessimistic best-of reduction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..errors import MeasurementError, SpecError
from ..obs.metrics import counter as _counter

_RETRIES = _counter("resilience.retries")
_RETRIES_EXHAUSTED = _counter("resilience.retries_exhausted")

#: Modified z-score cutoff for :func:`reject_outliers_mad` (Iglewicz &
#: Hoaglin's recommended 3.5).
MAD_THRESHOLD = 3.5


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try one measurement sample.

    ``max_attempts`` counts every try, the first one included.
    """

    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


#: The policy the CLI and ``run_sweep`` reach for when asked to retry.
DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retry(fn, policy: RetryPolicy | None, *,
                    context: str = "measurement"):
    """Run ``fn()`` under ``policy``; return its value or raise.

    A :class:`MeasurementError` is retried; anything else (a genuine
    :class:`~repro.errors.SimulationError`, a programming error)
    propagates immediately.  Once ``policy.max_attempts`` attempts have
    failed, raises :class:`MeasurementError` with code
    ``MEASUREMENT_RETRIES_EXHAUSTED`` chaining the last failure.  A
    ``None`` policy runs ``fn`` once and lets its error propagate
    unchanged.
    """
    if policy is None:
        return fn()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except MeasurementError as err:
            last_error = err
            if attempt < policy.max_attempts:
                _RETRIES.inc()
    _RETRIES_EXHAUSTED.inc()
    raise MeasurementError(
        f"{context} failed after {policy.max_attempts} attempt(s): "
        f"{last_error}",
        code="MEASUREMENT_RETRIES_EXHAUSTED",
    ) from last_error


def reject_outliers_mad(values, threshold: float = MAD_THRESHOLD) -> list:
    """Drop values whose modified z-score exceeds ``threshold``.

    The modified z-score (Iglewicz & Hoaglin) is
    ``0.6745 * |x - median| / MAD``; values beyond the threshold on
    *either* side are rejected.  With a zero MAD (at least half the
    samples identical) or fewer than three samples, nothing is
    rejected — there is no robust scale to judge against.
    """
    values = list(values)
    if threshold <= 0 or len(values) < 3:
        return values
    median = statistics.median(values)
    mad = statistics.median([abs(v - median) for v in values])
    if mad == 0:
        return values
    kept = [
        v for v in values if 0.6745 * abs(v - median) / mad <= threshold
    ]
    return kept or values
