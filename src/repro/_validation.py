"""Shared validation helpers used by parameter dataclasses.

These helpers raise the library's own exception types with messages
that name the offending field, so a user mis-specifying an SoC or a
workload gets an actionable error instead of a NaN three calls later.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import SpecError, WorkloadError

#: Tolerance used when checking that work fractions sum to one.
FRACTION_SUM_TOL = 1e-9


def require_finite_positive(value: float, name: str, exc: type = SpecError) -> float:
    """Return ``value`` if it is a finite number strictly greater than zero."""
    value = _as_float(value, name, exc)
    if not math.isfinite(value) or value <= 0:
        raise exc(f"{name} must be a finite positive number, got {value!r}")
    return value


def require_positive(value: float, name: str, exc: type = SpecError) -> float:
    """Return ``value`` if it is strictly positive (``inf`` allowed).

    Infinite values are meaningful for some inputs: an operational
    intensity of ``inf`` models perfect reuse (no off-chip traffic) and
    an infinite bus bandwidth models an unconstrained link.
    """
    value = _as_float(value, name, exc)
    if math.isnan(value) or value <= 0:
        raise exc(f"{name} must be positive, got {value!r}")
    return value


def require_nonnegative(value: float, name: str, exc: type = SpecError) -> float:
    """Return ``value`` if it is a finite number >= 0."""
    value = _as_float(value, name, exc)
    if not math.isfinite(value) or value < 0:
        raise exc(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def require_fraction(value: float, name: str, exc: type = WorkloadError) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    value = _as_float(value, name, exc)
    if not math.isfinite(value) or value < 0 or value > 1:
        raise exc(f"{name} must lie in [0, 1], got {value!r}")
    return value


def require_probability(value: float, name: str, exc: type = SpecError) -> float:
    """Alias of :func:`require_fraction` with a spec-flavoured default error."""
    return require_fraction(value, name, exc)


def require_fractions_sum_to_one(
    fractions: Sequence[float], name: str, exc: type = WorkloadError
) -> None:
    """Check that ``fractions`` are non-negative and sum to one.

    On a float, ``0.0 <= f <= 1.0`` is :func:`require_fraction`'s rule
    (false for NaN and ``inf``), so an accepted float costs one
    comparison and only other entries go through the full check.
    """
    for index, fraction in enumerate(fractions):
        if type(fraction) is not float or not 0.0 <= fraction <= 1.0:
            require_fraction(fraction, f"{name}[{index}]", exc)
    total = math.fsum(fractions)
    if abs(total - 1.0) > FRACTION_SUM_TOL:
        raise exc(f"{name} must sum to 1, got sum {total!r}")


def require_same_length(
    a: Sequence, b: Sequence, a_name: str, b_name: str, exc: type = SpecError
) -> None:
    """Check that two parallel sequences have equal lengths."""
    if len(a) != len(b):
        raise exc(
            f"{a_name} and {b_name} must have the same length, "
            f"got {len(a)} and {len(b)}"
        )


def as_float_tuple(values: Iterable[float], name: str, exc: type = SpecError) -> tuple:
    """Coerce an iterable of numbers to an immutable tuple of floats."""
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError) as err:
        raise exc(f"{name} must be an iterable of numbers: {err}") from err


def _as_float(value: float, name: str, exc: type) -> float:
    if isinstance(value, bool):
        raise exc(f"{name} must be a number, got bool {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as err:
        raise exc(f"{name} must be a number, got {value!r}") from err
