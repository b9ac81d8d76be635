"""Resilience: fault injection, retries, checkpoints, partial failure.

The measurement side of the Gables methodology is empirical and
therefore fallible — runs drop out, DRAM bandwidth wobbles under
contention, thermal governors interfere.  This package provides:

- :class:`FaultPlan` / :class:`FaultInjector` — seeded, deterministic
  fault injection the simulated SoC consults (``docs/robustness.md``).
- :class:`RetryPolicy` / :func:`call_with_retry` — retry a dropped
  sample up to ``max_attempts`` times, and MAD outlier rejection for
  the ERT sweep driver.
- :class:`SweepCheckpoint` — JSONL checkpoint/resume for long sweeps.
- :class:`PointFailure` / ``on_error`` modes — the shared vocabulary
  for partial-failure batch and sweep evaluation.
"""

from .checkpoint import SweepCheckpoint, load_checkpoint, sample_key
from .faults import FAULT_PLANS, FaultInjector, FaultPlan, fault_plan
from .partial import (
    ON_ERROR_MODES,
    PointFailure,
    check_on_error,
    degraded_banner,
    point_failure,
    record_failure,
)
from .retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    call_with_retry,
    reject_outliers_mad,
)

__all__ = [
    "FAULT_PLANS",
    "FaultInjector",
    "FaultPlan",
    "fault_plan",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "call_with_retry",
    "reject_outliers_mad",
    "SweepCheckpoint",
    "load_checkpoint",
    "sample_key",
    "ON_ERROR_MODES",
    "PointFailure",
    "check_on_error",
    "degraded_banner",
    "point_failure",
    "record_failure",
]
