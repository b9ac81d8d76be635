"""Exclusive/serialized work extension (paper Section V-C).

Base Gables assumes all IPs run *concurrently*.  This extension models
the opposite regime — only one IP active at a time, generalizing
Amdahl's Law and matching MultiAmdahl's computational assumptions, but
with data transfer times included (which neither of those models has).

Each IP still overlaps its own compute with its own data movement, but
because nothing else runs, its off-chip transfer now competes only with
itself, adding a ``Di / Bpeak`` term to its time:

    T'_IP[i] = max(Di / Bpeak, Di / Bi, Ci)             (Equation 18)

and the usecase time is the *sum* of the per-IP times (no overlap
across IPs), with the separate memory term dropped because off-chip
transfer is already accounted inside each ``T'``:

    P_attainable = 1 / (T'_IP[0] + ... + T'_IP[N-1])    (Equation 19)
"""

from __future__ import annotations

import math

from ..gables import ip_terms
from ..lowering import LoweredModel, LoweredPhase
from ..params import SoCSpec, Workload


def serialized_ip_times(soc: SoCSpec, workload: Workload) -> tuple:
    """Per-IP serialized terms ``T'_IP[i]`` (Equation 18).

    Returns :class:`~repro.core.result.IPTerm` tuples whose ``time``
    and ``perf_bound`` reflect the serialized formulation.  The
    ``limiter`` field distinguishes ``"memory"`` (the new ``Di/Bpeak``
    term binding) from ``"bandwidth"`` (the IP link) and ``"compute"``.
    """
    terms = []
    for term in ip_terms(soc, workload):
        dram_time = term.data_bytes / soc.memory_bandwidth
        time = max(dram_time, term.transfer_time, term.compute_time)
        if term.fraction == 0:
            limiter = "idle"
            perf_bound = None
        elif time == dram_time and dram_time > max(
            term.transfer_time, term.compute_time
        ):
            limiter = "memory"
            perf_bound = math.inf if time == 0 else 1.0 / time
        else:
            limiter = term.limiter
            perf_bound = math.inf if time == 0 else 1.0 / time
        terms.append(
            term._replace(time=time, perf_bound=perf_bound, limiter=limiter)
        )
    return tuple(terms)


def lower_serialized(soc: SoCSpec) -> LoweredModel:
    """Lower Equations 18-19 onto the shared engine.

    One phase with the serialized conventions: DRAM time folds into
    each per-IP term (``fold_memory_per_ip``), the shared memory term
    leaves the bottleneck comparison (``include_memory=False``), and
    the per-IP times *sum* instead of max (``combine="sum"``).
    """
    del soc  # the lowering is hardware-symbolic; kept for signature parity
    return LoweredModel(
        kind="serialized",
        phases=(
            LoweredPhase(
                combine="sum",
                include_memory=False,
                fold_memory_per_ip=True,
            ),
        ),
    )


def concurrency_benefit(soc: SoCSpec, workload: Workload) -> float:
    """Speedup of concurrent execution over serialized execution.

    ``P_concurrent / P_serialized >= 1`` always: running IPs in parallel
    can only help under bottleneck analysis.  (The concurrent model
    charges the *shared* memory interface with all traffic at once,
    yet max() of the component times still never exceeds their sum.)
    A value near 1 means the usecase is dominated by a single component
    and concurrency buys nothing — useful early-design signal.
    """
    # Local import: variants imports this module at load time.
    from ..variants import SerializedVariant, evaluate_variant

    concurrent = evaluate_variant(soc, workload).attainable
    serialized = evaluate_variant(
        soc, workload, SerializedVariant()
    ).attainable
    return concurrent / serialized
