"""The base Gables model: N concurrent IPs sharing off-chip bandwidth.

This module implements Section III of the paper in both of its dual
formulations and checks, by construction, that they agree:

*Time domain* (Equations 9-11).  Per unit of usecase work, each IP
needs compute time ``Ci = fi / (Ai * Ppeak)`` and moves ``Di = fi / Ii``
bytes through its link, taking ``Di / Bi``; the IP's time is the max of
the two because compute and transfer are assumed to overlap.  The
shared DRAM interface takes ``sum(Di) / Bpeak``.  All components run
concurrently, so the usecase takes the *maximum* component time and

    P_attainable = 1 / max(T_IP[0], ..., T_IP[N-1], T_memory).

*Performance domain* (Equations 12-14).  Each active IP contributes a
roofline scaled by its work fraction, ``min(Bi * Ii, Ai * Ppeak) / fi``,
the memory interface contributes the slanted-only ``Bpeak * Iavg``, and
the attainable performance is the minimum of these bounds.

The two formulations are algebraically identical; we compute via the
time domain (which handles ``fi = 0`` without special cases) and expose
the performance-domain dual for visualization and cross-checking.
"""

from __future__ import annotations

import math

from .._validation import require_same_length
from ..errors import WorkloadError
from ..obs.metrics import counter as _counter
from ..obs.trace import get_tracer as _get_tracer
from ..obs.trace import span as _span
from .curves import RooflineCurve
from .params import SoCSpec, Workload
from .result import MEMORY, GablesResult, IPTerm, compose_result

#: Singleton bound once at import: the hot-path disabled check is
#: one attribute load, no function call (the overhead benchmarks
#: hold instrumented entry points within a few percent of bare).
_TRACER = _get_tracer()

#: Module-level instrument handle: resolved once so the hot path pays a
#: single attribute add per evaluation, not a registry lookup.
_EVAL_CALLS = _counter("core.evaluate.calls")


def _check_shapes(soc: SoCSpec, workload: Workload) -> None:
    require_same_length(
        soc.ips, workload.fractions, "soc.ips", "workload.fractions", WorkloadError
    )


def ip_terms(soc: SoCSpec, workload: Workload) -> tuple:
    """Per-IP evaluated terms (Equation 9) for ``workload`` on ``soc``."""
    _check_shapes(soc, workload)
    terms = []
    for index, ip in enumerate(soc.ips):
        fraction = workload.fractions[index]
        intensity = workload.intensities[index]
        compute_time = fraction / soc.ip_peak(index)
        data_bytes = 0.0 if math.isinf(intensity) else fraction / intensity
        transfer_time = data_bytes / ip.bandwidth if data_bytes else 0.0
        time = max(transfer_time, compute_time)
        if fraction == 0:
            limiter = "idle"
            perf_bound = None
        else:
            limiter = "bandwidth" if transfer_time > compute_time else "compute"
            # A denormal fraction can underflow the time to exactly 0;
            # the bound is then effectively unconstrained.
            perf_bound = math.inf if time == 0 else 1.0 / time
        # Positional, in ``IPTerm._fields`` order: the keyword call
        # costs more, and this runs once per IP per evaluation.
        terms.append(IPTerm(
            index, ip.name, fraction, intensity, compute_time, data_bytes,
            transfer_time, time, perf_bound, limiter,
        ))
    return tuple(terms)


def memory_time(soc: SoCSpec, terms) -> float:
    """``T_memory = sum(Di) / Bpeak`` (Equation 10)."""
    total_bytes = math.fsum(term.data_bytes for term in terms)
    return total_bytes / soc.memory_bandwidth


def evaluate(soc: SoCSpec, workload: Workload) -> GablesResult:
    """Evaluate the base Gables model (Equations 9-11).

    Returns a :class:`~repro.core.result.GablesResult` with per-IP
    terms, the memory term, the attainable performance upper bound, and
    bottleneck attribution.

    Example (paper Fig. 6b)::

        >>> from repro.core import SoCSpec, Workload, evaluate
        >>> soc = SoCSpec.two_ip(40e9, 10e9, acceleration=5,
        ...                      cpu_bandwidth=6e9, acc_bandwidth=15e9)
        >>> result = evaluate(soc, Workload.two_ip(f=0.75, i0=8, i1=0.1))
        >>> round(result.attainable / 1e9, 2)
        1.33
        >>> result.bottleneck
        'memory'
    """
    _EVAL_CALLS.inc()
    if not _TRACER.enabled:
        result = _evaluate_impl(soc, workload)
    else:
        with _span(
            "core.evaluate", soc=soc.name, workload=workload.name
        ) as sp:
            result = _evaluate_impl(soc, workload)
            sp.set_attribute("bottleneck", result.bottleneck)
            sp.set_attribute("attainable", result.attainable)
    return result


def _evaluate_impl(soc: SoCSpec, workload: Workload) -> GablesResult:
    terms = ip_terms(soc, workload)
    t_memory = memory_time(soc, terms)
    iavg = workload.average_intensity()
    memory_perf_bound = (
        math.inf if t_memory == 0 else soc.memory_bandwidth * iavg
    )
    return compose_result(
        terms,
        memory_time=t_memory,
        memory_perf_bound=memory_perf_bound,
        average_intensity=iavg,
    )


def attainable_performance(soc: SoCSpec, workload: Workload) -> float:
    """Shortcut for ``evaluate(soc, workload).attainable``."""
    return evaluate(soc, workload).attainable


def attainable_performance_dual(soc: SoCSpec, workload: Workload) -> float:
    """Equation 14: the performance-domain dual of :func:`evaluate`.

    Computes ``min`` over each active IP's scaled roofline bound
    ``min(Bi * Ii, Ai * Ppeak) / fi`` and the memory bound
    ``Bpeak * Iavg``, omitting IP terms with ``fi = 0`` exactly as the
    paper prescribes.  Provided as an independent implementation used by
    the test suite to cross-check the time-domain evaluation.
    """
    _check_shapes(soc, workload)
    bounds = []
    for index, ip in enumerate(soc.ips):
        fraction = workload.fractions[index]
        if fraction == 0:
            continue
        intensity = workload.intensities[index]
        link_bound = math.inf if math.isinf(intensity) else ip.bandwidth * intensity
        bounds.append(min(link_bound, soc.ip_peak(index)) / fraction)
    iavg = workload.average_intensity()
    if not math.isinf(iavg):
        bounds.append(soc.memory_bandwidth * iavg)
    if not bounds:
        # Every fraction is zero and no data moves: the dual has no
        # bounding term.  The time-domain path rejects this usecase as
        # degenerate too, so raise rather than crash on an empty min().
        raise WorkloadError(
            "usecase assigns no work to any IP and moves no data; "
            "the performance-domain dual is undefined"
        )
    return min(bounds)


def scaled_roofline_curves(soc: SoCSpec, workload: Workload) -> tuple:
    """The curves of a Gables multi-roofline plot (Section III-C).

    One scaled roofline per *active* IP (slope ``Bi``, roof
    ``Ai * Ppeak``, scale ``fi``) plus the slanted-only memory roofline
    (slope ``Bpeak``).  Idle IPs are omitted, matching the paper's
    plots where an unused IP "is not shown since it is assigned no
    work".
    """
    _check_shapes(soc, workload)
    curves = []
    for index, ip in enumerate(soc.ips):
        fraction = workload.fractions[index]
        if fraction == 0:
            continue
        curves.append(
            RooflineCurve(
                name=ip.name,
                slope=ip.bandwidth,
                roof=soc.ip_peak(index),
                scale=fraction,
            )
        )
    curves.append(RooflineCurve(name=MEMORY, slope=soc.memory_bandwidth))
    return tuple(curves)


def drop_lines(soc: SoCSpec, workload: Workload) -> tuple:
    """The operating points marked on a Gables plot.

    Each active IP's scaled roofline is read at its own intensity
    ``Ii`` and the memory roofline at ``Iavg``; the lowest selected
    point is the attainable performance (Equation 14).  Returns
    ``(name, intensity, performance)`` triples in plot order.
    """
    _check_shapes(soc, workload)
    points = []
    for curve in scaled_roofline_curves(soc, workload):
        if curve.name == MEMORY:
            intensity = workload.average_intensity()
            if math.isinf(intensity):
                continue
        else:
            intensity = workload.intensities[soc.ip_index(curve.name)]
        points.append((curve.name, intensity, curve(intensity)))
    return tuple(points)
