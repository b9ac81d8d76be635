"""The lowered evaluation pipeline: one IR, one engine, two backends.

Every model variant — base Gables (Equations 9-11), serialized work,
phased usecases, host coordination, fixed interconnects, multi-path
interconnects, and the memory-side SRAM — is *a variation on the same
bound computation*: per-IP time terms, a shared-memory term, optional
shared-resource constraints, combined by a ``max()`` (concurrent) or a
``sum()`` (serialized).  This module writes that observation down as a
small intermediate representation and executes it:

- :class:`LoweredPhase` — one concurrent phase: which workload vector
  it uses, how the memory term is formed (full traffic, per-IP
  filtered traffic, or folded into the IP terms), which extra
  shared-resource constraints join the bottleneck ``max()``, and the
  combine rule.
- :class:`BusConstraint` / :class:`RouteSolver` — shared-resource
  constraints: a fixed linear bus bound (Equation 16) or an optimizer
  that assigns traffic to buses per evaluation point (the multi-path
  LP).
- :class:`LoweredModel` — an ordered sequence of phases (a single
  phase for every variant except phased usecases).

Variants *lower* onto this IR once per (variant, SoC) pair — the IR is
hardware-symbolic in ``Bpeak``/``Bi``/``Ai`` (only bus bandwidths are
concrete), so one lowering serves a whole hardware sweep.  Two
interchangeable backends execute it:

- the scalar engine here (:func:`execute_lowered_phase`), which
  replays the exact IEEE-754 operation order of the per-extension
  reference formulations (the ``legacy_*`` functions in
  ``tests/test_variant_equivalence.py``, which pin bitwise
  agreement);
- the vectorized backend in :mod:`repro.core.batch`
  (``evaluate_lowered_batch``), which evaluates a lowered phase over
  K x N parameter grids with the existing per-point hardware
  overrides.

Construction of the final :class:`~repro.core.result.GablesResult`
goes through the single shared path
:func:`repro.core.result.compose_result`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from ..errors import SpecError
from ..obs.trace import get_tracer as _get_tracer
from ..obs.trace import span as _span
from .gables import ip_terms, memory_time
from .params import SoCSpec, Workload
from .result import MEMORY, GablesResult, compose_result

#: Singleton bound once at import: the hot-path disabled check is
#: one attribute load, no function call.
_TRACER = _get_tracer()

#: Component label for the host-coordination term (re-exported by the
#: coordination extension for backward compatibility).
COORDINATION = "coordination"


@dataclass(frozen=True)
class BusConstraint:
    """A fixed linear shared-resource bound (Equation 16).

    The constraint's time is ``sum_i(w_i * D_i) / bandwidth`` where
    ``w_i`` is this bus's per-IP traffic weight (1.0 when IP[i]'s
    memory path crosses the bus, 0.0 when it bypasses it; fractional
    weights model partial routing).
    """

    name: str
    bandwidth: float
    traffic_weights: tuple

    def time(self, data_bytes) -> float:
        """Seconds this bus needs for the given per-IP byte volumes.

        Zero-weight terms are skipped (not added as ``0.0``) so the
        ``fsum`` reduction is bit-identical to the legacy subset sum.
        """
        carried = math.fsum(
            weight * bytes_moved
            for weight, bytes_moved in zip(self.traffic_weights, data_bytes)
            if weight
        )
        return carried / self.bandwidth


class RouteSolver:
    """A dynamic shared-resource constraint set: per-point bus times.

    Wraps an optimizer (the multi-path LP) that maps the per-IP byte
    volumes of one evaluation point to a ``bus name -> seconds``
    mapping.  ``bus_names`` fixes the component order for the batch
    backend's extra columns.
    """

    def __init__(self, bus_names: tuple,
                 solve: Callable[[list], dict]) -> None:
        self.bus_names = tuple(bus_names)
        self._solve = solve

    def __call__(self, data_bytes) -> dict:
        return self._solve(data_bytes)


@dataclass(frozen=True)
class LoweredPhase:
    """One concurrent phase of a lowered model.

    Attributes
    ----------
    name:
        Phase label (only meaningful for multi-phase models).
    work:
        This phase's share of the total usecase work.
    workload:
        The phase's own workload vector, or ``None`` to use the
        workload supplied at evaluation time (single-phase variants).
    combine:
        ``"max"`` for concurrent IPs (Equation 11), ``"sum"`` for
        serialized execution (Equation 19).
    include_memory:
        Whether the shared ``T_memory`` term joins the bottleneck
        comparison (False when it is folded per IP).
    fold_memory_per_ip:
        Serialized regime: each IP's time gains a ``Di / Bpeak`` term
        (Equation 18) instead of a shared memory component.
    memory_weights:
        Per-IP DRAM traffic filter ``mi`` (the memory-side extension,
        Equation 15), or ``None`` for unfiltered traffic.  When set,
        the reported average intensity is the *effective* (post-filter)
        intensity.
    buses:
        Fixed :class:`BusConstraint` terms (Equations 16-17).
    route_solver:
        A :class:`RouteSolver` for per-point optimized bus times, or
        ``None``.
    dispatch_seconds, ops_per_item:
        Host-coordination inputs: per-IP dispatch cost per item and
        the usecase's item granularity.  ``None`` disables the term.
    """

    name: str = "phase"
    work: float = 1.0
    workload: Workload | None = None
    combine: str = "max"
    include_memory: bool = True
    fold_memory_per_ip: bool = False
    memory_weights: tuple | None = None
    buses: tuple = ()
    route_solver: RouteSolver | None = None
    dispatch_seconds: tuple | None = None
    ops_per_item: float | None = None


@dataclass(frozen=True)
class LoweredModel:
    """A variant lowered to executable form: ordered concurrent phases."""

    kind: str
    phases: tuple

    @property
    def workload_free(self) -> bool:
        """True when every phase carries its own workload vector."""
        return all(phase.workload is not None for phase in self.phases)


def _folded_terms(soc: SoCSpec, terms: tuple) -> tuple:
    """Equation 18: fold ``Di / Bpeak`` into each per-IP time."""
    folded = []
    for term in terms:
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
        folded.append(
            term._replace(time=time, perf_bound=perf_bound, limiter=limiter)
        )
    return tuple(folded)


def execute_lowered_phase(
    soc: SoCSpec, workload: Workload, phase: LoweredPhase
) -> GablesResult:
    """The scalar backend: evaluate one lowered phase on one point.

    Replays the reference formulations' exact operation order (same
    ``fsum`` reductions over the same operands, same dict insertion
    order into the bottleneck comparison), so lowered variants are
    bitwise identical to the equivalence suite's ``legacy_*``
    references.
    """
    if _TRACER.enabled:
        with _span("core.execute_lowered_phase"):
            return _execute_lowered_phase_impl(soc, workload, phase)
    return _execute_lowered_phase_impl(soc, workload, phase)


def _execute_lowered_phase_impl(
    soc: SoCSpec, workload: Workload, phase: LoweredPhase
) -> GablesResult:
    workload = phase.workload if phase.workload is not None else workload
    terms = ip_terms(soc, workload)
    if phase.fold_memory_per_ip:
        terms = _folded_terms(soc, terms)

    # Host coordination: the serialized dispatch work folds into the
    # host IP's own time and appears standalone in the bottleneck set.
    t_coord = 0.0
    if phase.dispatch_seconds is not None:
        if len(phase.dispatch_seconds) != workload.n_ips:
            raise SpecError(
                f"lowered dispatch costs cover {len(phase.dispatch_seconds)} "
                f"IPs but the workload has {workload.n_ips}"
            )
        per_item = math.fsum(
            phase.dispatch_seconds[index]
            for index in workload.active_ips
            if index > 0
        )
        t_coord = per_item / phase.ops_per_item
        if t_coord > 0:
            host = terms[0]
            host_time = host.time + t_coord
            terms = (
                host._replace(
                    time=host_time,
                    perf_bound=(
                        1.0 / host_time
                        if host.fraction > 0 or t_coord > 0
                        else host.perf_bound
                    ),
                ),
            ) + terms[1:]

    # The memory term: unfiltered (base), filtered (memory-side), or
    # absent from the comparison (serialized fold).
    if phase.memory_weights is not None:
        filtered_bytes = math.fsum(
            phase.memory_weights[term.index] * term.data_bytes
            for term in terms
        )
        t_memory = filtered_bytes / soc.memory_bandwidth
        effective_iavg = (
            math.inf if filtered_bytes == 0 else 1.0 / filtered_bytes
        )
        memory_perf_bound = (
            math.inf if t_memory == 0
            else soc.memory_bandwidth * effective_iavg
        )
        iavg = effective_iavg
    elif phase.include_memory:
        t_memory = memory_time(soc, terms)
        iavg = workload.average_intensity()
        memory_perf_bound = (
            math.inf if t_memory == 0 else soc.memory_bandwidth * iavg
        )
    else:
        t_memory = 0.0
        memory_perf_bound = math.inf
        iavg = workload.average_intensity()

    # Shared-resource constraints: fixed buses, then solver-assigned.
    extra: dict = {}
    if phase.buses or phase.route_solver is not None:
        data_bytes = [term.data_bytes for term in terms]
        for bus in phase.buses:
            extra[bus.name] = bus.time(data_bytes)
        if phase.route_solver is not None:
            extra.update(phase.route_solver(data_bytes))
        component_names = {term.name for term in terms} | {MEMORY}
        overlap = component_names & set(extra)
        if overlap:
            raise SpecError(
                f"bus names collide with IP/memory names: {sorted(overlap)!r}"
            )
    if t_coord > 0:
        if COORDINATION in {term.name for term in terms} | {MEMORY}:
            raise SpecError(
                f"component name {COORDINATION!r} collides with an IP"
            )
        extra[COORDINATION] = t_coord

    return compose_result(
        terms,
        memory_time=t_memory,
        memory_perf_bound=memory_perf_bound,
        average_intensity=iavg,
        extra_times=extra,
        combine=phase.combine,
        include_memory=phase.include_memory,
    )
