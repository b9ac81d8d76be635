"""Result objects returned by Gables model evaluation.

Everything is per *unit of work*: a usecase is one normalized op, so
component times are seconds-per-op and the attainable performance is
their reciprocal max, in ops/s.  :meth:`GablesResult.runtime` rescales
to a concrete operation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import EvaluationError
from ..obs.trace import get_tracer as _get_tracer
from ..obs.trace import span as _span
from ..units import format_intensity, format_ops

#: Singleton bound once at import: the hot-path disabled check is
#: one attribute load, no function call.
_TRACER = _get_tracer()

#: Relative tolerance when deciding whether two component times "tie"
#: for the bottleneck (used to report balanced designs such as Fig. 6d).
BINDING_REL_TOL = 1e-9

#: Component label used for the shared DRAM interface term.
MEMORY = "memory"


class IPTerm(NamedTuple):
    """Evaluated quantities for one IP (Equations 9 / 1-2).

    A named tuple, because one is built per IP per evaluation and a
    tuple is the cheapest immutable record to build.  Copy one with
    ``term._replace(...)``.

    Attributes
    ----------
    index, name:
        Which IP this term describes.
    fraction, intensity:
        The workload inputs ``fi`` and ``Ii`` echoed back.
    compute_time:
        ``Ci = fi / (Ai * Ppeak)`` seconds per unit work.
    data_bytes:
        ``Di = fi / Ii`` bytes moved per unit work (0 when ``Ii = inf``).
    transfer_time:
        ``Di / Bi`` seconds per unit work.
    time:
        ``T_IP[i] = max(transfer_time, compute_time)``.
    perf_bound:
        The dual ``1 / T_IP[i]`` (Equation 12), or ``None`` when
        ``fi == 0`` (the paper omits the term to avoid dividing by 0).
    limiter:
        ``"compute"`` when ``Ci`` binds, ``"bandwidth"`` when the IP's
        link binds, ``"idle"`` when the IP has no work.
    """

    index: int
    name: str
    fraction: float
    intensity: float
    compute_time: float
    data_bytes: float
    transfer_time: float
    time: float
    perf_bound: float | None
    limiter: str

    @property
    def active(self) -> bool:
        """True when this IP was assigned work."""
        return self.fraction > 0


@dataclass(frozen=True)
class GablesResult:
    """Full evaluation of a usecase on an SoC (Equations 9-14).

    Attributes
    ----------
    ip_terms:
        One :class:`IPTerm` per IP, in index order.
    memory_time:
        ``Tmemory = sum(Di) / Bpeak`` (Equation 10) — with the
        memory-side extension, ``sum(D'i) / Bpeak`` (Equation 15).
    memory_perf_bound:
        The dual ``1 / Tmemory = Bpeak * Iavg`` (Equation 13); ``inf``
        when the usecase moves no off-chip data.
    average_intensity:
        ``Iavg``, the work-weighted harmonic mean of intensities.
    attainable:
        ``P_attainable`` in ops/s (Equation 11 / 14).
    bottleneck:
        Name of the binding component: an IP name or ``"memory"``
        (or a bus name under the interconnect extension).
    binding_components:
        All components whose time ties the maximum within
        :data:`BINDING_REL_TOL` — more than one means a balanced design.
    extra_times:
        Extension-specific additional terms (e.g. per-bus times under
        the interconnect extension), as a name -> seconds mapping.
    """

    ip_terms: tuple
    memory_time: float
    memory_perf_bound: float
    average_intensity: float
    attainable: float
    bottleneck: str
    binding_components: tuple
    extra_times: dict = field(default_factory=dict)

    def runtime(self, total_ops: float = 1.0) -> float:
        """Seconds to complete ``total_ops`` operations of this usecase."""
        if total_ops < 0:
            raise EvaluationError(f"total_ops must be >= 0, got {total_ops!r}")
        if total_ops == 0:
            return 0.0
        return total_ops / self.attainable

    def component_times(self) -> dict:
        """All component times (seconds per unit work), keyed by name."""
        times = {term.name: term.time for term in self.ip_terms}
        times[MEMORY] = self.memory_time
        times.update(self.extra_times)
        return times

    def utilization(self) -> dict:
        """Each component's time as a fraction of the binding time.

        1.0 marks the bottleneck; components far below 1.0 are slack
        capacity — candidates for down-sizing in an early-stage design.
        """
        times = self.component_times()
        binding = max(times.values())
        if binding <= 0:
            raise EvaluationError("degenerate result: no component takes time")
        return {name: t / binding for name, t in times.items()}

    def is_balanced(self, rel_tol: float = 1e-6) -> bool:
        """True when every *active* component binds simultaneously.

        This is the paper's Fig. 6d end state: all three rooflines equal
        at the operating intensity.  Idle IPs (``fi == 0``) and a moot
        memory term (no data moved) are excluded.
        """
        binding = max(self.component_times().values())
        active = [term.time for term in self.ip_terms if term.active]
        if self.memory_time > 0:
            active.append(self.memory_time)
        active.extend(self.extra_times.values())
        return all(math.isclose(t, binding, rel_tol=rel_tol) for t in active)

    def summary(self) -> str:
        """A short human-readable report of the evaluation."""
        lines = [
            f"attainable: {format_ops(self.attainable)}"
            f"  (bottleneck: {self.bottleneck})",
            f"Iavg: {format_intensity(self.average_intensity)}"
            f"  memory bound: "
            + (
                "unbounded (no off-chip data)"
                if math.isinf(self.memory_perf_bound)
                else format_ops(self.memory_perf_bound)
            ),
        ]
        for term in self.ip_terms:
            if not term.active:
                lines.append(f"  {term.name}: idle (f=0)")
                continue
            bound = format_ops(term.perf_bound)
            lines.append(
                f"  {term.name}: f={term.fraction:.4g} I={term.intensity:.4g}"
                f" bound={bound} ({term.limiter}-limited)"
            )
        for name, t in self.extra_times.items():
            bound = format_ops(1.0 / t) if t > 0 else "unbounded"
            lines.append(f"  {name}: bound={bound}")
        return "\n".join(lines)


def compose_result(
    terms: tuple,
    *,
    memory_time: float,
    memory_perf_bound: float,
    average_intensity: float,
    extra_times: dict | None = None,
    combine: str = "max",
    include_memory: bool = True,
) -> GablesResult:
    """The single shared :class:`GablesResult` construction path.

    Every evaluator — the base model, each lowered variant, and the
    batch materializer — funnels through here so the bottleneck rule,
    the attainable reciprocal, and the result conventions are defined
    exactly once.

    Parameters
    ----------
    terms:
        Per-IP :class:`IPTerm` records in index order (their ``time``
        fields already reflect any variant folding).
    memory_time, memory_perf_bound, average_intensity:
        The shared-memory quantities (Equations 10 and 13), already
        filtered/derived by the caller for extended variants.
    extra_times:
        Additional shared-resource components (bus times, the
        coordination term), in presentation order.  They join the
        bottleneck ``max()`` after the IP and memory terms.
    combine:
        ``"max"`` (concurrent, Equation 11) or ``"sum"`` (serialized,
        Equation 19: the usecase time is the sum of the per-IP times
        and only IP terms compete for the bottleneck label).
    include_memory:
        Whether the memory term participates in the bottleneck
        ``max()`` (False for the serialized model, which folds DRAM
        time into each per-IP term).
    """
    if _TRACER.enabled:
        with _span("core.compose_result"):
            return _compose_result_impl(
                terms,
                memory_time=memory_time,
                memory_perf_bound=memory_perf_bound,
                average_intensity=average_intensity,
                extra_times=extra_times,
                combine=combine,
                include_memory=include_memory,
            )
    return _compose_result_impl(
        terms,
        memory_time=memory_time,
        memory_perf_bound=memory_perf_bound,
        average_intensity=average_intensity,
        extra_times=extra_times,
        combine=combine,
        include_memory=include_memory,
    )


def _compose_result_impl(
    terms: tuple,
    *,
    memory_time: float,
    memory_perf_bound: float,
    average_intensity: float,
    extra_times: dict | None = None,
    combine: str = "max",
    include_memory: bool = True,
) -> GablesResult:
    extra_times = dict(extra_times) if extra_times else {}
    if combine == "sum":
        total_time = math.fsum(term.time for term in terms)
        if total_time <= 0:
            raise EvaluationError("serialized usecase takes zero time")
        times = {term.name: term.time for term in terms}
        primary, binding = pick_bottleneck(times)
        attainable = 1.0 / total_time
    elif combine == "max":
        times = {term.name: term.time for term in terms}
        if include_memory:
            times[MEMORY] = memory_time
        times.update(extra_times)
        primary, binding = pick_bottleneck(times)
        attainable = 1.0 / max(times.values())
    else:
        raise EvaluationError(f"unknown combine rule {combine!r}")
    return GablesResult(
        ip_terms=tuple(terms),
        memory_time=memory_time,
        memory_perf_bound=memory_perf_bound,
        average_intensity=average_intensity,
        attainable=attainable,
        bottleneck=primary,
        binding_components=binding,
        extra_times=extra_times,
    )


def pick_bottleneck(times: dict) -> tuple:
    """Binding component(s) from a name -> time mapping.

    Returns ``(primary, all_binding)`` where ``primary`` is the first
    name (in insertion order) achieving the maximum time and
    ``all_binding`` every name within :data:`BINDING_REL_TOL` of it.
    """
    if not times:
        raise EvaluationError("no component times to compare")
    binding_time = max(times.values())
    if binding_time <= 0:
        raise EvaluationError("degenerate usecase: every component takes zero time")
    binding = tuple(
        name
        for name, t in times.items()
        if math.isclose(t, binding_time, rel_tol=BINDING_REL_TOL)
    )
    return binding[0], binding
