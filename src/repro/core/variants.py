"""Model variants: one front door for every Gables formulation.

A :class:`ModelVariant` names a formulation of the model — base
concurrent Gables (Equations 9-11) or any of the Section V extensions —
and knows how to *lower* itself onto the shared IR of
:mod:`repro.core.lowering` for a given SoC.  Evaluation then goes
through exactly one engine with two interchangeable backends:

- :func:`evaluate_variant` — the scalar backend, one ``(soc,
  workload)`` point per call, bitwise identical to the legacy
  per-extension evaluators;
- :func:`evaluate_variant_batch` — the vectorized backend
  (:func:`repro.core.batch.evaluate_lowered_batch`), K workload points
  and per-point hardware overrides per call, within 1e-12 relative of
  the scalar backend.

Because dispatch happens here, ``on_error`` semantics, tracing spans
and metrics are instrumented once at the engine layer instead of once
per extension.  The CLI maps ``--variant`` names through
:data:`VARIANT_CHOICES` / :func:`variant_from_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EvaluationError, SpecError, WorkloadError
from ..obs.metrics import counter as _counter
from ..obs.trace import get_tracer as _get_tracer
from ..obs.trace import span as _span
from .extensions.coordination import CoordinationModel, lower_coordination
from .extensions.interconnect import (
    Bus,
    InterconnectSpec,
    lower_interconnect,
)
from .extensions.memory_side import MemorySideCache, lower_memory_side
from .extensions.multipath import MultiPathInterconnect, lower_multipath
from .extensions.phases import (
    Phase,
    PhasedResult,
    PhasedUsecase,
    lower_phases,
)
from .extensions.serialized import lower_serialized
from .lowering import LoweredModel, LoweredPhase, execute_lowered_phase
from .params import SoCSpec, Workload
from .result import GablesResult

#: Singleton bound once at import: the hot-path disabled check is
#: one attribute load, no function call (the overhead benchmarks
#: hold instrumented entry points within a few percent of bare).
_TRACER = _get_tracer()

#: CLI-facing variant names, in presentation order.
VARIANT_CHOICES = (
    "base",
    "serialized",
    "phases",
    "coordination",
    "interconnect",
    "multipath",
    "memory-side",
)

#: Module-level instrument handle (one registry lookup at import).
_VARIANT_CALLS = _counter("core.evaluate_variant.calls")


class ModelVariant:
    """A named model formulation that lowers onto the shared engine.

    Subclasses set :attr:`kind` and implement :meth:`lower`; everything
    downstream (sweeps, reports, the CLI, plots) treats variants
    uniformly through :func:`evaluate_variant` /
    :func:`evaluate_variant_batch`.
    """

    kind = "base"
    #: False for variants that carry their own workload vectors
    #: (phased usecases) and ignore the evaluation-time workload.
    requires_workload = True

    def lower(self, soc: SoCSpec) -> LoweredModel:
        """Lower this variant for ``soc`` (hardware-symbolic IR)."""
        raise NotImplementedError


@dataclass(frozen=True)
class BaseVariant(ModelVariant):
    """Base concurrent Gables (Equations 9-11)."""

    kind = "base"

    def lower(self, soc: SoCSpec) -> LoweredModel:
        del soc
        return LoweredModel(kind="base", phases=(LoweredPhase(),))


@dataclass(frozen=True)
class SerializedVariant(ModelVariant):
    """Exclusive one-IP-at-a-time execution (Equations 18-19)."""

    kind = "serialized"

    def lower(self, soc: SoCSpec) -> LoweredModel:
        return lower_serialized(soc)


@dataclass(frozen=True)
class MemorySideVariant(ModelVariant):
    """Memory-side SRAM filtering DRAM traffic (Equation 15)."""

    cache: MemorySideCache

    kind = "memory-side"

    def lower(self, soc: SoCSpec) -> LoweredModel:
        return lower_memory_side(soc, self.cache)


@dataclass(frozen=True)
class InterconnectVariant(ModelVariant):
    """Fixed bus topology with per-bus bounds (Equations 16-17)."""

    interconnect: InterconnectSpec

    kind = "interconnect"

    def lower(self, soc: SoCSpec) -> LoweredModel:
        return lower_interconnect(soc, self.interconnect)


@dataclass(frozen=True)
class MultipathVariant(ModelVariant):
    """Multiple alternative bus paths with LP-optimal splitting."""

    interconnect: MultiPathInterconnect

    kind = "multipath"

    def lower(self, soc: SoCSpec) -> LoweredModel:
        return lower_multipath(soc, self.interconnect)


@dataclass(frozen=True)
class CoordinationVariant(ModelVariant):
    """Host-routed dispatch overhead as a bottleneck component."""

    coordination: CoordinationModel

    kind = "coordination"

    def lower(self, soc: SoCSpec) -> LoweredModel:
        return lower_coordination(soc, self.coordination)


@dataclass(frozen=True)
class PhasedVariant(ModelVariant):
    """Serialized sequence of concurrent phases (Section V-C coda)."""

    usecase: PhasedUsecase

    kind = "phases"
    requires_workload = False

    def lower(self, soc: SoCSpec) -> LoweredModel:
        return lower_phases(soc, self.usecase)


def evaluate_variant(
    soc: SoCSpec,
    workload: Workload | None,
    variant: ModelVariant | None = None,
) -> GablesResult | PhasedResult:
    """Evaluate any model variant through the lowered pipeline.

    The single scalar entry point: lowers ``variant`` (default
    :class:`BaseVariant`) for ``soc`` and executes it on ``workload``.
    Single-phase variants return a
    :class:`~repro.core.result.GablesResult`; phased variants ignore
    ``workload`` (pass ``None``) and return a
    :class:`~repro.core.extensions.phases.PhasedResult`.

    Tracing spans and call metrics are emitted here — once for every
    variant — rather than per extension.
    """
    if variant is None:
        variant = BaseVariant()
    if not _TRACER.enabled:
        lowered = variant.lower(soc)
        _VARIANT_CALLS.inc()
        result = _evaluate_lowered(soc, workload, lowered)
    else:
        with _span("core.variant.lower"):
            lowered = variant.lower(soc)
        _VARIANT_CALLS.inc()
        with _span(
            "core.evaluate_variant",
            soc=soc.name,
            variant=lowered.kind,
            workload=None if workload is None else workload.name,
        ) as sp:
            result = _evaluate_lowered(soc, workload, lowered)
            sp.set_attribute("bottleneck", result.bottleneck)
            sp.set_attribute("attainable", result.attainable)
    return result


def _evaluate_lowered(
    soc: SoCSpec, workload: Workload | None, lowered: LoweredModel
):
    """Execute a lowered model on the scalar backend."""
    if lowered.workload_free:
        return _evaluate_phased(soc, lowered)
    if workload is None:
        raise WorkloadError(
            f"variant {lowered.kind!r} requires a workload"
        )
    return execute_lowered_phase(soc, workload, lowered.phases[0])


def _evaluate_phased(soc: SoCSpec, lowered: LoweredModel) -> PhasedResult:
    """Sequence per-phase base evaluations: concurrent within, serial
    across (``T_phase[k] = work_k / P_k``)."""
    results = []
    times = []
    for phase in lowered.phases:
        result = execute_lowered_phase(soc, phase.workload, phase)
        results.append((Phase(phase.work, phase.workload, phase.name), result))
        times.append(phase.work / result.attainable)
    total = math.fsum(times)
    if total <= 0:
        raise EvaluationError("phased usecase takes zero time")
    slowest = max(range(len(times)), key=lambda k: times[k])
    return PhasedResult(
        attainable=1.0 / total,
        phase_results=tuple(results),
        phase_times=tuple(times),
        bottleneck_phase=lowered.phases[slowest].name,
    )


@dataclass(frozen=True)
class PhasedBatchResult:
    """K phased evaluations as parallel arrays.

    The batch dual of :class:`~repro.core.extensions.phases.PhasedResult`:
    ``component_names`` holds the phase names (attribution is to a
    *phase*, not an IP), ``phase_times`` is the (K, P) per-phase time
    matrix, and ``attainables`` the (K,) overall bounds.
    """

    component_names: tuple
    phase_times: np.ndarray
    attainables: np.ndarray
    bottleneck_codes: np.ndarray

    def __len__(self) -> int:
        """Number of evaluated points K."""
        return self.attainables.shape[0]

    def bottleneck(self, index: int) -> str:
        """The binding phase's name at point ``index``."""
        return self.component_names[int(self.bottleneck_codes[index])]

    def bottlenecks(self) -> tuple:
        """Binding phase names for every point, in batch order."""
        names = self.component_names
        return tuple(names[code] for code in self.bottleneck_codes.tolist())


def evaluate_variant_batch(
    soc: SoCSpec,
    variant: ModelVariant | None,
    fractions=None,
    intensities=None,
    *,
    memory_bandwidth=None,
    ip_bandwidths=None,
    ip_peaks=None,
    validate: bool = True,
    on_error: str = "raise",
    engine: str = "auto",
):
    """Evaluate any model variant over K points on the batch backend.

    Single-phase variants take (K, N) ``fractions`` / ``intensities``
    grids plus the usual per-point hardware overrides and return a
    :class:`~repro.core.batch.BatchResult` whose extra columns carry
    the variant's bus/coordination components.

    Phased variants carry their own workload vectors, so ``fractions``
    and ``intensities`` must be ``None``; K is inferred from the
    hardware override arrays (K=1 with no overrides) and the return is
    a :class:`PhasedBatchResult`.  Phased batches support only
    ``on_error="raise"``.

    ``engine`` selects the execution tier (see
    :func:`repro.core.batch.evaluate_batch`); a phased variant runs one
    :func:`repro.core.batch.evaluate_lowered_batch` per phase, each
    with the same hardware overrides, coerced and validated per call.
    """
    from .batch import evaluate_lowered_batch

    if variant is None:
        variant = BaseVariant()
    lowered = variant.lower(soc)
    if not lowered.workload_free:
        if fractions is None or intensities is None:
            raise WorkloadError(
                f"variant {lowered.kind!r} requires fraction and "
                "intensity grids"
            )
        return evaluate_lowered_batch(
            soc,
            lowered.phases[0],
            fractions,
            intensities,
            memory_bandwidth=memory_bandwidth,
            ip_bandwidths=ip_bandwidths,
            ip_peaks=ip_peaks,
            validate=validate,
            on_error=on_error,
            engine=engine,
        )

    if fractions is not None or intensities is not None:
        raise WorkloadError(
            "phased variants carry their own workloads; pass "
            "fractions=None and intensities=None"
        )
    if on_error != "raise":
        raise SpecError(
            "phased variants support only on_error='raise' batches"
        )
    k = _phased_batch_size(
        soc, memory_bandwidth, ip_bandwidths, ip_peaks
    )
    phase_columns = []
    for phase in lowered.phases:
        # Broadcast (not tile) the per-phase workload vector: the
        # stride-0 columns fold to scalars in the compiled kernel.
        grid_f = np.broadcast_to(
            np.asarray(phase.workload.fractions, dtype=float), (k, soc.n_ips)
        )
        grid_i = np.broadcast_to(
            np.asarray(phase.workload.intensities, dtype=float),
            (k, soc.n_ips),
        )
        sub = evaluate_lowered_batch(
            soc,
            LoweredPhase(name=phase.name, work=phase.work),
            grid_f,
            grid_i,
            memory_bandwidth=memory_bandwidth,
            ip_bandwidths=ip_bandwidths,
            ip_peaks=ip_peaks,
            validate=validate,
            on_error="raise",
            engine=engine,
        )
        phase_columns.append(phase.work / sub.attainables)
    phase_times = np.column_stack(phase_columns)
    totals = phase_times.sum(axis=1)
    if not np.all(totals > 0):
        raise EvaluationError("phased usecase takes zero time")
    return PhasedBatchResult(
        component_names=tuple(phase.name for phase in lowered.phases),
        phase_times=phase_times,
        attainables=1.0 / totals,
        bottleneck_codes=phase_times.argmax(axis=1),
    )


def _phased_batch_size(
    soc: SoCSpec, memory_bandwidth, ip_bandwidths, ip_peaks
) -> int:
    """Infer K for a phased batch from the hardware override shapes."""
    del soc
    sizes = set()
    if memory_bandwidth is not None:
        array = np.asarray(memory_bandwidth, dtype=float)
        if array.ndim == 1:
            sizes.add(array.shape[0])
    for override in (ip_bandwidths, ip_peaks):
        if override is not None:
            array = np.asarray(override, dtype=float)
            if array.ndim == 2:
                sizes.add(array.shape[0])
    if len(sizes) > 1:
        raise SpecError(
            f"phased batch overrides disagree on K: {sorted(sizes)!r}"
        )
    return sizes.pop() if sizes else 1


def variant_from_config(
    name: str, soc: SoCSpec, config: dict | None = None
) -> ModelVariant:
    """Build a variant from a CLI-style name plus optional config.

    Without ``config`` each variant gets an illustrative default sized
    from the SoC (a shared fabric at ``2 * Bpeak``, a 0.5-miss-ratio
    SRAM, ...), so ``--variant interconnect`` works out of the box;
    ``config`` (the parsed ``--variant-config`` JSON) overrides the
    structure.  Phased usecases have no sensible default and require
    config.
    """
    config = dict(config) if config else {}
    if name == "base":
        return BaseVariant()
    if name == "serialized":
        return SerializedVariant()
    if name == "memory-side":
        if "miss_ratios" in config:
            cache = MemorySideCache(config["miss_ratios"])
        else:
            cache = MemorySideCache.uniform(
                soc.n_ips, float(config.get("miss_ratio", 0.5))
            )
        return MemorySideVariant(cache)
    if name == "interconnect":
        if "buses" in config:
            buses = [
                Bus(entry["name"], float(entry["bandwidth"]))
                for entry in config["buses"]
            ]
            spec = InterconnectSpec(buses, config["usage"])
        else:
            spec = InterconnectSpec(
                (Bus("fabric", 2.0 * soc.memory_bandwidth),),
                ((0,),) * soc.n_ips,
            )
        return InterconnectVariant(spec)
    if name == "multipath":
        if "buses" in config:
            buses = [
                Bus(entry["name"], float(entry["bandwidth"]))
                for entry in config["buses"]
            ]
            multipath = MultiPathInterconnect(buses, config["routes"])
        else:
            multipath = MultiPathInterconnect(
                (
                    Bus("fabric0", soc.memory_bandwidth),
                    Bus("fabric1", soc.memory_bandwidth),
                ),
                (((0,), (1,)),) * soc.n_ips,
            )
        return MultipathVariant(multipath)
    if name == "coordination":
        if "dispatch_seconds" in config:
            model = CoordinationModel(
                config["dispatch_seconds"],
                float(config.get("ops_per_item", 1e6)),
            )
        else:
            model = CoordinationModel.uniform(
                soc.n_ips,
                float(config.get("dispatch", 10e-6)),
                float(config.get("ops_per_item", 1e6)),
            )
        return CoordinationVariant(model)
    if name == "phases":
        if "phases" not in config:
            raise SpecError(
                "the phases variant needs a --variant-config with a "
                "'phases' list of {work, fractions, intensities} entries"
            )
        phases = tuple(
            Phase(
                work=float(entry["work"]),
                workload=Workload(
                    fractions=tuple(
                        float(f) for f in entry["fractions"]
                    ),
                    intensities=tuple(
                        float(i) for i in entry["intensities"]
                    ),
                ),
                name=entry.get("name", f"phase{index}"),
            )
            for index, entry in enumerate(config["phases"])
        )
        return PhasedVariant(PhasedUsecase(phases))
    raise SpecError(
        f"unknown variant {name!r}; choose from "
        f"{', '.join(VARIANT_CHOICES)}"
    )
