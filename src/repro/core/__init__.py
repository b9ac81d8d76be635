"""Gables core: the paper's primary contribution.

The public surface:

- :class:`SoCSpec` / :class:`IPBlock` — hardware parameters
  (``Ppeak``, ``Bpeak``, per-IP ``Ai`` and ``Bi``);
- :class:`Workload` — software usecase parameters (``fi``, ``Ii``);
- :func:`evaluate` — the base N-IP model (Equations 9-11), returning a
  :class:`GablesResult` with bottleneck attribution;
- :func:`attainable_performance_dual` — the performance-domain dual
  (Equations 12-14), used for cross-checking and plotting;
- :class:`Roofline` — the classic single-chip model Gables builds on;
- :mod:`repro.core.extensions` — memory-side SRAM, interconnect
  topology, serialized work, and phased usecases;
- :func:`evaluate_variant` / :func:`evaluate_variant_batch` — the
  lowered pipeline evaluating any :class:`ModelVariant` (base plus
  every extension) through one engine (:mod:`repro.core.lowering`).
"""

from .batch import (
    BatchResult,
    FusedBatchResult,
    evaluate_batch,
    evaluate_lowered_batch,
    fraction_grid,
)
from .compile import ENGINE_CHOICES, CompiledPhaseKernel, compile_phase
from .blend import blend_workloads, interference_slowdown
from .curves import RooflineCurve, min_envelope
from .gables import (
    attainable_performance,
    attainable_performance_dual,
    drop_lines,
    evaluate,
    ip_terms,
    scaled_roofline_curves,
)
from .lowering import (
    BusConstraint,
    LoweredModel,
    LoweredPhase,
    RouteSolver,
    execute_lowered_phase,
)
from .params import IPBlock, SoCSpec, Workload
from .result import GablesResult, IPTerm, compose_result
from .roofline import Ceiling, Roofline, machine_balance
from .variants import (
    VARIANT_CHOICES,
    BaseVariant,
    CoordinationVariant,
    InterconnectVariant,
    MemorySideVariant,
    ModelVariant,
    MultipathVariant,
    PhasedBatchResult,
    PhasedVariant,
    SerializedVariant,
    evaluate_variant,
    evaluate_variant_batch,
    variant_from_config,
)
from .uncertainty import (
    Interval,
    IntervalResult,
    UncertainSoC,
    UncertainWorkload,
    evaluate_interval,
    evaluate_with_margin,
)
from .two_ip import (
    FIGURE_6_EXPECTED_GOPS,
    FIGURE_6_SEQUENCE,
    FIGURE_6A,
    FIGURE_6B,
    FIGURE_6C,
    FIGURE_6D,
    TwoIPScenario,
    evaluate_two_ip,
)

__all__ = [
    "BaseVariant",
    "BatchResult",
    "BusConstraint",
    "Ceiling",
    "CompiledPhaseKernel",
    "CoordinationVariant",
    "ENGINE_CHOICES",
    "FusedBatchResult",
    "FIGURE_6A",
    "FIGURE_6B",
    "FIGURE_6C",
    "FIGURE_6D",
    "FIGURE_6_EXPECTED_GOPS",
    "FIGURE_6_SEQUENCE",
    "GablesResult",
    "IPBlock",
    "IPTerm",
    "InterconnectVariant",
    "Interval",
    "IntervalResult",
    "LoweredModel",
    "LoweredPhase",
    "MemorySideVariant",
    "ModelVariant",
    "MultipathVariant",
    "PhasedBatchResult",
    "PhasedVariant",
    "Roofline",
    "RooflineCurve",
    "RouteSolver",
    "SerializedVariant",
    "SoCSpec",
    "TwoIPScenario",
    "UncertainSoC",
    "UncertainWorkload",
    "VARIANT_CHOICES",
    "Workload",
    "evaluate_interval",
    "evaluate_with_margin",
    "attainable_performance",
    "attainable_performance_dual",
    "blend_workloads",
    "compile_phase",
    "compose_result",
    "execute_lowered_phase",
    "interference_slowdown",
    "drop_lines",
    "evaluate",
    "evaluate_batch",
    "evaluate_lowered_batch",
    "evaluate_two_ip",
    "evaluate_variant",
    "evaluate_variant_batch",
    "fraction_grid",
    "ip_terms",
    "machine_balance",
    "min_envelope",
    "scaled_roofline_curves",
    "variant_from_config",
]
