"""Host-routed coordination overhead (Section II-B's third bottleneck).

The paper names three usecase bottlenecks: IP compute, IP-external data
movement, and "the coordination overhead between the IPs, which by and
large today are routed through the CPU ... the CPU gets an explicit
interruption whenever the IP finishes processing".  Base Gables models
the first two; this extension adds the third, in the LogCA spirit the
paper cites for future per-IP sophistication (Section VI).

Usecases process discrete *items* (frames, buffers).  Each active
non-host IP costs the host a fixed dispatch-plus-interrupt time per
item.  That work is serialized on the host CPU, so it forms one more
component in the bottleneck max():

    T_coord = (sum over active i > 0 of c_i) / ops_per_item

per unit of (normalized) work, where ``c_i`` is seconds of host time
per item for IP[i].  Small items (high frame rates, shallow buffers)
make coordination dominate — the granularity effect LogCA models for a
single accelerator, here applied to the whole concurrent usecase.
"""

from __future__ import annotations

import math

from ..._validation import require_finite_positive, require_nonnegative
from ...errors import SpecError, WorkloadError
from ..lowering import LoweredModel, LoweredPhase
from ..params import SoCSpec, Workload


class CoordinationModel:
    """Per-IP host dispatch costs plus the usecase's item granularity.

    Parameters
    ----------
    dispatch_seconds:
        One entry per IP: host seconds consumed per item dispatched to
        that IP (driver call, completion interrupt, buffer handoff).
        Entry 0 (the host itself) is conventionally 0 — it needs no
        self-dispatch — but any value is accepted.
    ops_per_item:
        Usecase work per item, in the same ops as ``Ppeak``.  Converts
        per-item costs into per-unit-work times.
    """

    def __init__(self, dispatch_seconds, ops_per_item: float) -> None:
        self.dispatch_seconds = tuple(
            require_nonnegative(value, f"dispatch_seconds[{index}]")
            for index, value in enumerate(dispatch_seconds)
        )
        if not self.dispatch_seconds:
            raise SpecError("CoordinationModel needs at least one IP entry")
        self.ops_per_item = require_finite_positive(
            ops_per_item, "ops_per_item"
        )

    @property
    def n_ips(self) -> int:
        """Number of per-IP dispatch costs."""
        return len(self.dispatch_seconds)

    @classmethod
    def uniform(cls, n_ips: int, dispatch_seconds: float,
                ops_per_item: float) -> "CoordinationModel":
        """The same dispatch cost for every non-host IP."""
        if n_ips < 1:
            raise SpecError(f"n_ips must be >= 1, got {n_ips}")
        costs = (0.0,) + (dispatch_seconds,) * (n_ips - 1)
        return cls(costs, ops_per_item)

    def coordination_time(self, workload: Workload) -> float:
        """Host seconds per unit work spent coordinating active IPs."""
        if workload.n_ips != self.n_ips:
            raise WorkloadError(
                f"coordination model covers {self.n_ips} IPs but the "
                f"workload has {workload.n_ips}"
            )
        per_item = math.fsum(
            self.dispatch_seconds[index]
            for index in workload.active_ips
            if index > 0
        )
        return per_item / self.ops_per_item


def lower_coordination(
    soc: SoCSpec, coordination: CoordinationModel
) -> LoweredModel:
    """Lower the coordination term onto the shared engine.

    The dispatch costs and item granularity ride on the lowered phase;
    the engine folds the serialized host work into the host IP's term
    (the CPU cannot compute while servicing interrupts) and adds the
    standalone ``"coordination"`` component to the bottleneck max().
    """
    if coordination.n_ips != soc.n_ips:
        raise WorkloadError(
            f"coordination model covers {coordination.n_ips} IPs but SoC "
            f"has {soc.n_ips}"
        )
    return LoweredModel(
        kind="coordination",
        phases=(
            LoweredPhase(
                dispatch_seconds=coordination.dispatch_seconds,
                ops_per_item=coordination.ops_per_item,
            ),
        ),
    )


def max_item_rate_with_coordination(
    soc: SoCSpec,
    workload: Workload,
    coordination: CoordinationModel,
) -> float:
    """Items/s ceiling including the host-coordination bottleneck."""
    # Local import: variants imports this module at load time.
    from ..variants import CoordinationVariant, evaluate_variant

    result = evaluate_variant(soc, workload, CoordinationVariant(coordination))
    return result.attainable / coordination.ops_per_item


def coordination_break_even_items(
    soc: SoCSpec,
    workload: Workload,
    dispatch_seconds,
) -> float:
    """Ops-per-item at which coordination stops being the bottleneck.

    Below this granularity the host's dispatch work dominates the
    usecase — the LogCA break-even, generalized to the concurrent
    N-IP setting.  Returns 0 when no IP incurs dispatch costs.
    """
    from ..gables import evaluate

    base = evaluate(soc, workload)
    per_item = math.fsum(
        require_nonnegative(value, f"dispatch_seconds[{index}]")
        for index, value in enumerate(dispatch_seconds)
        if index > 0 and index in workload.active_ips
    )
    if per_item == 0:
        return 0.0
    # Coordination binds while per_item / ops_per_item > 1 / P_base.
    return per_item * base.attainable
