"""Seeded, deterministic fault injection for the simulated SoC.

The paper's empirical methodology treats measurement as inherently
noisy: kernels are re-run "to seek the best achievable performance",
thermal governors are disabled in a controlled chamber, and shared
DRAM makes attained numbers contention-dependent.  This module lets the
simulator *reproduce* those failure modes on demand so the rest of the
stack (retry policies, partial-failure batch evaluation, degraded
reports) can prove it survives them.

A :class:`FaultPlan` is a frozen description of *which* faults can
occur and how severe they are; a :class:`FaultInjector` binds a plan to
a seeded RNG and is consulted by :class:`~repro.sim.platform.SimulatedSoC`
at fixed points of every run.  Because the consultation order is fixed
and the RNG is seeded, two sweeps with the same seed and plan produce
bitwise-identical results — determinism the test suite pins.

Fault taxonomy (see ``docs/robustness.md``):

- **dropout** — the measurement itself fails (the app crashed, the
  governor killed the run); surfaces as
  :class:`~repro.errors.MeasurementError` with code
  ``MEASUREMENT_DROPOUT``.
- **bandwidth degradation** — a transient episode of contended DRAM:
  the interface streams at ``1 - bandwidth_degradation`` of its clean
  rate for the duration of one run.
- **thermal throttle** — a forced governor episode scaling the
  sustained rate by ``thermal_throttle_factor`` even in the controlled
  chamber (a heat-soaked die from a previous tenant).
- **multiplicative noise** — one-sided interference shaving up to
  ``noise`` of the observed rate (the pessimistic-estimate framing:
  noise only ever *reduces* attained performance).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import MeasurementError, SpecError
from ..obs.metrics import counter as _counter

#: All injections, any kind (the headline ``--metrics`` number).
_FAULTS_INJECTED = _counter("resilience.faults.injected")
_FAULT_DROPOUTS = _counter("resilience.faults.dropouts")
_FAULT_BANDWIDTH = _counter("resilience.faults.bandwidth_episodes")
_FAULT_THERMAL = _counter("resilience.faults.thermal_episodes")
_FAULT_NOISE = _counter("resilience.faults.noise")


def _require_probability(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise SpecError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FaultPlan:
    """Which failure modes the simulator may inject, and how hard.

    All probabilities are per consultation (one ``run_kernel`` or
    ``run_concurrent`` call draws each fault once).  The default plan
    injects nothing; :data:`FAULT_PLANS` names useful presets.
    """

    dropout_probability: float = 0.0
    bandwidth_degradation: float = 0.0
    bandwidth_episode_probability: float = 0.0
    thermal_throttle_factor: float = 1.0
    thermal_throttle_probability: float = 0.0
    noise: float = 0.0
    name: str = "custom"

    def __post_init__(self) -> None:
        _require_probability(self.dropout_probability, "dropout_probability")
        _require_probability(
            self.bandwidth_episode_probability, "bandwidth_episode_probability"
        )
        _require_probability(
            self.thermal_throttle_probability, "thermal_throttle_probability"
        )
        if not 0.0 <= self.bandwidth_degradation < 1.0:
            raise SpecError(
                f"bandwidth_degradation must lie in [0, 1), got "
                f"{self.bandwidth_degradation!r}"
            )
        if not 0.0 < self.thermal_throttle_factor <= 1.0:
            raise SpecError(
                f"thermal_throttle_factor must lie in (0, 1], got "
                f"{self.thermal_throttle_factor!r}"
            )
        if not 0.0 <= self.noise < 1.0:
            raise SpecError(f"noise must lie in [0, 1), got {self.noise!r}")

    @property
    def any_active(self) -> bool:
        """True when the plan can inject at least one fault."""
        return (
            self.dropout_probability > 0
            or (self.bandwidth_episode_probability > 0
                and self.bandwidth_degradation > 0)
            or (self.thermal_throttle_probability > 0
                and self.thermal_throttle_factor < 1.0)
            or self.noise > 0
        )


#: Named plans the CLI exposes via ``--fault-plan``.
FAULT_PLANS: dict = {
    "none": FaultPlan(name="none"),
    "chaos-default": FaultPlan(
        dropout_probability=0.2,
        bandwidth_degradation=0.5,
        bandwidth_episode_probability=0.15,
        thermal_throttle_factor=0.7,
        thermal_throttle_probability=0.1,
        noise=0.05,
        name="chaos-default",
    ),
    "flaky-dram": FaultPlan(
        bandwidth_degradation=0.6,
        bandwidth_episode_probability=0.25,
        name="flaky-dram",
    ),
    "hot-die": FaultPlan(
        thermal_throttle_factor=0.6,
        thermal_throttle_probability=0.3,
        name="hot-die",
    ),
}


def fault_plan(name: str) -> FaultPlan:
    """Look up a named plan (:data:`FAULT_PLANS`), raising on unknowns."""
    try:
        return FAULT_PLANS[name]
    except KeyError:
        raise SpecError(
            f"unknown fault plan {name!r}; known: {sorted(FAULT_PLANS)}"
        ) from None


class FaultInjector:
    """A :class:`FaultPlan` bound to a seeded RNG, consulted by the sim.

    The simulator asks in a *fixed order* per run — dropout first, then
    bandwidth, then (inside the thermal model) throttle, then noise —
    so the draw sequence, and therefore every injected fault, is a pure
    function of ``(plan, seed, call order)``: a fresh injector with the
    same plan and seed replays the identical fault timeline.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        if not isinstance(plan, FaultPlan):
            raise SpecError("FaultInjector needs a FaultPlan")
        self.plan = plan
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.counts = {"dropout": 0, "bandwidth": 0, "thermal": 0, "noise": 0}

    @property
    def injected(self) -> int:
        """Episodic faults injected since construction.

        Dropouts, bandwidth episodes, and thermal episodes; ambient
        noise applications are tracked in ``counts["noise"]`` but are
        not *events*.
        """
        return (self.counts["dropout"] + self.counts["bandwidth"]
                + self.counts["thermal"])

    def _record(self, kind: str, instrument) -> None:
        self.counts[kind] += 1
        _FAULTS_INJECTED.inc()
        instrument.inc()

    # -- the simulator's consultation points ---------------------------

    def check_dropout(self, context: str) -> None:
        """Raise a dropout :class:`MeasurementError`, or return clean."""
        if self.plan.dropout_probability <= 0:
            return
        if self._rng.random() < self.plan.dropout_probability:
            self._record("dropout", _FAULT_DROPOUTS)
            raise MeasurementError(
                f"injected measurement dropout during {context} "
                f"(plan {self.plan.name!r}, seed {self.seed})",
                code="MEASUREMENT_DROPOUT",
            )

    def bandwidth_derate(self) -> float:
        """DRAM bandwidth multiplier for this run (1.0 = clean)."""
        if (self.plan.bandwidth_episode_probability <= 0
                or self.plan.bandwidth_degradation <= 0):
            return 1.0
        if self._rng.random() < self.plan.bandwidth_episode_probability:
            self._record("bandwidth", _FAULT_BANDWIDTH)
            return 1.0 - self.plan.bandwidth_degradation
        return 1.0

    def throttle_factor(self) -> float:
        """Forced thermal-governor multiplier for this run (1.0 = clean)."""
        if (self.plan.thermal_throttle_probability <= 0
                or self.plan.thermal_throttle_factor >= 1.0):
            return 1.0
        if self._rng.random() < self.plan.thermal_throttle_probability:
            self._record("thermal", _FAULT_THERMAL)
            return self.plan.thermal_throttle_factor
        return 1.0

    def noise_factor(self) -> float:
        """One-sided multiplicative degradation of the observed rate.

        Noise is ambient (it shaves *every* measurement a little), so it
        counts on its own instrument rather than the episodic
        ``resilience.faults.injected`` headline.
        """
        if self.plan.noise <= 0:
            return 1.0
        self.counts["noise"] += 1
        _FAULT_NOISE.inc()
        return 1.0 - self.plan.noise * self._rng.random()

    def summary(self) -> dict:
        """JSON-ready provenance of what this injector did."""
        return {
            "plan": self.plan.name,
            "seed": self.seed,
            "injected": self.injected,
            "counts": dict(self.counts),
        }
