"""Empirical roofline sweep driver (paper Section IV-A).

Following the Empirical Roofline Toolkit methodology the paper adopted,
the driver runs Algorithm 1 across a grid of operational intensities
(the unroll ladder) and array footprints (cache sweep) on one simulated
engine, recording attained GFLOP/s per configuration.  The resulting
samples are the *pessimistic* roofline estimate the paper argues for:
attainable-by-construction, possibly below the true ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from ..obs.metrics import counter as _counter
from ..obs.trace import span as _span
from ..resilience.checkpoint import SweepCheckpoint, sample_key
from ..resilience.faults import FaultInjector, FaultPlan
from ..resilience.faults import fault_plan as _named_fault_plan
from ..resilience.retry import call_with_retry, reject_outliers_mad
from ..sim.kernel import KernelSpec
from ..sim.platform import SimulatedSoC
from ..units import KIB

_SWEEP_RUNS = _counter("ert.sweep.runs")
_SWEEP_POINTS = _counter("ert.sweep.points")

#: Default intensity ladder: 1/16 to 1024 ops/byte in powers of two.
DEFAULT_INTENSITIES = tuple(2.0**k for k in range(-4, 11))

#: Default footprint ladder: 16 KiB to 512 MiB in powers of four.
DEFAULT_FOOTPRINTS = tuple(16 * KIB * 4**k for k in range(8))

#: Which kernel variant the paper used per engine kind.
VARIANT_BY_ENGINE = {"CPU": "inplace", "GPU": "stream", "DSP": "inplace"}


@dataclass(frozen=True)
class RooflineSample:
    """One (footprint, intensity) measurement."""

    engine: str
    elements: int
    footprint_bytes: float
    intensity: float
    gflops: float
    service_level: str

    @property
    def attained_bandwidth(self) -> float:
        """Bytes/s implied by the attained rate and the intensity."""
        return self.gflops * 1e9 / self.intensity


@dataclass(frozen=True)
class SweepResult:
    """All samples of one engine's empirical sweep.

    ``faults`` carries the provenance summary of the fault injector
    active during the sweep (``None`` for a clean run).
    """

    engine: str
    variant: str
    simd: bool
    samples: tuple
    faults: dict | None = None

    def dram_samples(self) -> tuple:
        """Samples whose working set spilled to DRAM."""
        return tuple(s for s in self.samples if s.service_level == "DRAM")

    def intensities(self) -> tuple:
        """Distinct intensities measured, ascending."""
        return tuple(sorted({s.intensity for s in self.samples}))

    def max_gflops(self) -> float:
        """Best attained rate anywhere in the sweep."""
        return max(s.gflops for s in self.samples)


def run_sweep(
    platform: SimulatedSoC,
    engine: str,
    intensities=DEFAULT_INTENSITIES,
    footprints=DEFAULT_FOOTPRINTS,
    variant: str | None = None,
    simd: bool = False,
    repeats: int = 1,
    noise: float = 0.0,
    seed: int = 0,
    fault_plan=None,
    retry_policy=None,
    checkpoint=None,
) -> SweepResult:
    """Measure one engine's empirical roofline on a simulated platform.

    Parameters
    ----------
    platform, engine:
        Where to run.
    intensities:
        Ops/byte ladder (the compiled-in unroll depths).
    footprints:
        Working-set sizes in bytes; each is converted to an element
        count for the engine's kernel variant.
    variant:
        Kernel traffic shape; defaults to the paper's choice for the
        engine name (stream for GPUs, in-place update otherwise).
    simd:
        Vector-compile the kernel (the paper's NEON aside).
    repeats:
        Runs per configuration; the **best** run is kept, mirroring
        the paper's methodology ("repeatedly benchmark this kernel ...
        to seek the best achievable performance").
    noise:
        Relative one-sided measurement degradation (0.05 = runs lose
        up to ~5% to interference).  Noise only ever *reduces* attained
        performance — the pessimistic-estimate framing — and is drawn
        from a seeded RNG so sweeps stay reproducible.
    fault_plan:
        A :class:`repro.resilience.FaultPlan` (or registered plan name)
        attached to the platform for the duration of the sweep; the
        same ``seed`` seeds the injector, so sweeps under faults are
        bitwise reproducible.  Any injector already attached to the
        platform is restored afterwards.
    retry_policy:
        A :class:`repro.resilience.RetryPolicy`; each sample's
        measurement is retried per the policy when it raises
        :class:`~repro.errors.MeasurementError` (an injected dropout,
        or a real one on hardware), and repeat sets are trimmed by MAD
        outlier rejection before the best-of reduction.  Without a
        policy, a dropout propagates to the caller.
    checkpoint:
        Path or :class:`repro.resilience.SweepCheckpoint`; completed
        samples are appended as JSONL and replayed on resume.  Note a
        resumed sweep skips the RNG draws of replayed samples.
    """
    if not intensities:
        raise SpecError("need at least one intensity")
    if not footprints:
        raise SpecError("need at least one footprint")
    if repeats < 1:
        raise SpecError(f"repeats must be >= 1, got {repeats}")
    if noise < 0 or noise >= 1:
        raise SpecError(f"noise must lie in [0, 1), got {noise!r}")
    rng = None
    if noise > 0:
        import numpy as np

        rng = np.random.default_rng(seed)
    variant = variant or VARIANT_BY_ENGINE.get(engine, "inplace")

    injector = None
    if fault_plan is not None:
        plan = (
            _named_fault_plan(fault_plan)
            if isinstance(fault_plan, str)
            else fault_plan
        )
        if not isinstance(plan, FaultPlan):
            raise SpecError("fault_plan must be a FaultPlan or plan name")
        injector = FaultInjector(plan, seed=seed)
    if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
        checkpoint = SweepCheckpoint(checkpoint)

    _SWEEP_RUNS.inc()
    previous_injector = platform.fault_injector
    if injector is not None:
        platform.attach_faults(injector)
    try:
        with _span(
            "ert.run_sweep",
            engine=engine,
            variant=variant,
            grid=len(intensities) * len(footprints),
        ):
            samples = _sweep_samples(
                platform, engine, intensities, footprints, variant, simd,
                repeats, rng, noise, retry_policy, checkpoint,
            )
    finally:
        if injector is not None:
            platform.attach_faults(previous_injector)

    active = injector if injector is not None else platform.fault_injector
    return SweepResult(
        engine=engine,
        variant=variant,
        simd=simd,
        samples=tuple(samples),
        faults=active.summary() if active is not None else None,
    )


def _sweep_samples(
    platform, engine, intensities, footprints, variant, simd, repeats,
    rng, noise, retry_policy, checkpoint,
) -> list:
    samples = []
    for footprint in footprints:
        # The stream variant keeps two arrays resident; size each so the
        # *total* footprint matches the requested working set.
        arrays = 2 if variant == "stream" else 1
        elements = max(1, int(footprint / (4 * arrays)))
        for intensity in intensities:
            kernel = KernelSpec(
                elements=elements, variant=variant, simd=simd
            ).with_intensity(intensity)
            key = sample_key(
                engine=engine,
                variant=variant,
                simd=simd,
                footprint=float(kernel.footprint_bytes),
                intensity=float(intensity),
            )
            if checkpoint is not None:
                cached = checkpoint.get(key)
                if cached is not None:
                    _SWEEP_POINTS.inc()
                    samples.append(
                        RooflineSample(
                            engine=engine,
                            elements=elements,
                            footprint_bytes=kernel.footprint_bytes,
                            intensity=intensity,
                            gflops=float(cached["gflops"]),
                            service_level=str(cached["service_level"]),
                        )
                    )
                    continue
            best_gflops, service_level = _measure_sample(
                platform, engine, kernel, intensity, repeats, rng, noise,
                retry_policy,
            )
            _SWEEP_POINTS.inc()
            if checkpoint is not None:
                checkpoint.record(
                    key,
                    {"gflops": best_gflops, "service_level": service_level},
                )
            samples.append(
                RooflineSample(
                    engine=engine,
                    elements=elements,
                    footprint_bytes=kernel.footprint_bytes,
                    intensity=intensity,
                    gflops=best_gflops,
                    service_level=service_level,
                )
            )
    return samples


def _measure_sample(
    platform, engine, kernel, intensity, repeats, rng, noise, retry_policy
) -> tuple:
    """Best (gflops, service_level) over the repeat set for one config.

    With a retry policy, each repeat retries injected dropouts and the
    repeat set is MAD-trimmed before the best-of reduction; without
    one, a :class:`~repro.errors.MeasurementError` propagates.
    """
    def attempt():
        return platform.run_kernel(engine, kernel)

    context = (
        f"{engine} sample at I={intensity:g}, {kernel.footprint_bytes:g} B"
    )
    observations = []
    with _span("ert.measure"):
        for _ in range(repeats):
            result = call_with_retry(attempt, retry_policy, context=context)
            observed = result.gflops
            if rng is not None:
                observed *= 1.0 - noise * float(rng.random())
            observations.append((observed, result.service_level))
    values = [value for value, _ in observations]
    if retry_policy is not None:
        with _span("ert.outlier_reject"):
            values = reject_outliers_mad(values)
    best = max(values)
    service_level = next(
        level for value, level in observations if value == best
    )
    return best, service_level
