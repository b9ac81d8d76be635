"""The Fig. 8 "mixing" experiment: offload sweep on the simulated SoC.

The paper's experiment: run the micro-benchmark with a fraction ``f``
of the total single-precision ops on the GPU and ``1 - f`` on the CPU,
concurrently, for ``f`` in {0, 1/8, ..., 1} and operational
intensities from 1 to 1024 ops/byte; report performance normalized to
all-work-on-CPU at intensity 1.  The headline observations this module
reproduces:

- at low intensity, offloading to the GPU *slows the usecase down*
  (coordination overhead and bandwidth contention swamp the idle
  acceleration);
- at high intensity, offloading wins big — 39.4x at I = 1024;
- the benefit is a property of the *workload* (its ``f`` and ``I``),
  not of the hardware alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from ..resilience.retry import call_with_retry
from ..units import GIGA
from .kernel import KernelSpec
from .platform import ConcurrentJob, SimulatedSoC

#: The paper's f grid: 0 to 1 in increments of 1/8.
DEFAULT_FRACTIONS = tuple(i / 8 for i in range(9))

#: The paper's intensity lines: 1 to 1024 ops per byte.
DEFAULT_INTENSITIES = (1, 4, 16, 64, 256, 1024)

#: DRAM-resident footprint: 32 Mi elements = 128 MiB per array.
DEFAULT_ELEMENTS = 32 * 1024 * 1024

#: Total useful single-precision ops per run (same for every point).
DEFAULT_TOTAL_FLOPS = 200 * GIGA


@dataclass(frozen=True)
class MixingPoint:
    """One (f, I) cell of the mixing sweep."""

    fraction: float  # f — share of ops on the GPU
    intensity: float  # ops/byte at both IPs
    gflops: float  # aggregate attained useful GFLOP/s
    normalized: float  # vs all-on-CPU at I=1
    runtime_s: float


@dataclass(frozen=True)
class MixingSweep:
    """The full grid plus its normalization baseline."""

    points: tuple
    baseline_gflops: float
    cpu_engine: str
    gpu_engine: str

    def line(self, intensity: float) -> tuple:
        """All points of one intensity line, ordered by fraction."""
        selected = [p for p in self.points if p.intensity == intensity]
        return tuple(sorted(selected, key=lambda p: p.fraction))

    def intensities(self) -> tuple:
        """Distinct intensity lines, ascending."""
        return tuple(sorted({p.intensity for p in self.points}))

    def peak_speedup(self) -> MixingPoint:
        """The best cell — the paper quotes 39.4x at f=1, I=1024."""
        return max(self.points, key=lambda p: p.normalized)


def _run_point(
    platform: SimulatedSoC,
    cpu: str,
    gpu: str,
    fraction: float,
    intensity: float,
    elements: int,
    total_flops: float,
) -> tuple:
    """Aggregate (gflops, runtime) for one (f, I) cell."""
    cpu_kernel = KernelSpec(elements=elements, variant="inplace").with_intensity(
        intensity
    )
    gpu_kernel = KernelSpec(elements=elements, variant="stream").with_intensity(
        intensity
    )
    jobs = []
    if fraction < 1.0:
        jobs.append(ConcurrentJob(cpu, cpu_kernel, (1.0 - fraction) * total_flops))
    if fraction > 0.0:
        jobs.append(ConcurrentJob(gpu, gpu_kernel, fraction * total_flops))
    result = platform.run_concurrent(jobs)
    return total_flops / result.total_runtime_s / GIGA, result.total_runtime_s


def run_mixing_sweep(
    platform: SimulatedSoC,
    fractions=DEFAULT_FRACTIONS,
    intensities=DEFAULT_INTENSITIES,
    elements: int = DEFAULT_ELEMENTS,
    total_flops: float = DEFAULT_TOTAL_FLOPS,
    cpu_engine: str = "CPU",
    gpu_engine: str = "GPU",
    retry_policy=None,
) -> MixingSweep:
    """Run the Fig. 8 grid on a simulated platform.

    Every cell does the same ``total_flops`` of useful work; CPU and
    GPU portions run concurrently (0 < f < 1) through the platform's
    contention and coordination models.  Normalization follows the
    paper: all work on the CPU at intensity 1.

    When the platform has a fault injector attached
    (:meth:`~repro.sim.platform.SimulatedSoC.attach_faults`), pass a
    :class:`repro.resilience.RetryPolicy` so injected measurement
    dropouts are retried per cell instead of aborting the grid.
    """
    for f in fractions:
        if not 0 <= f <= 1:
            raise SpecError(f"fractions must lie in [0, 1], got {f!r}")
    for i in intensities:
        if i <= 0:
            raise SpecError(f"intensities must be positive, got {i!r}")

    def measure(fraction, intensity):
        def attempt():
            return _run_point(
                platform, cpu_engine, gpu_engine,
                fraction, intensity, elements, total_flops,
            )
        return call_with_retry(
            attempt, retry_policy,
            context=f"mixing cell (f={fraction:g}, I={intensity:g})",
        )

    baseline_gflops, _ = measure(0.0, 1.0)
    points = []
    for intensity in intensities:
        for fraction in fractions:
            gflops, runtime = measure(fraction, intensity)
            points.append(
                MixingPoint(
                    fraction=fraction,
                    intensity=float(intensity),
                    gflops=gflops,
                    normalized=gflops / baseline_gflops,
                    runtime_s=runtime,
                )
            )
    return MixingSweep(
        points=tuple(points),
        baseline_gflops=baseline_gflops,
        cpu_engine=cpu_engine,
        gpu_engine=gpu_engine,
    )


def dsp_perturbation(
    platform: SimulatedSoC,
    intensity: float = 16.0,
    elements: int = DEFAULT_ELEMENTS,
    total_flops: float = DEFAULT_TOTAL_FLOPS,
) -> float:
    """Section IV-D's finding: the scalar DSP barely perturbs CPU+GPU.

    Runs a CPU+GPU half-split with and without the DSP streaming
    alongside, and returns the relative slowdown of the *CPU+GPU*
    completion (0.02 = their work finished 2% later with the DSP
    active).  The paper: "the scalar DSP was too wimpy to substantially
    perturb CPU-GPU behavior".
    """
    kernel = KernelSpec(elements=elements, variant="inplace").with_intensity(intensity)
    pair = [
        ConcurrentJob("CPU", kernel, total_flops / 2),
        ConcurrentJob("GPU", kernel, total_flops / 2),
    ]

    def cpu_gpu_completion(jobs) -> float:
        result = platform.run_concurrent(jobs)
        return max(result.job_runtimes["CPU"], result.job_runtimes["GPU"])

    base = cpu_gpu_completion(list(pair))
    if base <= 0:
        raise SpecError("degenerate baseline runtime")
    dsp_kernel = KernelSpec(elements=elements, variant="inplace").with_intensity(
        intensity
    )
    with_dsp = cpu_gpu_completion(
        pair + [ConcurrentJob("DSP", dsp_kernel, total_flops / 200)]
    )
    return max(0.0, with_dsp / base - 1.0)
