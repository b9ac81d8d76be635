"""The assembled simulated SoC: engines + shared DRAM + fabrics + heat.

:class:`SimulatedSoC` is the stand-in for the paper's physical
Snapdragon devices.  It runs :class:`~repro.sim.kernel.KernelSpec`
micro-benchmarks on one engine (for the roofline sweeps of Figs. 7
and 9) or on several engines concurrently (for the Fig. 8 mixing
experiment), with:

- per-engine cache hierarchies shaping attained bandwidth vs footprint;
- a shared DRAM interface arbitrated max-min fair among concurrent
  DRAM-resident kernels, with an interleaving-efficiency derate;
- fabric caps for engines on slower fabrics (the Hexagon DSP case);
- host-routed coordination overhead for offloaded work — the paper's
  third usecase bottleneck ("the IPs are exposed as individual
  devices ... the CPU gets an explicit interruption") — modeled as
  extra non-useful ops per element on non-host engines in concurrent
  runs;
- an optional thermal governor (disabled in "thermally controlled
  unit" mode, the paper's measurement setup).

:func:`simulated_snapdragon_835` calibrates an instance to the paper's
published measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import require_finite_positive, require_nonnegative
from ..errors import SimulationError, SpecError
from ..obs.metrics import bucket_histogram as _bucket_histogram
from ..obs.metrics import counter as _counter
from ..obs.trace import span as _span
from ..units import GIGA, KIB, MIB
from .contention import contention_efficiency, max_min_fair, weighted_fair
from .engine import ComputeEngine
from .kernel import KernelSpec
from .memory import MemoryHierarchy, MemoryLevel
from .thermal import ThermalSpec, ThermalState

#: Simulator telemetry (see docs/observability.md for the name scheme).
_KERNEL_RUNS = _counter("sim.kernel.runs")
_KERNEL_RUNTIME = _bucket_histogram("sim.kernel.runtime_s")
_THROTTLE_EVENTS = _counter("sim.thermal.throttle_events")
_CONTENTION_ROUNDS = _counter("sim.dram.contention_rounds")
_CONCURRENT_RUNS = _counter("sim.concurrent.runs")


@dataclass(frozen=True)
class PowerModel:
    """Simple linear power model for one engine."""

    idle_watts: float = 0.1
    joules_per_gflop: float = 0.1
    joules_per_gbyte: float = 0.1

    def power(self, flops_per_s: float, bytes_per_s: float) -> float:
        """Sustained watts at the given compute and traffic rates."""
        require_nonnegative(flops_per_s, "flops_per_s")
        require_nonnegative(bytes_per_s, "bytes_per_s")
        return (
            self.idle_watts
            + self.joules_per_gflop * flops_per_s / GIGA
            + self.joules_per_gbyte * bytes_per_s / GIGA
        )


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one simulated kernel run."""

    engine: str
    gflops: float  # attained useful GFLOP/s
    runtime_s: float
    intensity: float  # ops/byte of the kernel
    footprint_bytes: float
    service_level: str  # which memory level served the sweep
    throttle_factor: float  # 1.0 = no thermal throttling
    power_watts: float

    @property
    def attained_bandwidth(self) -> float:
        """Bytes/s the kernel actually streamed."""
        return self.gflops * GIGA / self.intensity


@dataclass(frozen=True)
class ConcurrentJob:
    """One engine's share of a concurrent run."""

    engine: str
    kernel: KernelSpec
    work_flops: float  # total useful FLOPs this job must complete

    def __post_init__(self) -> None:
        require_finite_positive(self.work_flops, "work_flops")


@dataclass(frozen=True)
class TimelineStep:
    """One fluid interval of a concurrent run.

    ``rates`` maps engine -> useful FLOP/s during [start_s, end_s);
    ``dram_shares`` maps engine -> allocated bytes/s for DRAM-resident
    jobs active in the interval.
    """

    start_s: float
    end_s: float
    rates: dict
    dram_shares: dict

    @property
    def duration_s(self) -> float:
        """Interval length."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class ConcurrentResult:
    """Outcome of a concurrent multi-engine run."""

    total_runtime_s: float
    job_runtimes: dict  # engine -> completion time
    total_flops: float
    throttle_factor: float
    timeline: tuple = ()

    @property
    def aggregate_gflops(self) -> float:
        """Useful GFLOP/s across all engines for the whole run."""
        return self.total_flops / self.total_runtime_s / GIGA

    def work_done(self, engine: str) -> float:
        """FLOPs an engine completed, integrated over the timeline."""
        return math.fsum(
            step.rates.get(engine, 0.0) * step.duration_s
            for step in self.timeline
        )


class SimulatedSoC:
    """A heterogeneous SoC behavioural simulator.

    Parameters
    ----------
    name:
        Platform label.
    engines:
        The programmable engines, host first (index 0 is the CPU that
        routes coordination).
    dram_bandwidth:
        Shared DRAM interface capacity, bytes/s (joint, all engines).
    fabric_caps:
        Optional engine-name -> bytes/s caps for engines behind slower
        fabrics.
    coordination_overhead_ops:
        Non-useful ops per element charged to *offloaded* (non-host)
        work in concurrent runs — dispatch, interrupts, rate-matching.
    thermal / thermally_controlled:
        Package thermals; controlled mode (default) never throttles,
        matching the paper's measurement chamber.
    power_models:
        Optional engine-name -> :class:`PowerModel`.
    """

    def __init__(
        self,
        name: str,
        engines,
        dram_bandwidth: float,
        fabric_caps: dict | None = None,
        coordination_overhead_ops: float = 1516.0,
        thermal: ThermalSpec | None = None,
        thermally_controlled: bool = True,
        power_models: dict | None = None,
    ) -> None:
        self.name = name
        self.engines = {engine.name: engine for engine in engines}
        if len(self.engines) != len(list(engines)):
            raise SpecError("engine names must be unique")
        if not self.engines:
            raise SpecError("SimulatedSoC needs at least one engine")
        self.host = next(iter(self.engines))
        self.dram_bandwidth = require_finite_positive(
            dram_bandwidth, "dram_bandwidth"
        )
        self.fabric_caps = dict(fabric_caps or {})
        for engine_name in self.fabric_caps:
            if engine_name not in self.engines:
                raise SpecError(f"fabric cap for unknown engine {engine_name!r}")
        self.coordination_overhead_ops = require_nonnegative(
            coordination_overhead_ops, "coordination_overhead_ops"
        )
        self.thermal = ThermalState(
            thermal or ThermalSpec(), controlled=thermally_controlled
        )
        self.power_models = dict(power_models or {})
        self.fault_injector = None

    def attach_faults(self, injector) -> None:
        """Attach a :class:`repro.resilience.FaultInjector` (or detach).

        While attached, every run consults the injector in a fixed
        order — dropout, then DRAM-bandwidth episode, then (inside the
        thermal model) forced-throttle episode, then multiplicative
        noise — so the injected timeline is a pure function of the
        injector's plan and seed.  Pass ``None`` to detach.
        """
        self.fault_injector = injector
        self.thermal.fault_source = (
            injector.throttle_factor if injector is not None else None
        )

    def _consult_faults(self, context: str) -> float:
        """Dropout check + DRAM derate draw for one run (1.0 = clean)."""
        injector = self.fault_injector
        if injector is None or not injector.plan.any_active:
            return 1.0
        injector.check_dropout(context)
        return injector.bandwidth_derate()

    def engine(self, name: str) -> ComputeEngine:
        """Look up an engine by name."""
        try:
            return self.engines[name]
        except KeyError:
            raise SpecError(
                f"platform {self.name!r} has no engine {name!r}; "
                f"available: {sorted(self.engines)}"
            ) from None

    def _power_model(self, name: str) -> PowerModel:
        return self.power_models.get(name, PowerModel())

    def _bandwidth_cap(self, engine_name: str) -> float:
        """Static per-engine cap from its fabric, if any."""
        return self.fabric_caps.get(engine_name, math.inf)

    # ------------------------------------------------------------------
    # Single-engine runs (roofline sweeps, Figs. 7 and 9)
    # ------------------------------------------------------------------

    def run_kernel(self, engine_name: str, kernel: KernelSpec) -> KernelResult:
        """Run Algorithm 1 on one engine; everything else is idle.

        The engine sees its full hierarchy bandwidth (capped by its
        fabric) and the whole DRAM interface; attained performance is
        its engine-level roofline at the kernel's intensity and
        footprint, derated by the thermal governor when uncontrolled.
        """
        _KERNEL_RUNS.inc()
        dram_derate = self._consult_faults(f"run_kernel on {engine_name!r}")
        with _span(
            "sim.run_kernel",
            engine=engine_name,
            intensity=kernel.intensity,
            footprint_bytes=kernel.footprint_bytes,
        ) as sp:
            result = self._run_kernel_impl(engine_name, kernel, dram_derate)
            sp.set_attribute("gflops", result.gflops)
            sp.set_attribute("service_level", result.service_level)
            sp.set_attribute("throttle_factor", result.throttle_factor)
        _KERNEL_RUNTIME.record(result.runtime_s)
        if result.throttle_factor < 1.0:
            _THROTTLE_EVENTS.inc()
        return result

    def _run_kernel_impl(
        self, engine_name: str, kernel: KernelSpec, dram_derate: float = 1.0
    ) -> KernelResult:
        engine = self.engine(engine_name)
        # Fabric and DRAM-interface caps gate off-chip traffic only;
        # cache/TCM-resident working sets never leave the engine.
        if engine.dram_resident(kernel.footprint_bytes):
            cap = min(
                self._bandwidth_cap(engine_name),
                self.dram_bandwidth * dram_derate,
            )
        else:
            cap = math.inf
        rate = engine.attained_flops(
            kernel.elements,
            kernel.intensity,
            simd=kernel.simd,
            bandwidth_cap=cap,
            write_fraction=kernel.write_fraction,
            footprint_bytes=kernel.footprint_bytes,
            dram_derate=dram_derate,
        )
        bytes_rate = rate / kernel.intensity
        power = self._power_model(engine_name).power(rate, bytes_rate)
        if rate <= 0:
            raise SimulationError(f"engine {engine_name!r} made no progress")

        # Transient thermal response: the run proceeds at full speed
        # until the die reaches the governor limit, then continues at
        # the sustainable-power rate.  A cold die therefore benchmarks
        # faster than a heat-soaked one — the run-to-run variance the
        # paper eliminated with its thermal chamber.
        full_speed_runtime = kernel.total_flops / rate
        time_to_limit = self.thermal.time_to_limit(power)
        if full_speed_runtime <= time_to_limit:
            runtime = full_speed_runtime
            self.thermal.advance(power, runtime)
        else:
            sustained_scale = min(
                1.0, self.thermal.spec.sustainable_watts / power
            )
            done_hot = rate * time_to_limit
            runtime = time_to_limit + (kernel.total_flops - done_hot) / (
                rate * sustained_scale
            )
            self.thermal.advance(power, time_to_limit)
            self.thermal.advance(power * sustained_scale,
                                 runtime - time_to_limit)
        # Injected faults degrade the *sustained* rate after the clean
        # thermal transient: a forced-governor episode (drawn inside the
        # thermal model, so it fires even in the controlled chamber)
        # and ambient multiplicative noise.
        fault_scale = self.thermal.fault_factor()
        if self.fault_injector is not None:
            fault_scale *= self.fault_injector.noise_factor()
        effective_rate = kernel.total_flops / runtime * fault_scale
        runtime = kernel.total_flops / effective_rate
        throttle = effective_rate / rate
        return KernelResult(
            engine=engine_name,
            gflops=effective_rate / GIGA,
            runtime_s=runtime,
            intensity=kernel.intensity,
            footprint_bytes=kernel.footprint_bytes,
            service_level=engine.hierarchy.service_level(kernel.footprint_bytes),
            throttle_factor=throttle,
            power_watts=power * throttle,
        )

    # ------------------------------------------------------------------
    # Concurrent runs (the Fig. 8 mixing experiment)
    # ------------------------------------------------------------------

    def _effective_rate(
        self,
        job: ConcurrentJob,
        dram_share: float | None,
        dram_derate: float = 1.0,
    ) -> float:
        """Useful FLOP/s for a job given its DRAM allocation.

        Offloaded (non-host) jobs pay the coordination overhead: of
        every ``F + overhead`` ops issued per element only ``F`` are
        useful.  The overhead consumes *issue slots*, so it derates the
        compute bound only — a memory-bound offload is still limited by
        its bandwidth, and min() keeps the two bounds separate.
        """
        engine = self.engine(job.engine)
        kernel = job.kernel
        if engine.dram_resident(kernel.footprint_bytes):
            cap = self._bandwidth_cap(job.engine)
            if dram_share is not None:
                cap = min(cap, dram_share)
        else:
            cap = math.inf
        compute_scale = 1.0
        if job.engine != self.host and self.coordination_overhead_ops > 0:
            useful = kernel.flops_per_element
            compute_scale = useful / (useful + self.coordination_overhead_ops)
        compute_bound = (
            engine.peak_flops(kernel.simd)
            * engine.utilization(kernel.elements)
            * compute_scale
        )
        bandwidth = engine.hierarchy.streaming_bandwidth(
            kernel.footprint_bytes, kernel.write_fraction,
            dram_derate=dram_derate,
        )
        bandwidth = min(bandwidth, cap)
        return min(compute_bound, bandwidth * kernel.intensity)

    def run_concurrent(self, jobs, qos_weights: dict | None = None
                       ) -> ConcurrentResult:
        """Run several kernels at once, sharing the DRAM interface.

        A fluid event loop: at each step, DRAM-resident jobs' demands
        are arbitrated over the (interleaving-derated) DRAM capacity —
        max-min fair by default, or weighted fair when ``qos_weights``
        maps engine names to arbiter weights (how real SoC memory
        controllers prioritize latency-critical IPs like the display
        pipeline) — every job progresses at its resulting rate, and
        time advances to the next completion, freeing that job's
        bandwidth for the survivors.
        """
        jobs = list(jobs)
        qos_weights = dict(qos_weights or {})
        for engine_name in qos_weights:
            if engine_name not in self.engines:
                raise SpecError(f"QoS weight for unknown engine {engine_name!r}")
        if not jobs:
            raise SpecError("run_concurrent needs at least one job")
        names = [job.engine for job in jobs]
        if len(set(names)) != len(names):
            raise SpecError(f"one job per engine, got {names!r}")
        for job in jobs:
            self.engine(job.engine)  # validate

        _CONCURRENT_RUNS.inc()
        dram_derate = self._consult_faults(
            f"run_concurrent on {', '.join(names)}"
        )
        with _span(
            "sim.run_concurrent", engines=",".join(names)
        ) as concurrent_span:
            result = self._run_concurrent_impl(jobs, qos_weights, dram_derate)
        concurrent_span.set_attribute("runtime_s", result.total_runtime_s)
        concurrent_span.set_attribute("steps", len(result.timeline))
        return result

    def _run_concurrent_impl(
        self, jobs, qos_weights, dram_derate: float = 1.0
    ) -> ConcurrentResult:
        remaining = {job.engine: job.work_flops for job in jobs}
        job_by_engine = {job.engine: job for job in jobs}
        completions: dict = {}
        timeline = []
        now = 0.0
        max_steps = 4 * len(jobs) + 8
        for _ in range(max_steps):
            active = [e for e, left in remaining.items() if left > 0]
            if not active:
                break
            _CONTENTION_ROUNDS.inc()
            dram_jobs = [
                e
                for e in active
                if self.engine(e).dram_resident(
                    job_by_engine[e].kernel.footprint_bytes
                )
            ]
            capacity = (
                self.dram_bandwidth * dram_derate
                * contention_efficiency(len(dram_jobs))
            )
            demands = []
            for e in dram_jobs:
                job = job_by_engine[e]
                # Demand if unconstrained by the shared interface.
                unconstrained = self._effective_rate(
                    job, dram_share=None, dram_derate=dram_derate
                )
                demands.append(unconstrained / job.kernel.intensity)
            if qos_weights and dram_jobs:
                weights = [qos_weights.get(e, 1.0) for e in dram_jobs]
                allocations = weighted_fair(capacity, demands, weights)
            else:
                allocations = max_min_fair(capacity, demands)
            shares = dict(zip(dram_jobs, allocations))

            rates = {}
            total_power = 0.0
            for e in active:
                job = job_by_engine[e]
                share = shares.get(e)
                rate = self._effective_rate(
                    job, dram_share=share, dram_derate=dram_derate
                )
                if rate <= 0:
                    raise SimulationError(f"job on {e!r} made no progress")
                rates[e] = rate
                total_power += self._power_model(e).power(
                    rate, rate / job.kernel.intensity
                )
            throttle = self.thermal.throttle_factor(total_power)
            if throttle < 1.0:
                _THROTTLE_EVENTS.inc()
            rates = {e: r * throttle for e, r in rates.items()}

            dt = min(remaining[e] / rates[e] for e in active)
            timeline.append(
                TimelineStep(
                    start_s=now,
                    end_s=now + dt,
                    rates=dict(rates),
                    dram_shares=dict(shares),
                )
            )
            for e in active:
                remaining[e] -= rates[e] * dt
                if remaining[e] <= 1e-6 * job_by_engine[e].work_flops:
                    remaining[e] = 0.0
                    completions[e] = now + dt
            self.thermal.advance(total_power * throttle, dt)
            now += dt
        else:
            raise SimulationError("concurrent run failed to converge")

        total_flops = math.fsum(job.work_flops for job in jobs)
        return ConcurrentResult(
            total_runtime_s=now,
            job_runtimes=completions,
            total_flops=total_flops,
            throttle_factor=self.thermal.throttle_factor(0.0),
            timeline=tuple(timeline),
        )


def simulated_snapdragon_821(
    thermally_controlled: bool = True,
) -> SimulatedSoC:
    """A :class:`SimulatedSoC` for the paper's second device.

    The paper publishes no Snapdragon 821 numbers — only that its
    "findings hold true for both systems" — so this platform uses the
    spec-derived estimates of :func:`repro.soc.presets.snapdragon_821`
    (Kryo quad-core, Adreno 530, Hexagon 680, LPDDR4 dual-channel),
    scaled with the same methodology as the 835 calibration.  The test
    suite verifies the *qualitative* Section IV findings on it, which
    is exactly the claim the paper makes.
    """
    cpu = ComputeEngine(
        name="CPU",
        scalar_flops=6.1 * GIGA,
        simd_multiplier=5.2,
        parallel_lanes=4,  # Kryo quad-core
        hierarchy=MemoryHierarchy(
            levels=(
                MemoryLevel("L1", 4 * 64 * KIB, 100 * GIGA),
                MemoryLevel("L2", 1.5 * MIB, 38 * GIGA),
            ),
            dram_read_bandwidth=17.8 * GIGA,
            # Solves 17.8 / (0.5 + 0.5/p) = 13.4.
            write_penalty=0.604,
        ),
        write_fraction=0.5,
        min_elements_per_lane=512,
    )
    gpu = ComputeEngine(
        name="GPU",
        scalar_flops=256.0 * GIGA,  # Adreno 530 attained estimate
        simd_multiplier=1.0,
        parallel_lanes=1024,
        hierarchy=MemoryHierarchy(
            levels=(MemoryLevel("GMEM", 1 * MIB, 64 * GIGA),),
            dram_read_bandwidth=23.6 * GIGA,
            # Solves 23.6 / (0.5 + 0.5/p) = 21.0.
            write_penalty=0.808,
        ),
        write_fraction=0.5,
        min_elements_per_lane=256,
    )
    dsp = ComputeEngine(
        name="DSP",
        scalar_flops=2.4 * GIGA,  # Hexagon 680 scalar threads
        simd_multiplier=1.0,
        parallel_lanes=4,
        hierarchy=MemoryHierarchy(
            levels=(MemoryLevel("TCM", 256 * KIB, 24 * GIGA),),
            dram_read_bandwidth=5.6 * GIGA,
            # Solves 5.6 / (0.5 + 0.5/p) = 4.6.
            write_penalty=0.697,
        ),
        write_fraction=0.5,
        min_elements_per_lane=2048,
    )
    return SimulatedSoC(
        name="sim-snapdragon-821",
        engines=(cpu, gpu, dsp),
        dram_bandwidth=29.8 * GIGA,
        fabric_caps={"DSP": 10 * GIGA},
        coordination_overhead_ops=1516.0,
        thermal=ThermalSpec(
            ambient_c=25.0,
            limit_c=75.0,
            resistance_c_per_w=14.3,
            time_constant_s=30.0,
        ),
        thermally_controlled=thermally_controlled,
        power_models={
            "CPU": PowerModel(idle_watts=0.3, joules_per_gflop=0.20,
                              joules_per_gbyte=0.09),
            "GPU": PowerModel(idle_watts=0.2, joules_per_gflop=0.014,
                              joules_per_gbyte=0.09),
            "DSP": PowerModel(idle_watts=0.05, joules_per_gflop=0.06,
                              joules_per_gbyte=0.09),
        },
    )


def simulated_snapdragon_835(
    thermally_controlled: bool = True,
) -> SimulatedSoC:
    """A :class:`SimulatedSoC` calibrated to the paper's Section IV.

    Calibration targets (all from the paper):

    ============================== =====================
    CPU scalar peak                7.5 GFLOP/s
    CPU NEON peak                  >40 GFLOP/s
    CPU DRAM read+write            15.1 GB/s
    CPU DRAM read-only             ~20 GB/s
    GPU peak                       349.6 GFLOP/s
    GPU DRAM (stream)              24.4 GB/s
    DSP scalar peak                3.0 GFLOP/s
    DSP DRAM                       5.4 GB/s (Fig. 9 axis)
    DSP fabric                     12.5 GB/s (Sec. IV-D)
    Theoretical DRAM               30 GB/s
    Mixing speedup @ I=1024        39.4x (Fig. 8)
    ============================== =====================

    The CPU write penalty is solved so 20 GB/s read-only blends to
    15.1 GB/s read+write; the coordination-overhead default derates
    offloaded GPU work to ~295 GFLOP/s so the mixing experiment's
    headline 39.4x emerges from 295 / 7.5.
    """
    cpu = ComputeEngine(
        name="CPU",
        scalar_flops=7.5 * GIGA,
        simd_multiplier=5.6,  # NEON: 7.5 -> 42 GFLOP/s ("in excess of 40")
        parallel_lanes=8,  # Kryo 280: 8 cores
        hierarchy=MemoryHierarchy(
            levels=(
                MemoryLevel("L1", 8 * 64 * KIB, 120 * GIGA),
                MemoryLevel("L2", 3 * MIB, 45 * GIGA),  # 2M big + 1M little
            ),
            dram_read_bandwidth=20 * GIGA,
            # Solves 20 / (0.5 + 0.5/p) = 15.1.
            write_penalty=0.6064,
        ),
        write_fraction=0.5,
        min_elements_per_lane=512,
    )
    gpu = ComputeEngine(
        name="GPU",
        scalar_flops=349.6 * GIGA,  # attained; theoretical 567
        simd_multiplier=1.0,  # shader rate already full width
        parallel_lanes=1024,  # 1024 workgroups x 256 threads
        hierarchy=MemoryHierarchy(
            levels=(MemoryLevel("GMEM", 1 * MIB, 80 * GIGA),),
            dram_read_bandwidth=27.45 * GIGA,
            # Solves 27.45 / (0.5 + 0.5/p) = 24.4.
            write_penalty=0.8,
        ),
        write_fraction=0.5,
        min_elements_per_lane=256,
    )
    dsp = ComputeEngine(
        name="DSP",
        scalar_flops=3.0 * GIGA,  # scalar unit; spec 3.6 for 4 threads
        simd_multiplier=1.0,  # HVX vector unit is integer-only
        parallel_lanes=4,  # four scalar threads
        hierarchy=MemoryHierarchy(
            levels=(MemoryLevel("TCM", 256 * KIB, 30 * GIGA),),
            dram_read_bandwidth=6.56 * GIGA,
            # Solves 6.56 / (0.5 + 0.5/p) = 5.4.
            write_penalty=0.7,
        ),
        write_fraction=0.5,
        min_elements_per_lane=2048,
    )
    return SimulatedSoC(
        name="sim-snapdragon-835",
        engines=(cpu, gpu, dsp),
        dram_bandwidth=30 * GIGA,
        fabric_caps={"DSP": 12.5 * GIGA},
        coordination_overhead_ops=1516.0,
        thermal=ThermalSpec(
            ambient_c=25.0,
            limit_c=75.0,
            resistance_c_per_w=14.3,  # sustainable ~3.5 W (passive phone)
            time_constant_s=30.0,
        ),
        thermally_controlled=thermally_controlled,
        power_models={
            "CPU": PowerModel(idle_watts=0.3, joules_per_gflop=0.16,
                              joules_per_gbyte=0.08),
            "GPU": PowerModel(idle_watts=0.2, joules_per_gflop=0.011,
                              joules_per_gbyte=0.08),
            "DSP": PowerModel(idle_watts=0.05, joules_per_gflop=0.05,
                              joules_per_gbyte=0.08),
        },
    )
