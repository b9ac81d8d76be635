"""``offline_sweep``: the explore drivers and reports, in-process.

One cycle visits every generated SoC (2..8 IPs) and calls the public
drivers on it with ``on_error="raise"``: ``sweep_fraction``,
``sweep_intensity`` and ``sweep_memory_bandwidth`` over 20k values,
``sweep_grid`` over a 100 x 100 (f, I) grid, and
``evaluate_variant_batch`` for all seven variant kinds over 50k rows
(multipath, which solves an LP per point, over 32).  ``report_all``
runs once per measured phase.  Cycles repeat until the time is up.

The oracle compares the first result of every call with the same call
on the interpreted engine (1e-12 relative, identical bottlenecks), and
every repeat with the first result bitwise.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from perfbench import gen, metrics, oracle, speed
from perfbench.agent import compile_stats, peak_rss_mb
from perfbench.metrics import Outcome
from perfbench.tracing import CORE_TARGETS, Tracer, batch_counters, \
    self_seconds

#: Variant kinds batched on every SoC (all seven).
VARIANTS = (
    "base", "serialized", "coordination", "interconnect", "memory-side",
    "multipath", "phases",
)


@dataclass
class Call:
    """One timed call of the cycle."""

    name: str
    layer: str
    fn: object
    args: tuple
    kwargs: dict
    points: int
    op: bool  # a 20k-point sweep_* call: feeds latency_p50_ms

    def run(self, tracer=None, **override):
        kwargs = {**self.kwargs, **override}
        if tracer is None:
            return self.fn(*self.args, **kwargs)
        return tracer.call(self.fn, self.name, self.layer, *self.args,
                           **kwargs)


def calls_for(entry: dict) -> list:
    """The calls of one SoC, built from its generated inputs."""
    from repro.core.params import Workload
    from repro.core.variants import evaluate_variant_batch, \
        variant_from_config
    from repro.explore.sweep import sweep_fraction, sweep_intensity, \
        sweep_memory_bandwidth
    from repro.explore.sweep2d import sweep_grid
    from repro.io.json_codec import decode_soc, decode_workload

    soc = decode_soc(entry["soc"])
    workload = decode_workload(entry["workload"])
    n = soc.n_ips
    ip = entry["ip_index"]
    tag = f"soc{n}"

    def mixing(x: float, y: float) -> Workload:
        fractions = [0.0] * n
        fractions[0] = 1.0 - x
        fractions[n - 1] += x
        return Workload(tuple(fractions), (float(y),) * n)

    raise_mode = {"on_error": "raise"}
    calls = [
        Call(f"sweep_fraction/{tag}", "explore.sweep", sweep_fraction,
             (soc, workload, ip, entry["fractions"]), raise_mode,
             gen.DRIVER_POINTS, True),
        Call(f"sweep_intensity/{tag}", "explore.sweep", sweep_intensity,
             (soc, workload, ip, entry["intensities"]), raise_mode,
             gen.DRIVER_POINTS, True),
        Call(f"sweep_memory_bandwidth/{tag}", "explore.sweep",
             sweep_memory_bandwidth, (soc, workload, entry["bandwidths"]),
             raise_mode, gen.DRIVER_POINTS, True),
        Call(f"sweep_grid/{tag}", "explore.sweep", sweep_grid,
             (soc, "f", list(entry["grid_x"]), "I", list(entry["grid_y"]),
              mixing), raise_mode, gen.GRID_SIDE ** 2, False),
    ]
    fractions = entry["batch_fractions"]
    intensities = entry["batch_intensities"]
    for kind in VARIANTS:
        config = {"phases": entry["phases"]} if kind == "phases" else None
        variant = variant_from_config(kind, soc, config)
        name = f"evaluate_variant_batch[{kind}]/{tag}"
        if kind == "phases":
            args = (soc, variant)
            kwargs = {"memory_bandwidth": entry["batch_bandwidths"]}
            points = len(entry["batch_bandwidths"])
        else:
            rows = gen.MULTIPATH_POINTS if kind == "multipath" else None
            args = (soc, variant, fractions[:rows], intensities[:rows])
            kwargs = {}
            points = len(args[2])
        calls.append(Call(name, "core.batch", evaluate_variant_batch, args,
                          kwargs, points, False))
    return calls


@dataclass
class State:
    seed: int
    first: object = None
    first_call: Call | None = None
    digests: dict = field(default_factory=dict)


def first_result(seed: int) -> State:
    """The workload's first result: one 20k-point fraction sweep."""
    entry = gen.offline_entry(seed, gen.soc_documents(seed)[0])
    first_call = calls_for(entry)[0]
    return State(seed, first_call.run(), first_call)


def check_first(state: State) -> Outcome:
    outcome = Outcome(attempted=1)
    problem = oracle.compare_engines(
        state.first, state.first_call.run(engine="interpreted")
    )
    if problem:
        outcome.fail(f"{state.first_call.name}: {problem}")
    return outcome


@dataclass
class Phase:
    """What one measured phase recorded, as measured.  ``probe`` timed
    a reference piece after every call (:mod:`perfbench.speed`)."""

    seconds: list = field(default_factory=list)  # per call
    op_seconds: list = field(default_factory=list)
    cycle_seconds: list = field(default_factory=list)
    cycle_scales: list = field(default_factory=list)  # each cycle's pieces
    points: int = 0
    report_s: float = 0.0
    probe: speed.Probe = field(default_factory=speed.Probe)

    @property
    def busy_s(self) -> float:
        return sum(self.seconds) + self.report_s

    def cycle_p50_s(self) -> float:
        """Median cycle at reference speed, each cycle scaled by the
        pieces timed between its calls."""
        return statistics.median(
            s * scale for s, scale in zip(self.cycle_seconds,
                                          self.cycle_scales)
        )


def _verify(state: State, index: int, call: Call, result) -> str | None:
    """First result vs the interpreted engine; repeats vs the first."""
    got = oracle.digest(result)
    want = state.digests.get(index)
    if want is None:
        state.digests[index] = got
        return oracle.compare_engines(
            result, call.run(engine="interpreted")
        )
    if got != want:
        return "repeated call returned a different result"
    return None


def measure(state: State, cycle: list, seconds: float, outcome: Outcome,
            tracer=None) -> Phase:
    """Whole cycles until ``seconds`` have passed, plus one report."""
    from repro.reports import report_all

    phase = Phase()
    deadline = time.perf_counter() + seconds
    while not phase.cycle_seconds or time.perf_counter() < deadline:
        cycle_s = 0.0
        first_piece = len(phase.probe.seconds)
        for index, call in enumerate(cycle):
            if tracer is not None:
                tracer.set_request(f"cycle{len(phase.cycle_seconds)}/{index}")
            start = time.perf_counter()
            result = call.run(tracer)
            elapsed = time.perf_counter() - start
            cycle_s += elapsed
            phase.seconds.append(elapsed)
            phase.points += call.points
            if call.op:
                phase.op_seconds.append(elapsed)
            outcome.attempted += 1
            problem = _verify(state, index, call, result)
            if problem:
                outcome.fail(f"{call.name}: {problem}")
            phase.probe.sample()
        if not phase.cycle_seconds:
            start = time.perf_counter()
            if tracer is None:
                text = report_all()
            else:
                text = tracer.call(report_all, "repro.reports.report_all",
                                   "reports")
            phase.report_s = time.perf_counter() - start
            outcome.attempted += 1
            problem = oracle.check_report(text)
            if problem:
                outcome.fail(problem)
        phase.cycle_seconds.append(cycle_s)
        phase.cycle_scales.append(phase.probe.scale(first_piece))
    return phase


def run(state: State, seconds: float, trace: bool, outcome: Outcome) -> None:
    cycle = [
        call for soc in gen.soc_documents(state.seed)
        for call in calls_for(gen.offline_entry(state.seed, soc))
    ]
    if not trace:
        phase = measure(state, cycle, seconds, outcome)
        _report(phase, outcome)
        outcome.reference_s = phase.probe.seconds
        return
    untraced = measure(state, cycle, seconds / 2, outcome)
    tracer = Tracer()
    tracer.install(CORE_TARGETS)
    try:
        traced = measure(state, cycle, seconds / 2, outcome, tracer)
    finally:
        tracer.restore()
    _layers(untraced, traced, tracer.spans, outcome)


def _report(phase: Phase, outcome: Outcome) -> None:
    """End-to-end figures.  The gated latency is one whole cycle (the
    full study over all SoCs) at reference speed: the ~30 ms single
    calls swing far more with load from other tenants of the host than
    the cycle does."""
    cycle_p50 = phase.cycle_p50_s() * 1e3
    rate = metrics.ratio(phase.points, phase.busy_s * phase.probe.scale())
    rss = peak_rss_mb()
    outcome.metrics.update(
        latency_p50_ms=cycle_p50, throughput_per_s=rate, peak_rss_mb=rss,
    )
    cycles = len(phase.cycle_seconds)
    outcome.show("cycle_p50_ms", cycle_p50, "ms", cycles,
                 f"{len(phase.seconds) // cycles} calls over "
                 f"{len(gen.IP_COUNTS)} SoCs, at reference speed")
    outcome.show("raw_cycle_p50_ms",
                 metrics.percentile(phase.cycle_seconds, 50) * 1e3, "ms",
                 cycles, "as measured")
    phase.probe.show(outcome)
    n_ops = len(phase.op_seconds)
    outcome.show("sweep_call_p50_ms",
                 metrics.percentile(phase.op_seconds, 50) * 1e3, "ms", n_ops,
                 f"one {gen.DRIVER_POINTS}-point sweep_* driver call, "
                 f"as measured")
    q, tail = metrics.tail(phase.op_seconds)
    if q is not None:
        outcome.show(f"sweep_call_p{q:g}_ms", tail * 1e3, "ms", n_ops)
    outcome.show("offline_points_per_s", rate, "points/s",
                 len(phase.seconds),
                 f"{phase.points} points, at reference speed")
    outcome.show("reports.report_all_s", phase.report_s, "s", 1)
    outcome.show("peak_rss_mb", rss, "MB", None, "benchmark process")


def _layers(untraced: Phase, traced: Phase, spans, outcome: Outcome) -> None:
    roots = [s for s in spans if s.depth == 0]
    total = sum(s.duration for s in roots) / 1e9
    layer_s = self_seconds(roots, spans)
    counts = batch_counters(spans)
    stats = compile_stats()
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    untraced_p50, traced_p50 = (
        metrics.percentile(phase.op_seconds, 50) * phase.probe.scale()
        for phase in (untraced, traced)
    )
    values = dict.fromkeys(metrics.PER_LAYER, 0.0)
    values.update(metrics.shares(layer_s, total))
    values.update({
        "explore.sweep.batched_point_share": metrics.ratio(
            counts["batched_points"], counts["swept_points"]),
        "core.batch.calls": counts["calls"],
        "core.batch.rows_per_call": metrics.ratio(
            counts["rows"], counts["calls"]),
        "core.compile.hit_ratio": metrics.ratio(stats.get("hits", 0),
                                                lookups),
        "core.compile.builds": stats.get("builds", 0),
        "core.compile.interpreted_row_share": metrics.ratio(
            counts["rows"] - counts["compiled_rows"], counts["rows"]),
        "obs.trace_overhead": traced_p50 / untraced_p50 - 1.0,
    })
    outcome.metrics.update(values)
    reports_s = sum(s.duration for s in roots if s.layer == "reports") / 1e9
    outcome.show("explore.sweep.materialize_ns_per_point",
                 metrics.ratio(layer_s.get("explore.sweep", 0.0) * 1e9,
                               counts["swept_points"]),
                 "ns/point", counts["swept_points"])
    outcome.show("core.batch.prepare_ms",
                 metrics.ratio(counts["prepare_s"] * 1e3, counts["calls"]),
                 "ms", counts["calls"], "per batch call")
    outcome.show("core.batch.ns_per_point",
                 metrics.ratio(counts["batch_s"] * 1e9, counts["rows"]),
                 "ns/point", counts["rows"])
    outcome.show("core.compile.hit_ratio",
                 values["core.compile.hit_ratio"], "ratio", lookups,
                 "compile_cache_stats() lookups")
    outcome.show("reports.report_all_s", reports_s, "s", 1)
    outcome.show("obs.trace_overhead", values["obs.trace_overhead"],
                 "ratio", len(traced.op_seconds),
                 f"traced/untraced sweep_call_p50 at reference speed "
                 f"{traced_p50 * 1e3:.4g}/{untraced_p50 * 1e3:.4g} ms")
