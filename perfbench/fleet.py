"""``fleet``: repeated market fleet sweeps plus fixed-size grid fleets.

Each market run is ``run_fleet_sweep(market_spec_population(),
workers=2)`` (730 specs); a ``run_fleet_grid_sweep`` over
:data:`GRID_POINTS` synthetic rows with ``engine="auto"`` and 2
workers runs before them, after each third of the time and at the
end.  Two workers because the reference host has two cores.  Wall
times are reported at reference speed (:mod:`perfbench.speed`).  The
oracle: every market run's points equal a ``workers=1`` run bitwise,
and the grid digest equals a serial interpreted run's.

A fleet call's wall time splits into shard evaluation (the slowest
worker's ``elapsed_s``), merge (wall time outside the call's own
``elapsed_s``) and spawn (the rest: process start, import, kernel
build and result transfer).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from perfbench import gen, metrics, oracle, speed
from perfbench.agent import compile_stats, peak_rss_mb
from perfbench.metrics import Outcome
from perfbench.tracing import Tracer

WORKERS = 2
GRID_POINTS = 2_000_000
#: Reference pieces timed after each fleet run.
PROBE_PIECES = 12
#: The generated SoC the grid fleet sweeps (4 IPs).
GRID_SOC = 2


@dataclass
class State:
    seed: int
    population: tuple
    first: object
    reference: object = None
    grid_digest: str | None = None


@dataclass
class Run:
    """One timed fleet call."""

    kind: str  # "market" or "grid"
    wall_s: float
    result: object
    #: To reference speed, from the pieces timed right after the run.
    scale: float = 1.0

    def split(self) -> dict:
        """Wall seconds per fleet stage."""
        shard = max((w.elapsed_s for w in self.result.workers), default=0.0)
        merge = max(self.wall_s - self.result.elapsed_s, 0.0)
        return {
            "explore.fleet.shard_eval": shard,
            "explore.fleet.merge": merge,
            "explore.fleet.spawn": max(self.wall_s - shard - merge, 0.0),
        }


def first_result(seed: int) -> State:
    """The population, then the first merged market fleet result."""
    from repro.explore.fleet import run_fleet_sweep
    from repro.market import market_spec_population

    population = market_spec_population()
    return State(seed, population, run_fleet_sweep(population,
                                                   workers=WORKERS))


def check_first(state: State) -> Outcome:
    from repro.explore.fleet import run_fleet_sweep

    state.reference = run_fleet_sweep(state.population, workers=1).points
    outcome = Outcome(attempted=1)
    problem = oracle.compare_fleet_points(state.first.points,
                                          state.reference)
    if problem:
        outcome.fail(problem)
    return outcome


def _timed(kind: str, fn, tracer, *args, **kwargs) -> Run:
    start = time.perf_counter()
    if tracer is None:
        result = fn(*args, **kwargs)
    else:
        result = tracer.call(fn, f"repro.explore.fleet.{fn.__name__}",
                             "explore.fleet", *args, **kwargs)
    return Run(kind, time.perf_counter() - start, result)


@dataclass
class Phase:
    runs: list = field(default_factory=list)
    #: Reference pieces timed after every run (:mod:`perfbench.speed`).
    probe: speed.Probe = field(default_factory=speed.Probe)

    def of(self, kind: str) -> list:
        return [run for run in self.runs if run.kind == kind]


def measure(state: State, seconds: float, grid: bool, tracer=None) -> Phase:
    """Market runs until the time is up (at least 3); with ``grid``,
    a grid run before them, one after each third and one after."""
    from repro.explore.fleet import run_fleet_grid_sweep, run_fleet_sweep

    def timed(kind, fn, *args, **kwargs):
        run = _timed(kind, fn, tracer, *args, **kwargs)
        first_piece = len(phase.probe.seconds)
        phase.probe.sample(PROBE_PIECES)
        run.scale = phase.probe.scale(first_piece)
        phase.runs.append(run)

    def grid_run():
        timed("grid", run_fleet_grid_sweep, decode_grid_soc(state.seed),
              points=GRID_POINTS, workers=WORKERS, engine="auto",
              seed=state.seed)

    phase = Phase()
    start = time.perf_counter()
    for share in (1 / 3, 2 / 3, 1.0):
        if grid:
            grid_run()
        while (len(phase.of("market")) < 3 * share
               or time.perf_counter() < start + share * seconds):
            timed("market", run_fleet_sweep, state.population,
                  workers=WORKERS)
    if grid:
        grid_run()
    return phase


def _check(state: State, phase: Phase, outcome: Outcome) -> None:
    from repro.explore.fleet import run_fleet_grid_sweep

    for run in phase.runs:
        outcome.attempted += 1
        if run.kind == "market":
            problem = oracle.compare_fleet_points(run.result.points,
                                                  state.reference)
        else:
            if state.grid_digest is None:
                state.grid_digest = run_fleet_grid_sweep(
                    decode_grid_soc(state.seed), points=GRID_POINTS,
                    workers=1, engine="interpreted", seed=state.seed,
                ).digest
            problem = None if run.result.digest == state.grid_digest else \
                "grid fleet digest differs from the serial interpreted run"
        if problem:
            outcome.fail(problem)


def decode_grid_soc(seed: int):
    from repro.io.json_codec import decode_soc

    return decode_soc(gen.soc_documents(seed)[GRID_SOC])


def run(state: State, seconds: float, trace: bool, outcome: Outcome) -> None:
    if not trace:
        phase = measure(state, seconds, grid=True)
        _check(state, phase, outcome)
        _report(phase, outcome)
        outcome.reference_s = phase.probe.seconds
        return
    untraced = measure(state, seconds / 2, grid=False)
    tracer = Tracer()
    traced = measure(state, seconds / 2, grid=True, tracer=tracer)
    _check(state, untraced, outcome)
    _check(state, traced, outcome)
    _layers(untraced, traced, outcome)


def _median_wall(phase: Phase, kind: str) -> float:
    """Median wall time of ``kind`` runs, each at reference speed."""
    return statistics.median(run.wall_s * run.scale for run in phase.of(kind))


def _report(phase: Phase, outcome: Outcome) -> None:
    market = phase.of("market")
    grids = phase.of("grid")
    wall = _median_wall(phase, "market")
    rate = len(grids) * GRID_POINTS / (
        sum(run.wall_s for run in grids) * phase.probe.scale())
    rss = peak_rss_mb(children=True)
    outcome.metrics.update(
        latency_p50_ms=wall * 1e3, throughput_per_s=rate, peak_rss_mb=rss,
    )
    points = len(market[0].result.points)
    outcome.show("fleet_market_wall_s", wall, "s", len(market),
                 f"{points} specs, {WORKERS} workers, median, "
                 f"at reference speed")
    outcome.show("raw_fleet_market_wall_s",
                 statistics.median(run.wall_s for run in market), "s",
                 len(market), "as measured")
    outcome.show("fleet_grid_points_per_s", rate, "points/s", len(grids),
                 f"{GRID_POINTS} points per run, {WORKERS} workers, "
                 f"spawn to digest, all runs, at reference speed")
    phase.probe.show(outcome)
    for stage, seconds in _median_split(market).items():
        outcome.show(f"{stage}_s", seconds, "s", len(market),
                     "median per market run")
    outcome.show("peak_rss_mb", rss, "MB", None,
                 "parent plus its largest worker")


def _median_split(runs: list) -> dict:
    splits = [run.split() for run in runs]
    return {
        stage: metrics.percentile([s[stage] for s in splits], 50)
        for stage in splits[0]
    }


def _layers(untraced: Phase, traced: Phase, outcome: Outcome) -> None:
    stage_s: dict = {}
    for run in traced.runs:
        for stage, seconds in run.split().items():
            stage_s[stage] = stage_s.get(stage, 0.0) + seconds
    total = sum(run.wall_s for run in traced.runs)
    stats = compile_stats()
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    untraced_p50 = _median_wall(untraced, "market")
    traced_p50 = _median_wall(traced, "market")
    values = dict.fromkeys(metrics.PER_LAYER, 0.0)
    values.update(metrics.shares(stage_s, total))
    values.update({
        "core.compile.hit_ratio": metrics.ratio(stats.get("hits", 0),
                                                lookups),
        "core.compile.builds": stats.get("builds", 0),
        "obs.trace_overhead": traced_p50 / untraced_p50 - 1.0,
    })
    outcome.metrics.update(values)
    market = traced.of("market")
    for stage, seconds in _median_split(market).items():
        outcome.show(f"{stage}_s", seconds, "s", len(market),
                     "median per market run")
    grid = traced.of("grid")[0]
    for stage, seconds in grid.split().items():
        outcome.show(f"{stage}_s[grid]", seconds, "s", 1)
    outcome.show("obs.trace_overhead", values["obs.trace_overhead"],
                 "ratio", len(market),
                 f"traced/untraced fleet_market_wall at reference speed "
                 f"{traced_p50:.4g}/{untraced_p50:.4g} s")
