"""Command-line interface: ``gables`` (or ``python -m repro.cli``).

Subcommands::

    gables eval     --soc soc.json --workload usecase.json
    gables eval     --figure 6b [--explain]
    gables eval     --figure 6b --variant interconnect
    gables plot     --figure 6d --out fig6d.svg       (or --ascii)
    gables sweep    --figure 6b --param f --steps 9
    gables sweep    --figure 6b --variant multipath --param bpeak
    gables measure  --engine CPU                       (simulated ERT)
    gables report   fig2 | ... | table1 | variants | all
    gables report   dashboard out.html      (self-contained HTML page)
    gables presets
    gables trace summarize trace.jsonl
    gables trace export trace.jsonl --format chrome    (Perfetto)
    gables profile -- sweep --figure 6b --steps 99
    gables bench compare --history BENCH_HISTORY.jsonl
    gables fleet run --workers 2 --telemetry shards/
    gables telemetry merge shards/ --dashboard fleet.html
    gables logs summarize shards/worker-w0/logs.jsonl --tail 10
    gables serve --port 8080 --cache cache.jsonl
    gables client eval --figure 6b --url http://127.0.0.1:8080
    gables client health
    gables client loadgen --clients 8 --fault-plan chaos-default \
                          --history BENCH_HISTORY.jsonl
    gables slo check --url http://127.0.0.1:8080 \
                     --history BENCH_HISTORY.jsonl --alerts ALERTS.jsonl
    gables slo dashboard --url http://127.0.0.1:8080 --out serve.html

Observability flags (accepted globally and on every subcommand; see
docs/observability.md and docs/profiling.md)::

    gables --trace t.jsonl --metrics m.json eval --figure 6b
    gables -v sweep --figure 6b        # INFO logging (-vv for DEBUG)
    gables --log-level debug report fig8

Resilience flags (see docs/robustness.md)::

    gables measure --fault-plan chaos-default --seed 0
    gables measure --engine GPU --checkpoint sweep.jsonl
    gables sweep --figure 6b --on-error record
    gables report all --on-error record

Errors exit with the code of the failing exception class
(:func:`repro.errors.exit_code_for`): 2 for a generic failure, and a
stable per-class code (3 = spec, 4 = workload, ..., 10 = measurement)
for everything more specific.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import io as repro_io
from . import obs
from .core import (
    ENGINE_CHOICES,
    FIGURE_6_SEQUENCE,
    VARIANT_CHOICES,
    evaluate,
    evaluate_variant,
    variant_from_config,
)
from .core.two_ip import TwoIPScenario
from .errors import ReproError, exit_code_for
from .resilience import FAULT_PLANS, ON_ERROR_MODES, degraded_banner
from .units import format_bandwidth, format_ops

_log = logging.getLogger("repro.cli")

#: ``--log-level`` choices, mapped onto the stdlib levels.
LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _figure_scenario(tag: str) -> TwoIPScenario:
    by_name = {s.name: s for s in FIGURE_6_SEQUENCE}
    key = f"fig{tag}" if not tag.startswith("fig") else tag
    if key not in by_name:
        raise ReproError(
            f"unknown figure {tag!r}; choose from "
            f"{sorted(name[3:] for name in by_name)}"
        )
    return by_name[key]


def _load_pair(args) -> tuple:
    if args.figure:
        scenario = _figure_scenario(args.figure)
        return scenario.soc(), scenario.workload()
    if not (args.soc and args.workload):
        raise ReproError("provide either --figure or both --soc and --workload")
    return repro_io.load(args.soc), repro_io.load(args.workload)


def _variant_config(args):
    """``--variant-config`` as parsed JSON (inline or a file path),
    or None when it is not given."""
    raw = getattr(args, "variant_config", None)
    if not raw:
        return None
    import json

    try:
        if raw.lstrip().startswith("{"):
            return json.loads(raw)
        with open(raw, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise ReproError(f"cannot read --variant-config: {err}") from err


def _variant_from_args(args, soc):
    """Build the requested :class:`ModelVariant`, or None for base."""
    name = getattr(args, "variant", None)
    if not name:
        return None
    return variant_from_config(name, soc, _variant_config(args))


def _retry_policy(args):
    """``--retries N`` as ``RetryPolicy(N)``; with a fault plan and no
    ``--retries``, the default policy (injected dropouts need retries
    to converge); otherwise None."""
    from .resilience import DEFAULT_RETRY_POLICY, RetryPolicy

    if args.retries is not None:
        return RetryPolicy(max_attempts=args.retries)
    return DEFAULT_RETRY_POLICY if args.fault_plan else None


def _cmd_eval(args) -> int:
    soc, workload = _load_pair(args)
    variant = _variant_from_args(args, soc)
    if variant is None:
        result = evaluate(soc, workload)
    else:
        result = evaluate_variant(
            soc, workload if variant.requires_workload else None, variant
        )
    print(f"SoC: {soc.name}   usecase: {workload.name}")
    if variant is not None and not variant.requires_workload:
        print(f"phased usecase: attainable "
              f"{format_ops(result.attainable)} "
              f"(binding phase: {result.bottleneck_phase})")
        for (phase, sub), time in zip(result.phase_results,
                                      result.phase_times):
            print(f"  {phase.name}: work={phase.work:g} "
                  f"time={time:.4g}s/op ({sub.bottleneck}-bound)")
        return 0
    print(result.summary())
    if getattr(args, "explain", False):
        record = obs.provenance.from_result(soc, workload, result)
        print()
        print(record.narrative())
        print(f"audit vs bottleneck analysis: "
              f"{'agrees' if record.audit() else 'DISAGREES'}")
    return 0


def _cmd_plot(args) -> int:
    from .viz import RooflinePlotData, roofline_ascii, roofline_svg

    soc, workload = _load_pair(args)
    data = RooflinePlotData.from_model(
        soc, workload, variant=_variant_from_args(args, soc)
    )
    if args.ascii or not args.out:
        print(roofline_ascii(data))
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(roofline_svg(data))
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from .explore import sweep_fraction, sweep_intensity, sweep_memory_bandwidth

    soc, workload = _load_pair(args)
    variant = _variant_from_args(args, soc)
    steps = args.steps
    on_error = args.on_error
    if args.param == "f":
        values = [k / (steps - 1) for k in range(steps)]
        series = sweep_fraction(
            soc, workload, args.ip, values, on_error=on_error,
            variant=variant,
        )
    elif args.param == "intensity":
        values = [2.0**k for k in range(-4, steps - 4)]
        series = sweep_intensity(
            soc, workload, args.ip, values, on_error=on_error,
            variant=variant,
        )
    elif args.param == "bpeak":
        base = soc.memory_bandwidth
        values = [base * (0.25 + 0.25 * k) for k in range(steps)]
        series = sweep_memory_bandwidth(
            soc, workload, values, on_error=on_error, variant=variant,
        )
    else:
        raise ReproError(f"unknown sweep parameter {args.param!r}")
    if series.errors:
        print(degraded_banner(series.errors, len(values)))
    print(f"sweep {series.parameter}:")
    for point in series.points:
        print(
            f"  {point.value:>12.6g}  {format_ops(point.attainable):>14}"
            f"  ({point.bottleneck})"
        )
    for transition in series.bottleneck_transitions():
        print(
            f"  transition in ({transition.previous_value:g}, "
            f"{transition.value:g}]: {transition.from_component} -> "
            f"{transition.to_component}"
        )
    return 0


def _cmd_measure(args) -> int:
    from .ert import fit_roofline, roofline_summary, run_sweep
    from .sim import simulated_snapdragon_835

    platform = simulated_snapdragon_835()
    sweep = run_sweep(
        platform,
        args.engine,
        seed=args.seed,
        fault_plan=args.fault_plan,
        retry_policy=_retry_policy(args),
        checkpoint=args.checkpoint,
    )
    fitted = fit_roofline(sweep)
    print(roofline_summary(fitted))
    if sweep.faults is not None:
        counts = sweep.faults["counts"]
        breakdown = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(counts.items())
            if count
        )
        print(
            f"fault plan {sweep.faults['plan']!r} "
            f"(seed {sweep.faults['seed']}): "
            f"{sweep.faults['injected']} faults injected"
            + (f" ({breakdown})" if breakdown else "")
        )
    return 0


def _cmd_html(args) -> int:
    from .viz import save_interactive_report

    soc, workload = _load_pair(args)
    save_interactive_report(soc, workload, args.out)
    print(f"wrote {args.out} (open in any browser; fully offline)")
    return 0


def _cmd_power(args) -> int:
    from .power import (
        EnergyModel,
        evaluate_power_constrained,
        max_tdp_needed,
        usecase_energy,
    )

    soc, workload = _load_pair(args)
    model = EnergyModel.mobile_default(soc)
    result = evaluate_power_constrained(soc, workload, model, args.tdp)
    energy = usecase_energy(soc, workload, model)
    print(f"TDP {args.tdp:g} W: attainable {format_ops(result.attainable)} "
          f"(bottleneck: {result.bottleneck})")
    print(f"unconstrained Gables bound: "
          f"{format_ops(result.gables.attainable)}")
    print(f"sustained fraction: {result.sustained_fraction():.2f}")
    print(f"TDP needed for the full bound: "
          f"{max_tdp_needed(soc, workload, model):.2f} W")
    print(f"energy per op: {energy.energy_per_op:.3e} J "
          f"(avg power at full rate: {energy.average_power:.2f} W)")
    return 0


def _cmd_interval(args) -> int:
    from .core.uncertainty import evaluate_with_margin

    soc, workload = _load_pair(args)
    result = evaluate_with_margin(soc, workload, args.margin)
    print(f"attainable in [{format_ops(result.lo)}, "
          f"{format_ops(result.hi)}] at ±{args.margin:g}% inputs "
          f"(x{result.width_ratio:.2f} spread)")
    if result.regime_stable:
        print(f"bottleneck stable: {result.pessimistic_bottleneck}")
    else:
        print(f"bottleneck REGIME CHANGES across the uncertainty: "
              f"{result.pessimistic_bottleneck} (pessimistic) vs "
              f"{result.optimistic_bottleneck} (optimistic)")
    return 0


def _cmd_drift(args) -> int:
    from .explore import TechnologyTrend, bottleneck_drift
    from .viz import drift_table

    soc, workload = _load_pair(args)
    trend = TechnologyTrend(
        compute_growth=args.compute_growth,
        memory_bandwidth_growth=args.memory_growth,
        link_bandwidth_growth=args.link_growth,
    )
    points = bottleneck_drift(soc, workload, years=args.years, trend=trend)
    print(f"generational drift for {workload.name} on {soc.name}:")
    print(drift_table(points))
    for before, after in zip(points, points[1:]):
        if before.bottleneck != after.bottleneck:
            print(f"bottleneck flips {before.bottleneck} -> "
                  f"{after.bottleneck} at year {after.year:g}")
    return 0


def _cmd_diagram(args) -> int:
    from .soc import PRESETS
    from .viz import soc_diagram_svg

    factory = PRESETS.get(args.preset)
    if factory is None:
        raise ReproError(
            f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(soc_diagram_svg(factory()))
    print(f"wrote {args.out}")
    return 0


def _cmd_figures(args) -> int:
    from .figures import main_figures

    return main_figures(args.out)


def _cmd_presets(_args) -> int:
    from .soc import PRESETS

    for name, factory in sorted(PRESETS.items()):
        description = factory()
        spec = description.to_gables_spec()
        print(
            f"{name}: {spec.n_ips} IPs, Ppeak {format_ops(spec.peak_perf)}, "
            f"Bpeak {format_bandwidth(spec.memory_bandwidth)}"
        )
    return 0


def _cmd_report(args) -> int:
    from .reports import REPORTS
    from .resilience import record_failure

    if args.experiment == "dashboard":
        out = args.out or "dashboard.html"
        obs.write_dashboard_html(out, history_path="BENCH_HISTORY.jsonl")
        print(f"wrote {out} (self-contained; open in any browser)")
        return 0
    report = REPORTS.get(args.experiment)
    if report is None:
        raise ReproError(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{sorted(REPORTS)}"
        )
    if args.experiment == "all":
        # report_all owns the per-section capture and banner.
        print(report(on_error=args.on_error))
        return 0
    report_args = ()
    if args.experiment == "variants" and getattr(args, "variant", None):
        report_args = (args.variant,)
    if args.on_error == "raise":
        print(report(*report_args))
        return 0
    try:
        print(report(*report_args))
    except ReproError as err:
        failure = record_failure((args.experiment,), err)
        print(degraded_banner((failure,), 1, what="sections"))
    return 0


def _cmd_trace_summarize(args) -> int:
    import shutil

    from .viz import trace_summary_table

    try:
        spans = obs.read_trace_jsonl(args.file)
    except OSError as err:
        raise ReproError(f"cannot read trace file: {err}") from err
    nodes = obs.summarize_spans(spans)
    if not nodes:
        print(f"{args.file}: no finished spans")
        return 0
    total = obs.trace_total_seconds(nodes)
    print(f"{args.file}: {len(spans)} spans, "
          f"{total:.6f} s of root wall time")
    width = args.width
    if width is None and args.format == "markdown":
        # Deep span trees must wrap onto continuation rows, never be
        # truncated at the terminal edge.
        width = shutil.get_terminal_size((80, 24)).columns
    print(trace_summary_table(nodes, fmt=args.format, width=width))
    return 0


def _cmd_trace_export(args) -> int:
    from pathlib import Path

    try:
        spans = obs.read_trace_jsonl(args.file)
    except OSError as err:
        raise ReproError(f"cannot read trace file: {err}") from err
    out = args.out or str(Path(args.file).with_suffix(".chrome.json"))
    try:
        events = obs.write_trace_chrome(out, spans)
    except OSError as err:
        raise ReproError(f"cannot write {out}: {err}") from err
    print(f"wrote {events} span events to {out} "
          "(open in https://ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_profile(args) -> int:
    import time

    inner = list(args.cmd)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        raise ReproError(
            "usage: gables profile [--out FILE] -- <subcommand> [args]"
        )
    if inner[0] == "profile":
        raise ReproError("cannot nest 'profile' inside 'profile'")
    inner_args = build_parser().parse_args(inner)
    _configure_logging(inner_args)
    command = inner_args.command
    # The profile is the spans this run finishes; a global --trace
    # keeps collecting (and writes them) as usual.
    tracer = obs.get_tracer()
    traced = tracer.enabled
    if not traced:
        tracer.reset()
        tracer.enabled = True
    first = len(tracer.finished_spans())
    start = time.perf_counter()
    try:
        with obs.span(f"cli.{command}"):
            code = inner_args.handler(inner_args)
    finally:
        wall = time.perf_counter() - start
        tracer.enabled = traced
    nodes = obs.summarize_spans(tracer.finished_spans()[first:])
    covered_s = obs.trace_total_seconds(nodes)
    print()
    print(obs.format_profile(nodes, total_s=wall))
    coverage = 100.0 * covered_s / wall if wall > 0 else 0.0
    print(f"\ntraced {covered_s:.6f}s of {wall:.6f}s wall "
          f"({coverage:.1f}% coverage)")
    if args.out:
        out = str(args.out)
        if out.endswith(".svg"):
            from .viz import save_profile_flame_svg

            save_profile_flame_svg(out, nodes)
        else:
            obs.write_profile_json(out, nodes)
        print(f"wrote {out}", file=sys.stderr)
    return code


def _cmd_bench_compare(args) -> int:
    import os

    if not os.path.exists(args.history):
        print(f"{args.history}: no benchmark history yet; "
              "nothing to compare")
        return 0
    records = obs.read_history(args.history)
    if not records:
        print("no benchmark records to compare")
        return 0
    report = obs.compare_runs(
        records, threshold=args.threshold, window=args.window
    )
    print(report.format())
    if report.regressions and not args.report_only:
        return 1
    return 0


def _cmd_fleet_run(args) -> int:
    from .explore import run_fleet_sweep
    from .market import market_spec_population

    if args.grid:
        return _fleet_run_tail(args, _fleet_grid_run(args))
    cases = market_spec_population(since=args.since, limit=args.specs)
    result = run_fleet_sweep(
        cases,
        workers=args.workers,
        on_error=args.on_error,
        fault_plan_name=args.fault_plan,
        seed=args.seed,
        retry_policy=_retry_policy(args),
        checkpoint_path=args.checkpoint,
        telemetry_dir=args.telemetry,
    )
    print(
        f"fleet {result.fleet_run_id}: {len(result.points)} points over "
        f"{len(result.workers)} worker(s) in {result.elapsed_s:.3f}s "
        f"({result.throughput:,.0f} points/s)"
    )
    for report in sorted(result.workers, key=lambda r: r.shard):
        extra = ""
        if report.checkpoint_reused:
            extra += f", {report.checkpoint_reused} from checkpoint"
        faults = report.fault_summary
        if faults and faults.get("injected"):
            extra += f", {faults['injected']} faults injected"
        print(
            f"  {report.worker_id} (shard {report.shard}, "
            f"pid {report.pid}): {report.points}/{report.cases} points, "
            f"{report.heartbeats} heartbeat(s){extra}"
        )
    if result.errors:
        print(degraded_banner(result.errors, len(cases)))
    return _fleet_run_tail(args, result)


def _fleet_grid_run(args):
    """``gables fleet run --grid N``: run and print the sharded
    synthetic-grid sweep; returns its result."""
    from .explore import run_fleet_grid_sweep
    from .soc import generic_soc

    if args.fault_plan or args.checkpoint or args.retries is not None:
        raise ReproError(
            "--grid sweeps are pure batch math; fault plans, retries and "
            "checkpoints apply to the case fleet only"
        )
    if args.on_error != "raise":
        raise ReproError("--grid sweeps support on_error='raise' only")
    result = run_fleet_grid_sweep(
        generic_soc().to_gables_spec(),
        points=args.grid,
        workers=args.workers,
        chunk=args.chunk,
        seed=args.seed,
        engine=args.batch_engine,
        telemetry_dir=args.telemetry,
    )
    print(
        f"grid fleet {result.fleet_run_id}: {result.points:,} points in "
        f"{len(result.chunks)} chunk(s) over {len(result.workers)} "
        f"worker(s) in {result.elapsed_s:.3f}s "
        f"({result.throughput:,.0f} points/s, engine={result.engine})"
    )
    print(f"  result digest {result.digest[:16]}…")
    for report in sorted(result.workers, key=lambda r: r.shard):
        print(
            f"  {report.worker_id} (shard {report.shard}, "
            f"pid {report.pid}): {report.points:,} points in "
            f"{report.cases} chunk(s), {report.heartbeats} heartbeat(s)"
        )
    return result


def _fleet_run_tail(args, result) -> int:
    """What every ``gables fleet run`` ends with: the telemetry line,
    the history append and the dashboard."""
    from .explore import fleet_bench_records

    if result.telemetry_dir:
        print(f"telemetry shards under {result.telemetry_dir}")
    if args.history:
        records = fleet_bench_records(result)
        try:
            obs.append_history(args.history, records)
        except OSError as err:
            raise ReproError(
                f"cannot write benchmark history: {err}"
            ) from err
        print(
            f"appended {len(records)} throughput record(s) to {args.history}"
        )
    if args.dashboard:
        if not args.telemetry:
            raise ReproError("--dashboard requires --telemetry DIR")
        obs.write_fleet_dashboard_html(
            args.dashboard, args.telemetry, history_path=args.history or None
        )
        print(f"wrote {args.dashboard} (self-contained; open in any browser)")
    return 0


def _cmd_telemetry_merge(args) -> int:
    from pathlib import Path

    merged = obs.merge_telemetry(obs.load_shards(args.dir))
    out = args.out or str(Path(args.dir) / "merged")
    paths = obs.write_merged(out, merged)
    summary = merged.summary()
    print(
        f"merged {len(summary['workers'])} shard(s) of fleet "
        f"{summary['fleet_run_id'] or '(unknown)'}: "
        f"{summary['spans']} spans, {summary['metrics']} metric keys, "
        f"{summary['log_records']} log records"
    )
    for name in sorted(paths):
        print(f"  wrote {paths[name]}")
    if args.dashboard:
        obs.write_fleet_dashboard_html(args.dashboard, args.dir)
        print(f"wrote {args.dashboard} (self-contained; open in any browser)")
    return 0


def _cmd_logs_summarize(args) -> int:
    try:
        records = obs.read_log_jsonl(args.file)
    except OSError as err:
        raise ReproError(f"cannot read log file: {err}") from err
    print(f"{args.file}:")
    print(obs.format_log_summary(obs.summarize_logs(records)))
    if args.tail:
        print()
        print(f"last {min(args.tail, len(records))} record(s):")
        for record in obs.tail_logs(records, args.tail):
            fields = "".join(
                f" {key}={value}" for key, value in sorted(
                    record.fields.items()
                )
            )
            worker = record.worker_id or "-"
            message = f" {record.message}" if record.message else ""
            print(
                f"  {record.ts:.6f} {record.level:<7} [{worker}] "
                f"{record.event}{message}{fields}"
            )
    return 0


def _cmd_serve(args) -> int:
    from .serve import GablesServer, ServiceConfig

    config = ServiceConfig(
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline_s,
        cache_path=args.cache,
        allow_fault_injection=args.chaos,
    )
    server = GablesServer(
        config, host=args.host, port=args.port,
        drain_timeout_s=args.drain_timeout_s,
    )
    server.install_signal_handlers()
    chaos = " (chaos hooks enabled)" if args.chaos else ""
    print(f"gables-serve listening on {server.url}{chaos}", flush=True)
    server.serve_forever()
    report = server.drain_report or {}
    print(f"drained cleanly: {report.get('drained', True)} "
          f"(in-flight left: {report.get('inflight_left', 0)})")
    return 0 if report.get("drained", True) else 1


def _cmd_client_eval(args) -> int:
    import json

    from .serve import ServiceClient

    soc, workload = _load_pair(args)
    config = _variant_config(args)
    with ServiceClient(args.url) as client:
        if args.variant:
            payload = client.evaluate_variant(
                soc, workload, args.variant, config=config,
                deadline_s=args.deadline_s,
            )
        else:
            payload = client.evaluate(
                soc, workload, deadline_s=args.deadline_s
            )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_client_health(args) -> int:
    import json

    from .serve import ServiceClient

    with ServiceClient(args.url) as client:
        document = client.health()
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0 if document.get("status") == "ok" else 1


def _cmd_client_loadgen(args) -> int:
    from .errors import ServeError
    from .serve import format_report, record_slo, run_load

    report = run_load(
        args.url,
        clients=args.clients,
        requests_per_client=args.requests,
        fault_plan=args.fault_plan,
        seed=args.seed,
    )
    print(format_report(report))
    if args.history:
        written = record_slo(report, args.history)
        print(f"appended {written} SLO record(s) to {args.history}")
    return 0 if report.ok else ServeError.exit_code


def _cmd_slo_check(args) -> int:
    """Burn-rate check over the live server and/or bench history.

    Prints one report per source; breaches append structured alerts
    to ``--alerts`` and a page-severity burn exits nonzero via
    ``SLO_BURN_RATE_EXCEEDED`` (ticket-severity burns warn but pass).
    """
    import json

    from .errors import ObservabilityError
    from .obs.dashboard import _http_get

    if not args.url and not args.history:
        raise ReproError(
            "nothing to check: provide --url and/or --history"
        )
    objectives = obs.default_objectives(
        availability=args.availability,
        latency_objective=args.latency_objective,
        threshold_s=args.p99_threshold,
    )
    reports = []
    if args.url:
        report = json.loads(_http_get(args.url, "/slo"))
        reports.append((f"{args.url}/slo", report))
    if args.history:
        try:
            records = obs.read_history(args.history)
        except OSError as err:
            raise ReproError(
                f"cannot read bench history: {err}"
            ) from err
        events = obs.history_events(
            records, threshold_s=args.p99_threshold
        )
        report = obs.evaluate_slos(objectives, events)
        report["window_events"] = len(events)
        reports.append((args.history, report))
    worst = ""
    alerts = []
    for source, report in reports:
        print(f"{source}:")
        print(obs.format_slo_report(report))
        print()
        alerts.extend(obs.alert_records(report, source=source))
        severity = report.get("severity", "")
        if severity and (not worst or severity == "page"):
            worst = severity
    if alerts:
        obs.append_alerts(args.alerts, alerts)
        print(f"appended {len(alerts)} alert(s) to {args.alerts}")
    if worst == "page":
        raise ObservabilityError(
            f"error budget burning at page severity "
            f"({len(alerts)} alert(s) in {args.alerts})",
            code="SLO_BURN_RATE_EXCEEDED",
        )
    print("slo check: ok" if not worst
          else f"slo check: {worst}-severity burn (not paging)")
    return 0


def _cmd_slo_dashboard(args) -> int:
    obs.write_serve_dashboard_html(
        args.out, args.url, refresh_s=args.refresh_s
    )
    print(f"wrote {args.out} (self-contained; auto-refreshes every "
          f"{args.refresh_s:g}s)")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Observability flags, shared by the root parser and every subcommand.

    The root parser owns the real defaults; subcommand copies default to
    ``SUPPRESS`` so ``gables --trace t.jsonl eval`` survives the
    subparser re-parse (argparse sub-parsers overwrite namespace entries
    with their own defaults otherwise).
    """
    missing = argparse.SUPPRESS
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="FILE",
        default=None if top_level else missing,
        help="record tracing spans and write them as JSONL on exit",
    )
    group.add_argument(
        "--metrics", metavar="FILE",
        default=None if top_level else missing,
        help="write a JSON metrics snapshot on exit",
    )
    group.add_argument(
        "-v", "--verbose", action="count",
        default=0 if top_level else missing,
        help="log progress to stderr (-v INFO, -vv DEBUG)",
    )
    group.add_argument(
        "--log-level", choices=sorted(LOG_LEVELS),
        default=None if top_level else missing,
        help="explicit log level (overrides -v)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="gables",
        description="Gables: a Roofline model for mobile SoCs (HPCA 2019)",
    )
    _add_obs_flags(parser, top_level=True)
    obs_common = argparse.ArgumentParser(add_help=False)
    _add_obs_flags(obs_common, top_level=False)
    root_sub = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        """add_parser shim attaching the shared observability flags."""

        def __init__(self, subparsers) -> None:
            self._subparsers = subparsers

        def add_parser(self, name, **kwargs):
            kwargs.setdefault("parents", []).append(obs_common)
            return self._subparsers.add_parser(name, **kwargs)

    sub = _Sub(root_sub)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--soc", help="path to a soc JSON document")
        p.add_argument("--workload", help="path to a workload JSON document")
        p.add_argument(
            "--figure", help="use a paper Figure 6 scenario: 6a|6b|6c|6d"
        )

    def add_variant_args(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group("model variant")
        group.add_argument(
            "--variant", choices=VARIANT_CHOICES, default=None,
            help="evaluate through a model variant's lowered pipeline "
                 "(default: base concurrent Gables)",
        )
        group.add_argument(
            "--variant-config", dest="variant_config", metavar="JSON",
            default=None,
            help="variant structure as inline JSON or a JSON file path "
                 "(buses/routes/miss ratios/phases; see docs/api.md)",
        )

    p_eval = sub.add_parser("eval", help="evaluate a usecase on an SoC")
    add_model_args(p_eval)
    add_variant_args(p_eval)
    p_eval.add_argument(
        "--explain", action="store_true",
        help="print the evaluation's provenance record (which min() "
             "branch won and why) with a bottleneck-analysis audit",
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_plot = sub.add_parser("plot", help="render a scaled-roofline plot")
    add_model_args(p_plot)
    add_variant_args(p_plot)
    p_plot.add_argument("--out", help="output SVG path (omit for ASCII)")
    p_plot.add_argument("--ascii", action="store_true",
                        help="render to the terminal")
    p_plot.set_defaults(handler=_cmd_plot)

    p_sweep = sub.add_parser("sweep", help="sweep a model parameter")
    add_model_args(p_sweep)
    add_variant_args(p_sweep)
    p_sweep.add_argument("--param", default="f",
                         choices=("f", "intensity", "bpeak"))
    p_sweep.add_argument("--ip", type=int, default=1,
                         help="IP index for f/intensity sweeps")
    p_sweep.add_argument("--steps", type=int, default=9)
    p_sweep.add_argument(
        "--on-error", dest="on_error", default="raise",
        choices=ON_ERROR_MODES,
        help="tolerate failing sweep points: skip them, or record "
             "them under a degraded-output banner",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_measure = sub.add_parser(
        "measure", help="empirical roofline of a simulated engine"
    )
    p_measure.add_argument("--engine", default="CPU",
                           choices=("CPU", "GPU", "DSP"))
    resilience = p_measure.add_argument_group("resilience")
    resilience.add_argument(
        "--fault-plan", dest="fault_plan", metavar="NAME", default=None,
        choices=sorted(FAULT_PLANS),
        help="inject deterministic faults from a named plan: "
             + ", ".join(sorted(FAULT_PLANS)),
    )
    resilience.add_argument(
        "--seed", type=int, default=0,
        help="seed for fault injection and measurement noise",
    )
    resilience.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max measurement attempts per sample (defaults to the "
             "stock retry policy when a fault plan is active)",
    )
    resilience.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="JSONL sweep checkpoint; completed samples are replayed "
             "on resume",
    )
    p_measure.set_defaults(handler=_cmd_measure)

    p_html = sub.add_parser(
        "html", help="write the interactive explorer (the paper's web tool)"
    )
    add_model_args(p_html)
    p_html.add_argument("--out", default="gables_explorer.html")
    p_html.set_defaults(handler=_cmd_html)

    p_power = sub.add_parser(
        "power", help="TDP-constrained evaluation (mobile energy model)"
    )
    add_model_args(p_power)
    p_power.add_argument("--tdp", type=float, default=3.0,
                         help="thermal design power, watts")
    p_power.set_defaults(handler=_cmd_power)

    p_interval = sub.add_parser(
        "interval", help="attainable-performance bounds under input margins"
    )
    add_model_args(p_interval)
    p_interval.add_argument("--margin", type=float, default=20.0,
                            help="±%% uncertainty on every rate input")
    p_interval.set_defaults(handler=_cmd_interval)

    p_drift = sub.add_parser(
        "drift", help="project the design across future chip generations"
    )
    add_model_args(p_drift)
    p_drift.add_argument("--years", type=int, default=5)
    p_drift.add_argument("--compute-growth", type=float, default=1.30)
    p_drift.add_argument("--memory-growth", type=float, default=1.12)
    p_drift.add_argument("--link-growth", type=float, default=1.20)
    p_drift.set_defaults(handler=_cmd_drift)

    p_diagram = sub.add_parser(
        "diagram", help="render a preset SoC's block diagram (Fig. 3 style)"
    )
    p_diagram.add_argument("--preset", default="generic")
    p_diagram.add_argument("--out", default="soc_diagram.svg")
    p_diagram.set_defaults(handler=_cmd_diagram)

    p_figures = sub.add_parser(
        "figures", help="regenerate every paper artifact into a directory"
    )
    p_figures.add_argument("--out", default="gables_figures")
    p_figures.set_defaults(handler=_cmd_figures)

    p_report = sub.add_parser("report", help="regenerate a paper artifact")
    p_report.add_argument(
        "experiment",
        help="fig2 | fig6 | fig7 | fig8 | fig9 | table1 | variants | all "
             "| dashboard",
    )
    p_report.add_argument(
        "out", nargs="?", default=None,
        help="output path for 'dashboard' (default: dashboard.html)",
    )
    p_report.add_argument(
        "--variant", choices=VARIANT_CHOICES, default=None,
        help="restrict the 'variants' report to one model variant",
    )
    p_report.add_argument(
        "--on-error", dest="on_error", default="raise",
        choices=ON_ERROR_MODES,
        help="tolerate failing report sections: skip them, or keep a "
             "placeholder, under a degraded-output banner",
    )
    p_report.set_defaults(handler=_cmd_report)

    p_presets = sub.add_parser("presets", help="list built-in SoC presets")
    p_presets.set_defaults(handler=_cmd_presets)

    p_trace = sub.add_parser(
        "trace", help="inspect trace files written with --trace"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="per-span time breakdown of a JSONL trace"
    )
    p_summarize.add_argument("file", help="JSONL trace file")
    p_summarize.add_argument("--format", default="markdown",
                             choices=("markdown", "csv"))
    p_summarize.add_argument(
        "--width", type=int, default=None, metavar="COLS",
        help="wrap span names so markdown rows fit COLS columns "
             "(default: the terminal width; CSV never wraps)",
    )
    p_summarize.set_defaults(handler=_cmd_trace_summarize)
    p_export = trace_sub.add_parser(
        "export", help="convert a JSONL trace for external viewers"
    )
    p_export.add_argument("file", help="JSONL trace file")
    p_export.add_argument("--format", default="chrome",
                          choices=("chrome",),
                          help="output flavour (chrome trace-event JSON, "
                               "loadable in Perfetto)")
    p_export.add_argument("--out", default=None,
                          help="output path (default: <file>.chrome.json)")
    p_export.set_defaults(handler=_cmd_trace_export)

    p_profile = sub.add_parser(
        "profile", help="run any subcommand under the tracer and print "
        "its span profile"
    )
    p_profile.add_argument(
        "--out", default=None, metavar="FILE",
        help="also save the tree: JSON, or a flamegraph SVG when the "
             "path ends in .svg",
    )
    p_profile.add_argument(
        "cmd", nargs=argparse.REMAINDER,
        help="the subcommand to profile, after '--'",
    )
    p_profile.set_defaults(handler=_cmd_profile)

    p_bench = sub.add_parser(
        "bench", help="benchmark history and regression checks"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_compare = bench_sub.add_parser(
        "compare",
        help="compare the newest benchmark run against the rolling "
             "baseline",
    )
    p_compare.add_argument("--history", default="BENCH_HISTORY.jsonl",
                           help="JSONL benchmark history file")
    p_compare.add_argument("--threshold", type=float, default=0.20,
                           help="regression bar as a fraction (0.20 = "
                                "flag >= 20%% slower)")
    p_compare.add_argument("--window", type=int, default=10,
                           help="rolling-baseline window, in runs")
    p_compare.add_argument("--report-only", dest="report_only",
                           action="store_true",
                           help="print the comparison but always exit 0")
    p_compare.set_defaults(handler=_cmd_bench_compare)

    p_fleet = sub.add_parser(
        "fleet", help="sharded market-wide sweeps with telemetry"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fleet_run = fleet_sub.add_parser(
        "run",
        help="evaluate a market-wide spec population across worker "
             "processes",
    )
    p_fleet_run.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (1 runs inline in this process)",
    )
    p_fleet_run.add_argument(
        "--specs", type=int, default=None, metavar="N",
        help="evaluate only the first N market specs (default: all)",
    )
    p_fleet_run.add_argument(
        "--since", type=int, default=None, metavar="YEAR",
        help="restrict the population to chipsets announced since YEAR",
    )
    p_fleet_run.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write one telemetry shard per worker under DIR "
             "(merge with 'gables telemetry merge')",
    )
    p_fleet_run.add_argument(
        "--history", default="BENCH_HISTORY.jsonl", metavar="FILE",
        help="append fleet/worker throughput records here "
             "(empty string disables)",
    )
    p_fleet_run.add_argument(
        "--dashboard", metavar="FILE", default=None,
        help="also render the merged fleet dashboard HTML "
             "(requires --telemetry)",
    )
    fleet_resilience = p_fleet_run.add_argument_group("resilience")
    fleet_resilience.add_argument(
        "--fault-plan", dest="fault_plan", metavar="NAME", default=None,
        choices=sorted(FAULT_PLANS),
        help="inject deterministic faults from a named plan: "
             + ", ".join(sorted(FAULT_PLANS)),
    )
    fleet_resilience.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection seed (each worker uses seed + shard)",
    )
    fleet_resilience.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max attempts per point (defaults to the stock retry "
             "policy when a fault plan is active)",
    )
    fleet_resilience.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="base JSONL checkpoint path; each worker appends to "
             "FILE.<worker_id> and replays it on resume",
    )
    fleet_resilience.add_argument(
        "--on-error", dest="on_error", default="raise",
        choices=ON_ERROR_MODES,
        help="tolerate failing fleet points: skip them, or record "
             "them under a degraded-output banner",
    )
    grid_group = p_fleet_run.add_argument_group("grid sweeps")
    grid_group.add_argument(
        "--grid", type=int, default=0, metavar="POINTS",
        help="sweep POINTS synthetic market workload rows (chunked, "
             "digest-checked) instead of the case population",
    )
    grid_group.add_argument(
        "--chunk", type=int, default=250_000, metavar="ROWS",
        help="grid chunk size: rows generated + evaluated per batch",
    )
    grid_group.add_argument(
        "--engine", dest="batch_engine", default="auto",
        choices=ENGINE_CHOICES,
        help="batch-evaluation tier for --grid sweeps",
    )
    p_fleet_run.set_defaults(handler=_cmd_fleet_run)

    p_telemetry = sub.add_parser(
        "telemetry", help="merge per-worker telemetry shards"
    )
    telemetry_sub = p_telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    p_merge = telemetry_sub.add_parser(
        "merge",
        help="fold worker shards into one trace/metrics/profile/log view",
    )
    p_merge.add_argument("dir", help="telemetry directory (one worker-* "
                                     "shard per worker)")
    p_merge.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory (default: <dir>/merged)",
    )
    p_merge.add_argument(
        "--dashboard", metavar="FILE", default=None,
        help="also render the merged fleet dashboard HTML",
    )
    p_merge.set_defaults(handler=_cmd_telemetry_merge)

    p_logs = sub.add_parser(
        "logs", help="inspect structured JSONL log files"
    )
    logs_sub = p_logs.add_subparsers(dest="logs_command", required=True)
    p_logs_summarize = logs_sub.add_parser(
        "summarize", help="level/event/worker overview of a JSONL log"
    )
    p_logs_summarize.add_argument("file", help="JSONL log file")
    p_logs_summarize.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="also print the last N records",
    )
    p_logs_summarize.set_defaults(handler=_cmd_logs_summarize)

    p_serve = sub.add_parser(
        "serve",
        help="run the evaluation service (HTTP/JSON, stdlib only)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port (0 picks a free one)")
    p_serve.add_argument(
        "--queue-limit", dest="queue_limit", type=int, default=64,
        metavar="N",
        help="in-flight admission budget; beyond it requests are "
             "shed with 429",
    )
    p_serve.add_argument(
        "--deadline-s", dest="deadline_s", type=float, default=10.0,
        metavar="S",
        help="default per-request deadline",
    )
    p_serve.add_argument(
        "--cache", metavar="FILE", default=None,
        help="persist the result cache to a JSONL file (recovered on "
             "restart, torn tail tolerated)",
    )
    p_serve.add_argument(
        "--chaos", action="store_true",
        help="accept the per-request fault-injection hook "
             "(crash) — test rigs only",
    )
    p_serve.add_argument(
        "--drain-timeout-s", dest="drain_timeout_s", type=float,
        default=10.0, metavar="S",
        help="how long a SIGTERM drain waits for in-flight requests",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_client = sub.add_parser(
        "client", help="talk to a running 'gables serve' endpoint"
    )
    client_sub = p_client.add_subparsers(dest="client_command",
                                         required=True)
    p_client_eval = client_sub.add_parser(
        "eval", help="evaluate one usecase remotely"
    )
    p_client_eval.add_argument("--url", default="http://127.0.0.1:8080",
                               help="server base URL")
    p_client_eval.add_argument("--figure", metavar="TAG",
                               help="built-in scenario, e.g. 6b")
    p_client_eval.add_argument("--soc", metavar="FILE",
                               help="SoC spec JSON")
    p_client_eval.add_argument("--workload", metavar="FILE",
                               help="workload JSON")
    p_client_eval.add_argument(
        "--variant", choices=[v for v in VARIANT_CHOICES if v != "phases"],
        default=None, help="evaluate a model variant",
    )
    p_client_eval.add_argument(
        "--variant-config", dest="variant_config", metavar="JSON|FILE",
        default=None, help="variant structure (inline JSON or a file)",
    )
    p_client_eval.add_argument(
        "--deadline-s", dest="deadline_s", type=float, default=None,
        metavar="S", help="request deadline budget",
    )
    p_client_eval.set_defaults(handler=_cmd_client_eval)
    p_client_health = client_sub.add_parser(
        "health", help="print the server's /healthz document"
    )
    p_client_health.add_argument("--url", default="http://127.0.0.1:8080",
                                 help="server base URL")
    p_client_health.set_defaults(handler=_cmd_client_health)
    p_client_loadgen = client_sub.add_parser(
        "loadgen",
        help="concurrent load + chaos harness against a live server",
    )
    p_client_loadgen.add_argument("--url", default="http://127.0.0.1:8080",
                                  help="server base URL")
    p_client_loadgen.add_argument(
        "--clients", type=int, default=8,
        help="concurrent client threads",
    )
    p_client_loadgen.add_argument(
        "--requests", type=int, default=25,
        help="requests per client",
    )
    p_client_loadgen.add_argument(
        "--fault-plan", dest="fault_plan", metavar="NAME", default=None,
        choices=sorted(FAULT_PLANS),
        help="deterministically mix in poison requests from a named "
             "plan: " + ", ".join(sorted(FAULT_PLANS)),
    )
    p_client_loadgen.add_argument(
        "--seed", type=int, default=0,
        help="poison-request draw seed (reproducible mixes)",
    )
    p_client_loadgen.add_argument(
        "--history", metavar="FILE", default=None,
        help="append p50/p99/rps SLO records to this bench-history "
             "JSONL file",
    )
    p_client_loadgen.set_defaults(handler=_cmd_client_loadgen)

    p_slo = sub.add_parser(
        "slo", help="error-budget burn-rate checks and the live serve tab"
    )
    slo_sub = p_slo.add_subparsers(dest="slo_command", required=True)
    p_slo_check = slo_sub.add_parser(
        "check",
        help="evaluate SLO burn rates; nonzero exit on a page-severity "
             "burn",
    )
    p_slo_check.add_argument(
        "--url", default=None,
        help="live server base URL to scrape GET /slo from",
    )
    p_slo_check.add_argument(
        "--history", metavar="FILE", default=None,
        help="bench-history JSONL with serve.loadgen.p99 records",
    )
    p_slo_check.add_argument(
        "--alerts", metavar="FILE", default="ALERTS.jsonl",
        help="append structured alerts here on breach "
             "(default ALERTS.jsonl)",
    )
    p_slo_check.add_argument(
        "--availability", type=float, default=0.999,
        help="availability objective (default 0.999)",
    )
    p_slo_check.add_argument(
        "--latency-objective", dest="latency_objective", type=float,
        default=0.99, help="latency objective fraction (default 0.99)",
    )
    p_slo_check.add_argument(
        "--p99-threshold", dest="p99_threshold", type=float,
        default=0.25, metavar="S",
        help="latency SLO threshold in seconds (default 0.25)",
    )
    p_slo_check.set_defaults(handler=_cmd_slo_check)
    p_slo_dashboard = slo_sub.add_parser(
        "dashboard",
        help="scrape /metrics + /slo into a self-refreshing HTML page",
    )
    p_slo_dashboard.add_argument(
        "--url", default="http://127.0.0.1:8080", help="server base URL"
    )
    p_slo_dashboard.add_argument(
        "--out", metavar="FILE", default="serve-dashboard.html",
        help="output HTML file",
    )
    p_slo_dashboard.add_argument(
        "--refresh-s", dest="refresh_s", type=float, default=5.0,
        metavar="S", help="meta-refresh interval (default 5)",
    )
    p_slo_dashboard.set_defaults(handler=_cmd_slo_dashboard)
    return parser


def _configure_logging(args) -> None:
    level_name = getattr(args, "log_level", None)
    verbosity = getattr(args, "verbose", 0)
    if level_name:
        level = LOG_LEVELS[level_name]
    elif verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        return
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def main(argv=None) -> int:
    """Console entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path:
        tracer = obs.enable_tracing()
        tracer.reset()  # one CLI run = one trace file
    _log.info("dispatching %r", getattr(args, "command", None))
    try:
        return args.handler(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return exit_code_for(err)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, the
        # Unix way.  Detach stdout so the interpreter's shutdown flush
        # does not raise again.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    finally:
        if trace_path:
            obs.disable_tracing()
            try:
                events = obs.write_trace_jsonl(trace_path)
            except OSError as err:
                print(f"error: cannot write trace file: {err}",
                      file=sys.stderr)
            else:
                print(f"wrote {events} trace events to {trace_path}",
                      file=sys.stderr)
        if metrics_path:
            try:
                obs.write_metrics_json(metrics_path)
            except OSError as err:
                print(f"error: cannot write metrics file: {err}",
                      file=sys.stderr)
            else:
                print(f"wrote metrics snapshot to {metrics_path}",
                      file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
