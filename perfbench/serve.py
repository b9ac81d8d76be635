"""The serve workloads: ``/eval``, ``/sweep`` and ``/variants`` over HTTP.

The server is a ``GablesServer`` in its own process
(``agent.py server``); this process generates the load over two
keep-alive connections and checks every response against the offline
model.

Untraced run (``--trace 0``):

1. set-up, :data:`SETUP_REPEATS` times: launch the server, send one
   ``/eval``, time launch -> first response;
2. an open loop at :data:`RATES` for :data:`OPEN_SHARE` of the time;
3. a closed loop on the same two connections for the rest (capacity).

Traced run (``--trace 1``): the same open-loop schedule, once against
an untraced server and once against a server whose launcher installed
the tracing wrappers; the per-layer numbers come from the second.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
import sys
import time

from perfbench import gen, httpload, metrics, speed
from perfbench.metrics import Outcome
from perfbench.oracle import ServeOracle
from perfbench.procs import Agent
from perfbench.tracing import batch_counters, load_spans, attribute

#: Offered open-loop rate (requests/s).  With two connections and the
#: ~48 ms a seed ``/eval`` takes on loopback, these keep both
#: connections under ~60% busy: no backlog, p99 far below the
#: service's 250 ms ``slo_p99_s``.
RATES = {"serve_eval_unique": 18.0, "serve_mixed": 16.0}

#: Share of ``--seconds`` spent in the open loop (the rest is closed).
OPEN_SHARE = 0.5

SETUP_REPEATS = 3

#: A run whose generator sent 5% of requests later than this after a
#: connection was free is invalid.
LATENESS_BOUND_S = 0.010

#: The generator's GIL switch interval: a client thread waking for its
#: due time should not wait 5 ms (the default) for the other one.
SWITCH_INTERVAL_S = 0.0005

HANDLERS = ("handle_eval", "handle_sweep", "handle_variants")


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule."""


def _stream(workload: str, seed: int, socs: list, name: str):
    if workload == "serve_eval_unique":
        return gen.unique_eval_stream(seed, socs, name)
    return gen.mixed_stream(seed, socs, name)


def _counters(address: tuple) -> dict:
    """Service counters from ``/healthz`` plus ``/metrics``."""
    health = json.loads(httpload.get(address, "/healthz"))
    counters = dict(health["metrics"])
    text = httpload.get(address, "/metrics").decode("utf-8")
    match = re.search(r"^serve_breaker_fallbacks\s+(\S+)$", text, re.M)
    counters["breaker_fallbacks"] = float(match.group(1)) if match else 0.0
    return counters


def _start(root, work, first, oracle, outcome, trace_out=None) -> tuple:
    """Launch a server and send its first request.

    Returns ``(agent, address, seconds from launch to first response)``.
    """
    start = time.perf_counter()
    args = ["server"] + (["--trace-out", str(trace_out)] if trace_out else [])
    agent = Agent(root, work, args)
    try:
        ready = agent.wait_event("ready")
        address = ("127.0.0.1", ready["port"])
        conn = httpload.Connection(address)
        status, body = conn.send(first)
        conn.close()
    except BaseException:
        agent.kill()
        raise
    elapsed = time.perf_counter() - start
    outcome.attempted += 1
    problem = oracle.check(first, status, body)
    if problem:
        outcome.fail(f"first request: {problem}")
    return agent, address, elapsed


def _check(samples: list, oracle, outcome: Outcome) -> dict:
    """Check every response; returns ``id(sample) -> ok``."""
    verdicts = {}
    for sample in samples:
        outcome.attempted += 1
        problem = oracle.check(sample.request, sample.status, sample.body)
        verdicts[id(sample)] = problem is None
        if problem:
            outcome.fail(problem)
    return verdicts


def _latencies(samples: list, verdicts: dict, kind: str) -> list:
    """Clean requests of ``kind``; a failed one is infinitely late."""
    return [
        s.latency_s if verdicts[id(s)] else float("inf")
        for s in samples if s.request.kind == kind
    ]


def _lateness_guard(samples: list, outcome: Outcome) -> None:
    lateness = [s.lateness_ns / 1e9 for s in samples]
    p95 = metrics.percentile(lateness, 95)
    outcome.show("generator_lateness_p95_ms", p95 * 1e3, "ms", len(lateness),
                 f"bound {LATENESS_BOUND_S * 1e3:g} ms; "
                 f"max {max(lateness) * 1e3:.3g} ms")
    if p95 > LATENESS_BOUND_S:
        raise InvalidRun(
            f"load generator fell behind: p95 lateness {p95 * 1e3:.3g} ms "
            f"> {LATENESS_BOUND_S * 1e3:g} ms"
        )


def _show_latency(outcome: Outcome, name: str, values: list) -> None:
    outcome.show(f"{name}_p50_ms", metrics.percentile(values, 50) * 1e3,
                 "ms", len(values))
    q, value = metrics.tail(values)
    if q is not None:
        outcome.show(f"{name}_p{q:g}_ms", value * 1e3, "ms", len(values),
                     "highest percentile with >=10 samples beyond it")


def run(workload: str, seed: int, seconds: float, trace: bool, root,
        work) -> Outcome:
    outcome = Outcome()
    oracle = ServeOracle()
    socs = gen.soc_documents(seed)
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    setup = list(itertools.islice(
        gen.unique_eval_stream(seed, socs, "setup"), SETUP_REPEATS
    ))
    open_s = seconds / 2 if trace else seconds * OPEN_SHARE
    offsets = gen.arrival_offsets(seed, RATES[workload], open_s)
    requests = list(itertools.islice(
        _stream(workload, seed, socs, "open"), len(offsets)
    ))
    if trace:
        _traced(workload, seed, root, work, setup[0], requests, offsets,
                oracle, outcome)
    else:
        sources = [
            _stream(workload, seed, socs, f"closed-{index}")
            for index in range(httpload.CONNECTIONS)
        ]
        _measured(workload, root, work, setup, requests, offsets, sources,
                  seconds - open_s, oracle, outcome)
    outcome.show("inexact_responses", oracle.inexact, "count",
                 outcome.attempted,
                 "equal to the offline result within 1e-12, not bitwise")
    return outcome


def _measured(workload, root, work, setup, requests, offsets, sources,
              closed_s, oracle, outcome) -> None:
    setup_s, host = [], speed.Probe()
    agent = None
    try:
        for index, first in enumerate(setup):
            host.sample(speed.SETUP_PIECES)
            agent, address, elapsed = _start(root, work, first, oracle,
                                             outcome)
            setup_s.append(elapsed)
            host.sample(speed.SETUP_PIECES)
            if index < len(setup) - 1:
                agent.finish("exit", 60)
                agent = None
        opened = httpload.open_loop(address, requests, offsets)
        closed, closed_wall = httpload.closed_loop(address, sources, closed_s)
        info = agent.finish("exit", 60)
        agent = None
    finally:
        if agent is not None:
            agent.kill()
    verdicts = _check(opened + closed, oracle, outcome)
    _lateness_guard(opened, outcome)
    evals = _latencies(opened, verdicts, "eval")
    closed_evals = _latencies(closed, verdicts, "eval")
    if workload == "serve_eval_unique":
        completed = [s for s in closed
                     if s.request.kind == "eval" and verdicts[id(s)]]
        capacity_name = "eval_rps"
    else:
        completed = [s for s in closed if verdicts[id(s)]]
        capacity_name = "mixed_rps"
    capacity = len(completed) / closed_wall
    outcome.metrics.update(
        latency_p50_ms=metrics.finite(
            metrics.percentile(closed_evals, 50) * 1e3),
        throughput_per_s=capacity,
        peak_rss_mb=info["peak_rss_mb"],
    )
    speed.report_setup(outcome, setup_s, host,
                       "import, bind, build, first /eval")
    _show_latency(outcome, "eval", evals)
    _show_latency(outcome, "closed_eval", closed_evals)
    if workload == "serve_mixed":
        _show_latency(outcome, "sweep_req",
                      _latencies(opened, verdicts, "sweep"))
        _show_latency(outcome, "variants_req",
                      _latencies(opened, verdicts, "variants"))
    outcome.show("offered_rps", RATES[workload], "req/s", len(opened),
                 "open loop, Poisson arrivals")
    outcome.show(capacity_name, capacity, "req/s", len(completed),
                 f"closed loop, {httpload.CONNECTIONS} connections")
    outcome.show("peak_rss_mb", info["peak_rss_mb"], "MB", None,
                 "server process")


def _traced(workload, seed, root, work, first, requests, offsets, oracle,
            outcome) -> None:
    trace_path = work / f"spans-{workload}-{seed}.jsonl"
    runs = []
    for trace_out in (None, trace_path):
        agent, address, _ = _start(root, work, first, oracle, outcome,
                                   trace_out)
        try:
            before = _counters(address)
            samples = httpload.open_loop(address, requests, offsets)
            after = _counters(address)
            info = agent.finish("exit", 60)
        finally:
            agent.kill()
        verdicts = _check(samples, oracle, outcome)
        _lateness_guard(samples, outcome)
        runs.append((samples, verdicts, before, after, info))
    untraced_p50 = metrics.percentile(
        _latencies(runs[0][0], runs[0][1], "eval"), 50)
    samples, verdicts, before, after, info = runs[1]
    traced_p50 = metrics.percentile(_latencies(samples, verdicts, "eval"), 50)
    _layers(samples, verdicts, load_spans(trace_path), before, after, info,
            traced_p50 / untraced_p50 - 1.0, outcome)
    outcome.show("obs.trace_overhead", traced_p50 / untraced_p50 - 1.0,
                 "ratio", len(samples),
                 f"traced/untraced eval_p50 {traced_p50 * 1e3:.4g}/"
                 f"{untraced_p50 * 1e3:.4g} ms")


def match_requests(samples: list, spans: list) -> dict:
    """Pair each server ``handle_*`` span with the client request it
    served: ``span id -> sample``.

    Both sides read CLOCK_MONOTONIC, each connection is served by one
    server thread, and a connection's requests are sequential.  A
    thread belongs to the connection whose requests contain most of
    its spans; each span then belongs to the request containing it.
    """
    by_conn: dict = {}
    for sample in sorted(samples, key=lambda s: s.sent_ns):
        by_conn.setdefault(sample.conn, []).append(sample)
    starts = {c: [s.sent_ns for s in group] for c, group in by_conn.items()}

    def containing(conn, span):
        index = bisect.bisect_right(starts[conn], span.start) - 1
        if index >= 0 and by_conn[conn][index].done_ns >= span.end:
            return by_conn[conn][index]
        return None

    roots_by_thread: dict = {}
    for span in spans:
        if span.depth == 0 and span.name.rsplit(".", 1)[-1] in HANDLERS:
            roots_by_thread.setdefault(span.thread, []).append(span)
    matched = {}
    for roots in roots_by_thread.values():
        votes = {
            conn: sum(containing(conn, r) is not None for r in roots)
            for conn in by_conn
        }
        conn = max(votes, key=votes.get)
        for root in roots:
            sample = containing(conn, root)
            if sample is not None:
                matched[root.id] = sample
    return matched


def _layers(samples, verdicts, spans, before, after, info, overhead,
            outcome) -> None:
    by_id = {s.id: s for s in spans}
    matched = match_requests(samples, spans)
    handler_threads = {by_id[i].thread for i in matched}
    worker = sorted(
        (s for s in spans if s.thread not in handler_threads),
        key=lambda s: s.start,
    )
    worker_starts = [s.start for s in worker]
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def nested(span):
        stack, out = [span], []
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(children.get(current.id, ()))
        return out

    layer_ns: dict = {}
    per_kind: dict = {}  # kind -> {label: ns}, label "round_trip" total
    for root_id, sample in matched.items():
        if not verdicts[id(sample)] or sample.request.kind == "poison":
            continue
        root = by_id[root_id]
        items = [(s.id, s.start, s.end, s.depth + 1) for s in nested(root)]
        if root.name.endswith("handle_eval"):
            # The coalescer's batch and encode run on the worker thread.
            stop = bisect.bisect_left(worker_starts, sample.done_ns)
            items += [
                (s.id, s.start, s.end, s.depth + 2) for s in worker[:stop]
                if s.end > sample.sent_ns
            ]
        totals = attribute(sample.sent_ns, sample.done_ns, items)
        kind = per_kind.setdefault(sample.request.kind, {"n": 0})
        kind["n"] += 1
        kind["round_trip"] = kind.get("round_trip", 0) + (
            sample.done_ns - sample.sent_ns)
        for key, ns in totals.items():
            span = by_id.get(key)
            layer = "serve.server" if span is None else span.layer
            label = "serve.server" if span is None else \
                span.name.rsplit(".", 1)[-1]
            layer_ns[layer] = layer_ns.get(layer, 0) + ns
            kind[label] = kind.get(label, 0) + ns
    total_ns = sum(k["round_trip"] for k in per_kind.values())
    counts = batch_counters(spans)
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    clean = [s for s in samples
             if verdicts[id(s)] and s.request.kind != "poison"]
    evals = [s for s in clean if s.request.kind == "eval"]
    interpreted = sum(
        1 for s in evals if b'"engine": "interpreted"' in s.body
    )
    eval_requests = sum(1 for s in samples if s.request.path == "/eval")
    stats = info.get("compile", {})
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    values = dict.fromkeys(metrics.PER_LAYER, 0.0)
    values.update(metrics.shares(
        {layer: ns / 1e9 for layer, ns in layer_ns.items()}, total_ns / 1e9
    ))
    values.update({
        "serve.server.response_bytes": metrics.ratio(
            sum(len(s.body) for s in clean), len(clean)),
        "serve.service.batch_rows": metrics.ratio(
            delta.get("batched_requests", 0), delta.get("batches", 0)),
        "serve.service.cache_hit_ratio": metrics.ratio(
            delta.get("cache_hits", 0), eval_requests),
        "serve.service.shed": delta.get("shed", 0),
        "serve.service.deadline_exceeded": delta.get("deadline_exceeded", 0),
        "serve.service.breaker_fallbacks": delta.get("breaker_fallbacks", 0),
        "explore.sweep.batched_point_share": metrics.ratio(
            counts["batched_points"], counts["swept_points"]),
        "core.batch.calls": counts["calls"],
        "core.batch.rows_per_call": metrics.ratio(
            counts["rows"], counts["calls"]),
        "core.compile.hit_ratio": metrics.ratio(stats.get("hits", 0),
                                                lookups),
        "core.compile.builds": stats.get("builds", 0),
        "core.compile.native_build_s": info["native_build_s"],
        "core.compile.interpreted_row_share": metrics.ratio(
            interpreted, len(evals)),
        "obs.trace_overhead": overhead,
    })
    outcome.metrics.update(values)
    _show_breakdown(outcome, per_kind, layer_ns, counts, values,
                    eval_requests, lookups, delta)


#: Printed per-request figures: (ISSUE name, request kind, span labels).
BREAKDOWN = (
    ("serve.server.overhead_ms", "eval", ("serve.server",)),
    ("serve.protocol.parse_eval_ms", "eval", ("parse_eval_request",)),
    ("serve.service.cache_ms", "eval", ("get", "put")),
    ("serve.service.eval_wait_ms", "eval", ("handle_eval",)),
    ("core.batch.eval_batch_ms", "eval",
     ("evaluate_batch", "prepare_batch")),
    ("core.compile.eval_compile_ms", "eval", ("compile_phase",)),
    ("io.json_codec.encode_result_ms", "eval", ("encode_result",)),
    ("serve.server.sweep_overhead_ms", "sweep", ("serve.server",)),
    ("serve.protocol.parse_sweep_ms", "sweep", ("parse_sweep_request",)),
    ("serve.service.sweep_ms", "sweep", ("handle_sweep",)),
)


def _show_breakdown(outcome, per_kind, layer_ns, counts, values,
                    eval_requests, lookups, delta) -> None:
    for name, kind, labels in BREAKDOWN:
        data = per_kind.get(kind)
        if not data:
            continue
        ns = sum(data.get(label, 0) for label in labels)
        outcome.show(name, ns / data["n"] / 1e6, "ms", data["n"],
                     "mean self time per clean request")
    for kind, data in sorted(per_kind.items()):
        parts = sum(v for k, v in data.items() if k not in ("n", "round_trip"))
        outcome.show(f"trace_check.{kind}_round_trip_ms",
                     data["round_trip"] / data["n"] / 1e6, "ms", data["n"],
                     f"layer self times sum to {parts / data['n'] / 1e6:.6g}")
    outcome.show("explore.sweep.materialize_ns_per_point",
                 metrics.ratio(layer_ns.get("explore.sweep", 0),
                               counts["swept_points"]),
                 "ns/point", counts["swept_points"])
    outcome.show("core.batch.prepare_ms",
                 metrics.ratio(counts["prepare_s"] * 1e3, counts["calls"]),
                 "ms", counts["calls"], "per batch call")
    outcome.show("core.batch.ns_per_point",
                 metrics.ratio(counts["batch_s"] * 1e9, counts["rows"]),
                 "ns/point", counts["rows"])
    outcome.show("serve.service.cache_hit_ratio",
                 values["serve.service.cache_hit_ratio"], "ratio",
                 eval_requests, "cache hits / /eval requests")
    outcome.show("serve.service.batch_rows",
                 values["serve.service.batch_rows"], "rows",
                 int(delta.get("batches", 0)), "per coalesced batch")
    outcome.show("core.compile.hit_ratio", values["core.compile.hit_ratio"],
                 "ratio", lookups, "compile_cache_stats() lookups")
