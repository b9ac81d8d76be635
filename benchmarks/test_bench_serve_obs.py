"""Serve telemetry-plane overhead benchmarks.

Two budgets guard this PR's hooks.  The evaluation hot path gained no
new per-point instrumentation, but :meth:`Tracer.span` grew an
explicit-parent parameter that every existing hot-path span now routes
through — so the disabled-collector overhead of ``evaluate()`` is
re-verified at <= 1% of the bare implementation.  The HTTP request
path gained always-on hooks (request counter, latency bucket
histogram, SLO window event, trace-header handling); those are
per-*request*, and are held to <= 1% of one served ``/eval`` round
trip.
"""

from __future__ import annotations

import timeit

from repro.core import FIGURE_6_SEQUENCE, IPBlock, SoCSpec, Workload, evaluate
from repro.core.gables import _evaluate_impl
from repro.obs import disable_tracing, tracing_enabled
from repro.obs.context import TraceContext, extract_headers, inject_headers
from repro.obs.metrics import bucket_histogram, counter
from repro.obs.slo import observe_request
from repro.obs.trace import span
from repro.serve import GablesServer, ServiceClient, ServiceConfig
from repro.units import GIGA

#: The library-wide disabled-overhead budget.
MAX_OVERHEAD = 0.01

#: Absolute slack for differential timings.  Subtracting two ~60 us
#: loop averages resolves no finer than scheduler jitter on a shared
#: single-core runner (measured +-1.5 us between interleaved rounds),
#: so the bar is 1% plus this floor — still far below the cost of any
#: real per-point hook (an ``observe_request`` alone is ~3 us).
SLACK_S = 2e-6


def _large_pair():
    ips = [IPBlock("cpu", 1.0, 15 * GIGA)]
    ips += [
        IPBlock(f"acc{i}", float(2 + i), (4 + i) * GIGA) for i in range(15)
    ]
    soc = SoCSpec(
        peak_perf=10 * GIGA, memory_bandwidth=30 * GIGA, ips=tuple(ips)
    )
    n = soc.n_ips
    workload = Workload(
        fractions=tuple(1.0 / n for _ in range(n)),
        intensities=tuple(float(2 ** (i % 8)) for i in range(n)),
    )
    return soc, workload


def test_disabled_path_still_within_1pct_of_bare_evaluate():
    """Re-verify the point-evaluation hot path after the span change.

    ``evaluate`` runs the instrumented wrapper (spans + counters with
    every collector off); ``_evaluate_impl`` is the bare model.  Their
    difference is the whole disabled-path hook cost per point.
    """
    soc, workload = _large_pair()
    disable_tracing()
    assert not tracing_enabled()
    evaluate(soc, workload)  # warm caches on both paths
    _evaluate_impl(soc, workload)
    # Interleave the two loops (cpu-frequency and scheduling drift
    # would otherwise dominate the difference) and keep the quietest
    # round's estimate.
    estimates = []
    for _ in range(3):
        inst, bare = [], []
        for _ in range(7):
            inst.append(timeit.timeit(
                lambda: evaluate(soc, workload), number=400
            ) / 400)
            bare.append(timeit.timeit(
                lambda: _evaluate_impl(soc, workload), number=400
            ) / 400)
        estimates.append((min(inst) - min(bare), min(bare)))
    hook_s, bare = min(estimates)
    print(f"\ndisabled-path hook cost: {hook_s * 1e9:.0f} ns/point "
          f"against a {bare * 1e6:.1f} us evaluation "
          f"({hook_s / bare:+.2%})")
    assert hook_s <= MAX_OVERHEAD * bare + SLACK_S, (
        f"disabled-path hooks cost {hook_s * 1e9:.0f} ns per point; "
        f"the budget is {MAX_OVERHEAD:.0%} of the bare "
        f"{bare * 1e6:.1f} us evaluation plus {SLACK_S * 1e9:.0f} ns slack"
    )


def test_request_plane_hooks_within_1pct_of_a_served_eval():
    """The per-request telemetry bundle vs one real ``/eval`` round trip.

    The bundle is exactly what ``_dispatch``/``_record_request`` added:
    trace-header extract + context + disabled span + request counter +
    latency bucket + SLO window event.  A served evaluation costs a
    network round trip plus the model evaluation, so the always-on
    bundle must vanish inside it.
    """
    disable_tracing()
    headers = {"X-Gables-Trace-Id": "t-bench", "X-Gables-Parent-Span": "7"}

    def bundle():
        remote = extract_headers(headers)
        context = TraceContext(trace_id=remote.trace_id,
                               parent_span_id=remote.parent_span_id,
                               request_id="r-bench")
        out: dict = {}
        inject_headers(context, out, parent_span_id=None)
        with span("serve.request", parent_id=context.parent_span_id,
                  endpoint="/eval", method="POST"):
            pass
        labels = {"endpoint": "/eval", "outcome": "ok"}
        counter("serve.http.requests", labels=labels).inc()
        bucket_histogram(
            "serve.request.seconds", labels=labels
        ).record(1e-3)
        observe_request(ok=True, latency_s=1e-3)

    bundle()  # warm the instrument registrations
    bundle_s = min(timeit.repeat(bundle, repeat=9, number=2000)) / 2000

    scenario = FIGURE_6_SEQUENCE[1]
    soc, workload = scenario.soc(), scenario.workload()
    server = GablesServer(ServiceConfig(), port=0).start()
    try:
        with ServiceClient(server.url) as client:
            client.evaluate(soc, workload)  # warm connection + cache path
            request_s = min(timeit.repeat(
                lambda: client.evaluate(soc, workload),
                repeat=5, number=20,
            )) / 20
    finally:
        server.shutdown_gracefully()

    print(f"\nrequest-plane hooks: {bundle_s * 1e6:.2f} us against a "
          f"{request_s * 1e3:.2f} ms served eval "
          f"({bundle_s / request_s:.2%})")
    assert bundle_s <= MAX_OVERHEAD * request_s, (
        f"per-request telemetry costs {bundle_s * 1e6:.2f} us; the "
        f"budget is {MAX_OVERHEAD:.0%} of the {request_s * 1e3:.2f} ms "
        f"served evaluation"
    )
