"""Worker process of the benchmark: ``python3 perfbench/agent.py <role>``.

Roles:

``server [--trace-out PATH]``
    Imports the program, installs the tracing wrappers when asked
    (before ``GablesServer`` binds), times the native kernel build,
    binds a ``GablesServer`` on a free port and prints
    ``{"event": "ready", "port": ...}``.  It serves until its stdin
    closes, then drains, writes its spans and prints
    ``{"event": "exit", ...}`` with its peak RSS and compile-cache
    counters.
``offline`` / ``fleet --seed N --seconds S --trace 0|1 [--probe]``
    Runs the in-process workload (:mod:`perfbench.offline`,
    :mod:`perfbench.fleet`).  ``ready`` is printed once the first
    result is computed; a ``--probe`` run then checks that result and
    exits (it measures set-up time only).

This module is also re-imported by the fleet's spawned worker
processes, so it imports nothing beyond the standard library at the
top level.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def emit(event: str, **fields) -> None:
    """One JSON line on stdout for the parent process."""
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest child)."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def native_build_s() -> float:
    """Wall time of the process's first ``native_available()`` call."""
    from repro.core import compile as compiled

    probe = getattr(compiled, "native_available", None)
    start = time.perf_counter()
    if probe is not None:
        probe()
    return time.perf_counter() - start


def compile_stats() -> dict:
    from repro.core import compile as compiled

    stats = getattr(compiled, "compile_cache_stats", None)
    return dict(stats()) if stats is not None else {}


def serve(args) -> None:
    from repro.serve.server import GablesServer

    tracer = None
    if args.trace_out:
        from perfbench.tracing import SERVE_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(SERVE_TARGETS)
    build_s = native_build_s()
    server = GablesServer(port=0).start()
    emit("ready", port=server.address[1], native_build_s=build_s)
    sys.stdin.read()  # returns when the parent closes our stdin
    server.shutdown_gracefully()
    if tracer is not None:
        tracer.restore()
        tracer.dump(args.trace_out)
    emit(
        "exit", peak_rss_mb=peak_rss_mb(), compile=compile_stats(),
        native_build_s=build_s,
    )


def workload(args) -> None:
    if args.role == "offline":
        from perfbench import offline as module
    else:
        from perfbench import fleet as module
    build_s = native_build_s()
    state = module.first_result(args.seed)
    emit("ready")
    outcome = module.check_first(state)
    if args.probe:
        emit("probe", outcome=outcome.to_dict())
        return
    module.run(state, args.seconds, bool(args.trace), outcome)
    if args.trace:
        outcome.metrics["core.compile.native_build_s"] = build_s
        outcome.show("core.compile.native_build_s", build_s, "s", 1,
                     "first native_available() call")
    emit("result", outcome=outcome.to_dict())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="agent.py")
    parser.add_argument("role", choices=("server", "offline", "fleet"))
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    if args.role == "server":
        serve(args)
    else:
        workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
