"""One seeded run of one benchmark workload.

Run from the repository root::

    python3 perfbench/run.py --workload serve_eval_unique --seed 1 \\
        --seconds 18 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``serve_eval_unique``  distinct ``/eval`` requests, open then closed loop
``serve_mixed``        Zipf-hot ``/eval`` plus ``/sweep``, ``/variants``
                       and poisoned requests
``offline_sweep``      explore drivers, variant batches, ``report_all``
``fleet``              ``run_fleet_sweep`` and ``run_fleet_grid_sweep``

Every output is checked against the scalar model.  Workload-specific
figures are printed first, each with its unit and sample count; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  The CPU-bound times (the
``offline_sweep`` and ``fleet`` figures and every ``setup_s``) are
reported at a fixed reference speed, with the measured figures printed
next to them (see :mod:`perfbench.speed`).  Scratch files (native
kernel builds, span dumps, worker logs) go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("serve_eval_unique", "serve_mixed", "offline_sweep", "fleet")

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 3


def run_agent(role: str, seed: int, seconds: float, trace: bool, work):
    """``offline``/``fleet``: set-up probes, then the measured worker."""
    from perfbench import speed
    from perfbench.metrics import Outcome
    from perfbench.procs import Agent

    outcome = Outcome()
    setup_s, host = [], speed.Probe()
    base = [role, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    repeats = 1 if trace else SETUP_REPEATS
    for index in range(repeats):
        probe = index < repeats - 1
        host.sample(speed.SETUP_PIECES)
        start = time.perf_counter()
        agent = Agent(ROOT, work, base + (["--probe"] if probe else []))
        try:
            agent.wait_event("ready")
            setup_s.append(time.perf_counter() - start)
            if probe:
                message = agent.finish("probe", 120)
            else:
                message = agent.finish("result", seconds + 150)
        finally:
            agent.kill()
        host.sample(speed.SETUP_PIECES)
        part = Outcome.from_dict(message["outcome"])
        outcome.attempted += part.attempted
        outcome.failed += part.failed
        outcome.problems.extend(part.problems)
        if not probe:
            outcome.metrics.update(part.metrics)
            outcome.lines.extend(part.lines)
            host.seconds.extend(part.reference_s)
    if not trace:
        speed.report_setup(outcome, setup_s, host,
                           "import, build, first result")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import metrics, serve

    work = ROOT / ".bench_work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    trace = bool(args.trace)
    try:
        if args.workload.startswith("serve_"):
            outcome = serve.run(args.workload, args.seed, args.seconds, trace,
                                ROOT, work)
        else:
            role = "offline" if args.workload == "offline_sweep" else "fleet"
            outcome = run_agent(role, args.seed, args.seconds, trace, work)
    except serve.InvalidRun as err:
        print(f"invalid run: {err}", file=sys.stderr)
        return 3

    names = metrics.PER_LAYER if trace else metrics.END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {int(trace)}")
    for line in outcome.lines:
        print(line.render())
    print(metrics.Line(
        "failed_share", metrics.ratio(outcome.failed, outcome.attempted),
        "ratio", outcome.attempted,
        f"{outcome.failed} failed of {outcome.attempted} operations",
    ).render())
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
