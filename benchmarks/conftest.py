"""Shared fixtures and history capture for the benchmark harness.

Each ``test_bench_*`` module regenerates one paper artifact (see
DESIGN.md's experiment index): the ``benchmark`` fixture times the
regeneration, and plain asserts check the reproduction against the
paper's published numbers and shapes.

Every session also feeds the benchmark history: each passing test's
call duration becomes one ``bench.<test name>`` timing record
(:class:`repro.obs.bench.BenchRecord`), and the session's records are
*appended* to ``BENCH_HISTORY.jsonl`` under one run id, last — the run
``gables bench compare`` and the CI ``bench-history`` job judge
against the rolling baseline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs.bench import (
    append_history,
    git_revision,
    host_fingerprint,
    make_record,
    new_run_id,
)
from repro.sim import simulated_snapdragon_835

_ROOT = Path(__file__).resolve().parent.parent

#: The append-only benchmark trajectory (one JSONL record per metric
#: per run); never truncated by the harness.
BENCH_HISTORY = _ROOT / "BENCH_HISTORY.jsonl"

#: nodeid -> call-phase duration for every passed benchmark test.
_DURATIONS: dict = {}


def pytest_runtest_logreport(report):
    """Collect call-phase wall time per passing test."""
    if report.when == "call" and report.passed:
        _DURATIONS[report.nodeid] = report.duration


def pytest_sessionfinish(session, exitstatus):
    """Append this session's timing records to the history."""
    run_id = new_run_id()
    git_rev = git_revision(_ROOT)
    host = host_fingerprint()
    records = [
        make_record(
            f"bench.{nodeid.split('::')[-1]}", duration, "s",
            run_id=run_id, git_rev=git_rev, host=host,
            meta={"nodeid": nodeid},
        )
        for nodeid, duration in sorted(_DURATIONS.items())
    ]
    if records:
        append_history(BENCH_HISTORY, records)


@pytest.fixture(scope="session")
def platform():
    """A calibrated simulated Snapdragon 835 (thermally controlled)."""
    return simulated_snapdragon_835()


@pytest.fixture(scope="session")
def generic_spec():
    """The Figure 3 generic SoC, lowered to Gables parameters."""
    from repro.soc import generic_soc

    return generic_soc().to_gables_spec()
