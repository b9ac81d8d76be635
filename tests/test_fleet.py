"""The sharded fleet-sweep runner and its market-spec population.

The load-bearing contract: a multi-worker fleet's points are bitwise
identical to the serial run's — sharding, forked or spawned workers,
telemetry, faults, and checkpoints may change *how* the population is
evaluated, never *what* it evaluates to.  Workers are forked from a
one-thread caller on Linux and spawned otherwise; either way no process
a fleet call starts may outlive it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.explore.fleet as fleet_module
from repro import obs
from repro.cli import main
from repro.core import FIGURE_6B
from repro.errors import MeasurementError, SpecError
from repro.explore import (
    FleetPoint,
    evaluate_grid_chunks,
    evaluate_population,
    fleet_bench_records,
    run_fleet_grid_sweep,
    run_fleet_sweep,
    worker_checkpoint_path,
)
from repro.market import MarketSpecCase, market_spec_population
from repro.resilience import RetryPolicy

#: Both fleet drivers run their shards through one lifecycle.
DRIVERS = ("market", "grid")

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: A 2-worker call of each driver, then the pids of this interpreter's
#: children — running or exited but unreaped — read from /proc just
#: before it exits.
_CHILDREN_PROBE = """
import os

from repro.core import FIGURE_6B
from repro.explore import run_fleet_grid_sweep, run_fleet_sweep
from repro.market import market_spec_population

run_fleet_sweep(market_spec_population(limit=60), workers=2)
run_fleet_grid_sweep(FIGURE_6B.soc(), points=4_000, chunk=1_000, workers=2)
me = str(os.getpid())
children = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
    except OSError:
        continue  # exited while the directory was listed
    if fields[1] == me:
        children.append(pid)
print("children:", children)
"""


def _small_fleet(driver: str, workers: int, **kwargs):
    """60 market specs, or 4,000 grid rows in 4 chunks."""
    if driver == "market":
        return run_fleet_sweep(
            market_spec_population(limit=60), workers=workers, **kwargs
        )
    return run_fleet_grid_sweep(
        FIGURE_6B.soc(), points=4_000, chunk=1_000, workers=workers,
        **kwargs,
    )


class _UnpicklableCase(MarketSpecCase):
    """A case that refuses to be pickled, so it can reach a worker only
    in the memory the worker was forked with."""

    def __reduce_ex__(self, protocol):
        raise TypeError("a fleet case must not be pickled")


@contextmanager
def _helper_thread(helper: bool):
    """With ``helper``, one more Python thread runs for the body, which
    puts a fleet call's workers on spawn."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if helper:
        thread.start()
    try:
        yield
    finally:
        release.set()
        if helper:
            thread.join(timeout=10)
    assert not thread.is_alive()


def _expected_start_method(helper: bool) -> str:
    return ("fork" if sys.platform.startswith("linux") and not helper
            else "spawn")


@pytest.fixture
def start_methods(monkeypatch):
    """The start method of every pool the fleet module builds, in order."""
    chosen = []

    def spy(method):
        chosen.append(method)
        return multiprocessing.get_context(method)

    monkeypatch.setattr(fleet_module, "get_context", spy)
    return chosen


@pytest.fixture(scope="module")
def population():
    return market_spec_population()


@pytest.fixture(scope="module")
def small_population(population):
    return population[:60]


class TestMarketSpecPopulation:
    def test_population_covers_the_whole_market(self, population):
        # The acceptance bar is a >=500-spec fleet; the full synthetic
        # market clears it with room.
        assert len(population) >= 500
        assert len({case.key for case in population}) == len(population)

    def test_population_is_deterministic(self, population):
        again = market_spec_population()
        assert [case.soc for case in again] == [
            case.soc for case in population
        ]
        assert [case.workload for case in again] == [
            case.workload for case in population
        ]

    def test_since_and_limit_filter(self, population):
        recent = market_spec_population(since=2014)
        assert recent
        assert all(case.record.year >= 2014 for case in recent)
        assert len(market_spec_population(limit=7)) == 7
        with pytest.raises(SpecError, match="limit"):
            market_spec_population(limit=0)

    def test_every_case_evaluates(self, small_population):
        points, failures = evaluate_population(small_population)
        assert not failures
        assert len(points) == len(small_population)
        assert all(point.attainable > 0 for point in points)
        assert [point.index for point in points] == list(
            range(len(small_population))
        )

    def test_given_indices_key_the_points(self, small_population):
        cases = small_population[:3]
        points, _ = evaluate_population(cases, indices=(5.0, 7, True))
        assert [(type(p.index), p.index) for p in points] == [
            (int, 5), (int, 7), (int, 1),
        ]
        with pytest.raises(SpecError, match="must match cases"):
            evaluate_population(cases, indices=[1, 2])


class TestFleetIdentity:
    def test_two_worker_fleet_is_bitwise_identical_to_serial(
        self, population
    ):
        serial, _ = evaluate_population(population)
        fleet = run_fleet_sweep(population, workers=2)
        # Tuple equality on frozen dataclasses of floats: exact, not
        # approximate.  Any clock, shard, or pickling leak breaks this.
        assert fleet.points == serial
        assert len(fleet.workers) == 2
        assert {report.shard for report in fleet.workers} == {0, 1}

    def test_inline_single_worker_matches_too(self, small_population):
        serial, _ = evaluate_population(small_population)
        fleet = run_fleet_sweep(small_population, workers=1)
        assert fleet.points == serial
        (report,) = fleet.workers
        assert report.cases == len(small_population)

    @pytest.mark.parametrize("helper", [False, True],
                             ids=["one-thread", "helper-thread"])
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_start_method_follows_the_thread_rule(self, driver, helper,
                                                  start_methods):
        with _helper_thread(helper), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fleet = _small_fleet(driver, 2)
        assert start_methods == [_expected_start_method(helper)]
        # CPython >= 3.12 warns on a fork while BLAS threads run.
        assert not [w for w in caught if "multi-threaded" in str(w.message)]
        serial = _small_fleet(driver, 1)
        if driver == "market":
            assert fleet.points == serial.points
        else:
            assert fleet.digest == serial.digest

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="fleet workers are forked on Linux only")
    def test_forked_workers_are_sent_no_payload(self, start_methods):
        cases = tuple(
            _UnpicklableCase(case.record, case.soc, case.workload)
            for case in market_spec_population(limit=40)
        )
        with pytest.raises(TypeError, match="must not be pickled"):
            pickle.dumps(cases[0])
        serial, _ = evaluate_population(cases)
        fleet = run_fleet_sweep(cases, workers=2)
        assert start_methods == ["fork"]
        assert fleet.points == serial
        for point in fleet.points:
            # Reassembled with the caller's own key strings, into slots.
            assert point.key is cases[point.index].key
            assert not hasattr(point, "__dict__")
            assert pickle.loads(pickle.dumps(point)) == point
            assert FleetPoint.from_dict(point.to_dict()) == point

    def test_three_workers_same_answer(self, small_population):
        two = run_fleet_sweep(small_population, workers=2)
        three = run_fleet_sweep(small_population, workers=3)
        assert two.points == three.points

    def test_validation(self, small_population):
        with pytest.raises(SpecError, match="at least one"):
            run_fleet_sweep(())
        with pytest.raises(SpecError, match="workers"):
            run_fleet_sweep(small_population, workers=0)
        with pytest.raises(SpecError, match="fault_plan"):
            run_fleet_sweep(small_population, fault_plan_name=3.14)


class TestFleetResilience:
    def test_chaos_fleet_with_retries_loses_nothing(self, small_population):
        fleet = run_fleet_sweep(
            small_population, workers=2,
            fault_plan_name="chaos-default", seed=0,
            retry_policy=RetryPolicy(max_attempts=8),
        )
        serial, _ = evaluate_population(small_population)
        # Faults fail attempts, never points: retried results are the
        # exact serial values.
        assert fleet.points == serial
        assert fleet.fault_plan == "chaos-default"
        injected = sum(
            report.fault_summary["injected"] for report in fleet.workers
        )
        assert injected > 0

    @pytest.mark.parametrize("helper", [False, True],
                             ids=["one-thread", "helper-thread"])
    def test_worker_error_reaches_the_caller(self, small_population, helper,
                                             start_methods):
        # No retry policy and on_error="raise": a worker's first dropout
        # ends its shard, and the caller raises that catalogued error.
        with _helper_thread(helper), \
                pytest.raises(MeasurementError) as caught:
            run_fleet_sweep(
                small_population, workers=2,
                fault_plan_name="chaos-default", seed=0,
            )
        assert start_methods == [_expected_start_method(helper)]
        assert caught.value.code == "MEASUREMENT_DROPOUT"

    def test_record_mode_surfaces_unretried_dropouts(self, small_population):
        fleet = run_fleet_sweep(
            small_population, workers=2,
            fault_plan_name="chaos-default", seed=0,
            on_error="record",
        )
        assert fleet.errors, "chaos without retries must drop points"
        assert len(fleet.points) + len(fleet.errors) == len(small_population)
        assert all(f.code == "MEASUREMENT_DROPOUT" for f in fleet.errors)
        skip = run_fleet_sweep(
            small_population, workers=2,
            fault_plan_name="chaos-default", seed=0,
            on_error="skip",
        )
        assert skip.errors == ()
        assert [p.key for p in skip.points] == [p.key for p in fleet.points]

    def test_checkpoint_resume_reuses_every_point(
        self, small_population, tmp_path
    ):
        base = tmp_path / "fleet.ck.jsonl"
        first = run_fleet_sweep(
            small_population, workers=2, checkpoint_path=base
        )
        assert sum(r.checkpoint_reused for r in first.workers) == 0
        second = run_fleet_sweep(
            small_population, workers=2, checkpoint_path=base
        )
        assert second.points == first.points
        assert sum(r.checkpoint_reused for r in second.workers) == len(
            small_population
        )
        # Each worker owns its shard's file.
        for worker_id in ("w0", "w1"):
            assert (tmp_path / f"fleet.ck.jsonl.{worker_id}").exists()
        assert worker_checkpoint_path(None, "w0") is None

    def test_fleet_point_round_trips_through_checkpoints(self):
        point = FleetPoint(index=3, key="Q-1", attainable=1e9,
                           bottleneck="memory", memory_time=1e-9,
                           average_intensity=2.5)
        assert FleetPoint.from_dict(point.to_dict()) == point
        # Checkpoints written before the field went still load.
        older = {**point.to_dict(), "attempts": 1}
        assert FleetPoint.from_dict(older) == point


class TestFleetTelemetry:
    #: Per driver: the event that closes a shard's log, and the points
    #: each of the two shards evaluates.
    SHARD_DONE = {
        "market": ("fleet.shard.done", 30),
        "grid": ("fleet.grid_shard.done", 2_000),
    }

    @pytest.fixture(scope="class")
    def telemetry_runs(self, tmp_path_factory):
        """A 2-worker run of each driver with telemetry, plus the child
        processes still alive when the call returned."""
        runs = {}
        for driver in DRIVERS:
            root = tmp_path_factory.mktemp(f"telemetry-{driver}")
            result = _small_fleet(driver, 2, telemetry_dir=root)
            runs[driver] = (result, root, multiprocessing.active_children())
        return runs

    @pytest.fixture(scope="class")
    def telemetry_run(self, telemetry_runs):
        result, root, _ = telemetry_runs["market"]
        return result, root

    def test_every_worker_leaves_a_shard(self, telemetry_runs):
        for driver, (result, root, _) in telemetry_runs.items():
            done_event, points = self.SHARD_DONE[driver]
            shards = obs.load_shards(root)
            assert {s.worker_id for s in shards} == {"w0", "w1"}, driver
            for shard in shards:
                # The payload's context: the fleet's trace, the
                # worker's own provenance.
                assert shard.context.trace_id == result.trace_id
                assert shard.context.fleet_run_id == result.fleet_run_id
                assert shard.context.worker_id == shard.worker_id
                assert shard.context.shard == int(shard.worker_id[1:])
                assert shard.spans, "worker must record its shard span"
                assert shard.heartbeats
                assert any(r.event == done_event for r in shard.logs)
                assert shard.metrics["explore.fleet.points"]["value"] == (
                    points
                )

    def test_merged_view_is_one_trace(self, telemetry_runs):
        for driver, (result, root, _) in telemetry_runs.items():
            merged = obs.merge_telemetry(obs.load_shards(root))
            assert merged.trace_id == result.trace_id, driver
            assert merged.fleet_run_id == result.fleet_run_id
            assert merged.metrics["explore.fleet.points"]["value"] == (
                2 * self.SHARD_DONE[driver][1]
            )
            # Every log record carries the fleet's trace id — the
            # cross-process correlation the layer exists for.
            assert all(r.trace_id == result.trace_id for r in merged.logs)
            assert {r.worker_id for r in merged.logs} == {"w0", "w1"}
            reports = {r.worker_id: r for r in result.workers}
            assert {
                worker: len(beats)
                for worker, beats in merged.heartbeats.items()
            } == {w: reports[w].heartbeats for w in reports}

    def test_no_worker_process_outlives_the_call(self, telemetry_runs):
        for driver, (_, _, alive) in telemetry_runs.items():
            assert alive == [], driver

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the process table from /proc")
    def test_no_process_of_any_kind_outlives_the_call(self):
        # active_children() lists pool workers only, neither the
        # resource tracker a spawn pool starts nor a forkserver; the
        # process table lists them all.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC_DIR), env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", _CHILDREN_PROBE],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "children: []"

    @pytest.mark.parametrize("installed", [False, True],
                             ids=["from-none", "from-installed"])
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_inline_run_restores_the_callers_context(self, driver,
                                                     installed):
        before = obs.new_context("caller") if installed else None
        obs.set_context(before)
        _small_fleet(driver, 1)
        assert obs.current_context() is before

    def test_shard_spans_carry_flat_attributes(self, telemetry_run):
        _, root = telemetry_run
        for shard in obs.load_shards(root):
            (record,) = [r for r in shard.spans if r.name == "fleet.shard"]
            assert record.attributes == {"cases": 30}

    def test_grid_shard_span_carries_flat_attributes(self):
        obs.enable_tracing()
        evaluate_grid_chunks(FIGURE_6B.soc(), ((0, 8), (1, 8)))
        (record,) = [
            r for r in obs.get_tracer().finished_spans()
            if r.name == "fleet.grid_shard"
        ]
        assert record.attributes == {"chunks": 2}

    def test_merged_profile_is_derived_from_shard_spans(self, telemetry_run):
        _, root = telemetry_run
        # Workers ship spans only; the profile is computed at merge.
        assert not (root / "worker-w0" / "profile.json").exists()
        merged = obs.merge_telemetry(obs.load_shards(root))
        (shard_node,) = merged.profile
        assert (shard_node.name, shard_node.count) == ("fleet.shard", 2)
        (point_node,) = shard_node.children
        assert (point_node.name, point_node.count) == ("fleet.point", 60)
        assert point_node.children[0].name == "core.evaluate"

    def test_fleet_dashboard_renders_merged_view(self, telemetry_run,
                                                 tmp_path):
        _, root = telemetry_run
        out = tmp_path / "fleet.html"
        obs.write_fleet_dashboard_html(out, root)
        page = out.read_text()
        assert "<h2>Fleet</h2>" in page
        assert "Worker lanes" in page
        assert "Worker health" in page
        assert "worker w0" in page and "worker w1" in page


class TestFleetBenchRecords:
    def test_records_carry_fleet_provenance(self, small_population):
        result = run_fleet_sweep(small_population, workers=2)
        records = fleet_bench_records(result)
        assert [r.name for r in records] == [
            "fleet.sweep.throughput",
            "fleet.worker.throughput", "fleet.worker.seconds",
            "fleet.worker.throughput", "fleet.worker.seconds",
        ]
        fleet_record, w0, w0_s, w1, _w1_s = records
        assert w0_s.unit == "s"
        assert (w0_s.worker_id, w0_s.shard) == ("w0", 0)
        assert fleet_record.fleet_run_id == result.fleet_run_id
        assert (w0.worker_id, w0.shard) == ("w0", 0)
        assert (w1.worker_id, w1.shard) == ("w1", 1)
        assert w0.provenance_key == (
            "fleet.worker.throughput[worker=w0;shard=0;engine=interpreted]"
        )
        # The scalar fleet's per-point loop is the scalar interpreter.
        assert fleet_record.engine == "interpreted"
        assert fleet_record.provenance_key == (
            "fleet.sweep.throughput[engine=interpreted]"
        )
        assert "worker_id" not in fleet_record.to_dict()

    def test_compare_groups_by_worker_lane(self, small_population):
        first = run_fleet_sweep(small_population, workers=2)
        second = run_fleet_sweep(small_population, workers=2)
        records = [
            record
            for result, run in ((first, "run-a"), (second, "run-b"))
            for record in fleet_bench_records(result, run_id=run)
        ]
        report = obs.compare_runs(records, window=5)
        # Only unit=="s" rows are judged, one baseline per worker lane.
        lanes = {row.name for row in report.rows}
        assert lanes == {
            "fleet.worker.seconds[worker=w0;shard=0;engine=interpreted]",
            "fleet.worker.seconds[worker=w1;shard=1;engine=interpreted]",
        }


class TestFleetCli:
    def test_fleet_run_merge_and_logs_commands(self, tmp_path, capsys):
        telemetry = tmp_path / "shards"
        history = tmp_path / "hist.jsonl"
        dashboard = tmp_path / "fleet.html"
        assert main([
            "fleet", "run", "--workers", "2", "--specs", "12",
            "--telemetry", str(telemetry), "--history", str(history),
            "--dashboard", str(dashboard),
        ]) == 0
        out = capsys.readouterr().out
        assert "12 points over 2 worker(s)" in out
        assert "appended 5 throughput record(s)" in out
        names = [r.name for r in obs.read_history(history)]
        assert names.count("fleet.worker.throughput") == 2
        assert names.count("fleet.worker.seconds") == 2
        assert dashboard.exists()

        assert main(["telemetry", "merge", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s)" in out
        summary = json.loads(
            (telemetry / "merged" / "summary.json").read_text()
        )
        assert summary["workers"] == ["w0", "w1"]

        log_file = telemetry / "worker-w0" / "logs.jsonl"
        assert main(["logs", "summarize", str(log_file),
                     "--tail", "2"]) == 0
        out = capsys.readouterr().out
        assert "workers: w0" in out
        assert "fleet.shard.done" in out

    def test_fleet_run_chaos_record_prints_degraded_banner(
        self, tmp_path, capsys
    ):
        assert main([
            "fleet", "run", "--workers", "2", "--specs", "30",
            "--history", "", "--fault-plan", "chaos-default",
            "--retries", "1", "--on-error", "record",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "DEGRADED" in out or "degraded" in out

    def test_dashboard_without_telemetry_is_an_error(self, tmp_path,
                                                     capsys):
        for run in ([], ["--grid", "2000", "--workers", "1"]):
            code = main([
                "fleet", "run", "--specs", "4", "--history", "", *run,
                "--dashboard", str(tmp_path / "x.html"),
            ])
            assert code != 0, run
            assert "--telemetry" in capsys.readouterr().err

    def test_grid_run_renders_the_dashboard(self, tmp_path, capsys):
        dashboard = tmp_path / "grid.html"
        assert main([
            "fleet", "run", "--grid", "4000", "--chunk", "1000",
            "--workers", "1", "--history", "",
            "--telemetry", str(tmp_path / "shards"),
            "--dashboard", str(dashboard),
        ]) == 0
        assert f"wrote {dashboard}" in capsys.readouterr().out
        assert "<h2>Fleet</h2>" in dashboard.read_text()
