"""Tests for the resilience subsystem: faults, retries, checkpoints,
partial failure.

The headline acceptance claims live here: a seeded fault plan with
measurement dropouts and bandwidth-degradation episodes still lets the
default retry policy fit a roofline within 2% of the fault-free ridge
point, and tolerant batch evaluation returns every valid point bitwise
identical to a fault-free run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import MeasurementError, SerializationError, SpecError
from repro.obs.metrics import get_registry
from repro.resilience import (
    FAULT_PLANS,
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    call_with_retry,
    check_on_error,
    degraded_banner,
    fault_plan,
    load_checkpoint,
    reject_outliers_mad,
    sample_key,
)
from repro.sim import simulated_snapdragon_835

#: The acceptance-criteria plan: dropouts and bandwidth wobble, no
#: ambient noise (noise shifts every sample and is excluded from the
#: 2%-of-ridge claim by construction).
EPISODIC_PLAN = FaultPlan(
    dropout_probability=0.2,
    bandwidth_degradation=0.5,
    bandwidth_episode_probability=0.15,
    name="episodic-test",
)


class TestFaultPlan:
    def test_registry_has_the_documented_plans(self):
        assert {"none", "chaos-default", "flaky-dram", "hot-die"} <= set(
            FAULT_PLANS
        )

    def test_named_lookup(self):
        plan = fault_plan("chaos-default")
        assert plan.dropout_probability == pytest.approx(0.2)
        assert plan.any_active

    def test_unknown_name_raises(self):
        with pytest.raises(SpecError, match="chaos-defualt"):
            fault_plan("chaos-defualt")

    def test_invalid_probability_rejected(self):
        with pytest.raises(SpecError):
            FaultPlan(dropout_probability=1.5)

    def test_none_plan_is_inert(self):
        assert not fault_plan("none").any_active

    def test_injector_is_deterministic(self):
        a = FaultInjector(fault_plan("chaos-default"), seed=7)
        b = FaultInjector(fault_plan("chaos-default"), seed=7)
        draws_a = [a.bandwidth_derate() for _ in range(50)]
        draws_b = [b.bandwidth_derate() for _ in range(50)]
        assert draws_a == draws_b
        assert a.counts == b.counts

    def test_dropout_raises_measurement_error(self):
        plan = FaultPlan(dropout_probability=1.0)
        injector = FaultInjector(plan, seed=0)
        with pytest.raises(MeasurementError) as excinfo:
            injector.check_dropout("unit test")
        assert excinfo.value.code == "MEASUREMENT_DROPOUT"
        assert injector.counts["dropout"] == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SpecError):
            RetryPolicy(max_attempts=0)

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise MeasurementError("transient", code="MEASUREMENT_DROPOUT")
            return "ok"

        policy = RetryPolicy(max_attempts=5)
        assert call_with_retry(flaky, policy) == "ok"
        assert calls["n"] == 3
        assert get_registry().counter("resilience.retries").value == 2

    def test_exhaustion_raises_with_code_and_cause(self):
        def always_fails():
            raise MeasurementError("nope", code="MEASUREMENT_DROPOUT")

        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(MeasurementError) as excinfo:
            call_with_retry(always_fails, policy)
        assert excinfo.value.code == "MEASUREMENT_RETRIES_EXHAUSTED"
        assert isinstance(excinfo.value.__cause__, MeasurementError)
        exhausted = get_registry().counter("resilience.retries_exhausted")
        assert exhausted.value == 1

    def test_non_retryable_errors_propagate(self):
        def broken():
            raise SpecError("not a measurement problem")

        with pytest.raises(SpecError):
            call_with_retry(broken, RetryPolicy())

    def test_no_policy_runs_once_and_propagates_unwrapped(self):
        calls = {"n": 0}

        def drops_out():
            calls["n"] += 1
            raise MeasurementError("dropped", code="MEASUREMENT_DROPOUT")

        with pytest.raises(MeasurementError) as excinfo:
            call_with_retry(drops_out, None)
        assert calls["n"] == 1
        assert excinfo.value.code == "MEASUREMENT_DROPOUT"
        assert excinfo.value.__cause__ is None
        assert get_registry().counter("resilience.retries").value == 0
        exhausted = get_registry().counter("resilience.retries_exhausted")
        assert exhausted.value == 0

    def test_mad_rejects_the_outlier(self):
        values = [10.0, 10.1, 9.9, 10.05, 3.0]
        kept = reject_outliers_mad(values, threshold=3.5)
        assert 3.0 not in kept
        assert len(kept) == 4

    def test_mad_keeps_tight_sets_and_degenerate_inputs(self):
        tight = [5.0, 5.01, 4.99]
        assert reject_outliers_mad(tight, 3.5) == tight
        assert reject_outliers_mad([1.0, 2.0], 3.5) == [1.0, 2.0]
        constant = [2.0, 2.0, 2.0, 9.0]
        # MAD == 0: no robust scale; keep everything.
        assert reject_outliers_mad(constant, 3.5) == constant


class TestSweepUnderFaults:
    """The ERT driver converges under an active fault plan."""

    def test_fault_free_and_faulty_ridge_within_two_percent(self):
        from repro.ert import fit_roofline, run_sweep

        clean = fit_roofline(run_sweep(simulated_snapdragon_835(), "CPU"))
        faulty_sweep = run_sweep(
            simulated_snapdragon_835(),
            "CPU",
            seed=0,
            fault_plan=EPISODIC_PLAN,
            retry_policy=DEFAULT_RETRY_POLICY,
        )
        assert faulty_sweep.faults is not None
        assert faulty_sweep.faults["injected"] > 0
        faulty = fit_roofline(faulty_sweep)
        rel = abs(faulty.ridge_point - clean.ridge_point) / clean.ridge_point
        assert rel <= 0.02

    def test_same_seed_is_bitwise_identical(self):
        from repro.ert import run_sweep

        def sweep():
            return run_sweep(
                simulated_snapdragon_835(),
                "CPU",
                seed=3,
                fault_plan="chaos-default",
                retry_policy=DEFAULT_RETRY_POLICY,
            )

        first, second = sweep(), sweep()
        assert first.samples == second.samples
        assert first.faults == second.faults

    def test_dropouts_without_retry_policy_propagate(self):
        from repro.ert import run_sweep

        with pytest.raises(MeasurementError):
            run_sweep(
                simulated_snapdragon_835(),
                "CPU",
                seed=0,
                fault_plan=FaultPlan(dropout_probability=1.0),
            )

    def test_injector_detaches_after_the_sweep(self):
        from repro.ert import run_sweep

        platform = simulated_snapdragon_835()
        run_sweep(
            platform,
            "CPU",
            intensities=(1.0,),
            footprints=(65536.0,),
            fault_plan="chaos-default",
            retry_policy=DEFAULT_RETRY_POLICY,
        )
        assert platform.fault_injector is None

    def test_fault_metrics_are_counted(self):
        from repro.ert import run_sweep

        run_sweep(
            simulated_snapdragon_835(),
            "CPU",
            seed=0,
            fault_plan=EPISODIC_PLAN,
            retry_policy=DEFAULT_RETRY_POLICY,
        )
        registry = get_registry()
        assert registry.counter("resilience.faults.injected").value > 0
        assert registry.counter("resilience.retries").value > 0


class TestCheckpoint:
    def test_resume_replays_completed_samples(self, tmp_path):
        from repro.ert import run_sweep

        path = tmp_path / "sweep.jsonl"
        kwargs = dict(
            intensities=(0.25, 4.0),
            footprints=(65536.0, 16 * 2**20),
            checkpoint=path,
        )
        first = run_sweep(simulated_snapdragon_835(), "CPU", **kwargs)
        hits_before = get_registry().counter(
            "resilience.checkpoint.hits"
        ).value
        second = run_sweep(simulated_snapdragon_835(), "CPU", **kwargs)
        assert second.samples == first.samples
        hits = get_registry().counter("resilience.checkpoint.hits").value
        assert hits - hits_before == len(first.samples)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            '{"schema": 1, "key": "a", "payload": {"gflops": 1.0}}\n'
            '{"schema": 1, "key": "b", "pay'
        )
        records = load_checkpoint(path)
        assert set(records) == {"a"}

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            'not json at all\n'
            '{"schema": 1, "key": "a", "payload": {"gflops": 1.0}}\n'
        )
        with pytest.raises(SerializationError, match=r"sweep\.jsonl:1"):
            load_checkpoint(path)

    def test_sample_key_is_order_insensitive(self):
        assert sample_key(b=2.0, a=1.0) == sample_key(a=1.0, b=2.0)


class TestPartialBatch:
    """`evaluate_batch` tolerant modes keep valid rows bitwise exact."""

    @staticmethod
    def _soc():
        from repro.core import IPBlock, SoCSpec

        return SoCSpec(
            peak_perf=1e10,
            memory_bandwidth=1e10,
            ips=(IPBlock("cpu", 1.0, 1e10), IPBlock("gpu", 4.0, 2e10)),
        )

    def test_record_masks_and_reports(self):
        from repro.core.batch import evaluate_batch

        soc = self._soc()
        fractions = np.array(
            [[0.5, 0.5], [0.7, 0.7], [0.5, 0.5], [1.5, -0.5]]
        )
        intensities = np.array(
            [[4.0, 4.0], [4.0, 4.0], [-1.0, 4.0], [4.0, 4.0]]
        )
        clean = evaluate_batch(soc, fractions[:1], intensities[:1])
        batch = evaluate_batch(soc, fractions, intensities, on_error="record")
        assert batch.valid.tolist() == [True, False, False, False]
        assert [f.code for f in batch.errors] == [
            "WORKLOAD_FRACTION_SUM",
            "WORKLOAD_INTENSITY_NONPOSITIVE",
            "WORKLOAD_FRACTION_RANGE",
        ]
        assert [f.coords for f in batch.errors] == [(1,), (2,), (3,)]
        assert batch.attainables[0] == clean.attainables[0]
        assert np.isnan(batch.attainables[1:]).all()
        assert batch.bottleneck_codes[1:].tolist() == [-1, -1, -1]
        assert batch.bottlenecks()[1] == "invalid"

    def test_skip_compresses_and_keeps_indices(self):
        from repro.core.batch import evaluate_batch

        soc = self._soc()
        fractions = np.array([[0.5, 0.5], [0.7, 0.7], [0.25, 0.75]])
        intensities = np.full((3, 2), 4.0)
        batch = evaluate_batch(soc, fractions, intensities, on_error="skip")
        assert batch.point_indices.tolist() == [0, 2]
        assert len(batch.attainables) == 2
        assert batch.valid.all()

    def test_skipped_points_counted(self):
        from repro.core.batch import evaluate_batch

        soc = self._soc()
        evaluate_batch(
            soc,
            np.array([[0.7, 0.7]]),
            np.full((1, 2), 4.0),
            on_error="skip",
        )
        skipped = get_registry().counter("resilience.points.skipped")
        assert skipped.value == 1

    @pytest.mark.parametrize("on_error", ["record", "skip"])
    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_each_failed_row_counted_once(self, engine, on_error):
        from repro.core.batch import evaluate_batch

        batch = evaluate_batch(
            self._soc(),
            np.array([[0.5, 0.5], [0.7, 0.7], [0.25, 0.75]]),
            np.full((3, 2), 4.0),
            on_error=on_error,
            engine=engine,
        )
        skipped = get_registry().counter("resilience.points.skipped")
        assert skipped.value == 1
        # Drill-downs replay the compiled call under its verdict; they
        # record no failure of their own.
        for _ in range(2):
            batch.ip_times, batch.data_bytes, batch.memory_perf_bounds
            batch.result(0)
        assert len(batch.errors) == 1
        assert skipped.value == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(SpecError):
            check_on_error("ignore")


class TestDegradedBanner:
    def test_banner_names_counts_and_codes(self):
        from repro.resilience import point_failure

        errors = [
            point_failure((1,), "WORKLOAD_FRACTION_SUM", "x"),
            point_failure((2,), "WORKLOAD_FRACTION_SUM", "y"),
            point_failure((3,), "EVAL_DEGENERATE_POINT", "z"),
        ]
        banner = degraded_banner(errors, 10)
        assert banner.startswith("DEGRADED OUTPUT: 3/10 points failed")
        assert "WORKLOAD_FRACTION_SUMx2" in banner
        assert "EVAL_DEGENERATE_POINTx1" in banner


class TestCliResilience:
    def test_measure_chaos_smoke(self, capsys):
        from repro.cli import main

        assert main(
            ["measure", "--fault-plan", "chaos-default", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "ridge point" in out
        assert "faults injected" in out
        injected = int(out.split("faults injected")[0].split()[-1])
        assert injected > 0

    def test_measure_checkpoint_resume(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ck.jsonl"
        argv = ["measure", "--engine", "DSP", "--checkpoint", str(path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert get_registry().counter("resilience.checkpoint.hits").value > 0

    def test_measure_fault_metrics_visible(self, tmp_path, capsys):
        import json

        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        assert main(
            ["--metrics", str(metrics), "measure",
             "--fault-plan", "chaos-default", "--seed", "0"]
        ) == 0
        snapshot = json.loads(metrics.read_text())
        flat = json.dumps(snapshot)
        assert "resilience.faults.injected" in flat
        assert "resilience.retries" in flat


class TestExploreOnError:
    def test_sweep_records_bad_points(self):
        from repro.core import Workload
        from repro.explore import sweep_intensity

        soc = TestPartialBatch._soc()
        workload = Workload(fractions=(0.5, 0.5), intensities=(4.0, 4.0))
        series = sweep_intensity(
            soc, workload, 1, [1.0, -2.0, 4.0], on_error="record"
        )
        assert [p.value for p in series.points] == [1.0, 4.0]
        assert len(series.errors) == 1
        assert series.errors[0].coords == (-2.0,)
        clean = sweep_intensity(soc, workload, 1, [1.0, 4.0])
        assert series.attainables() == clean.attainables()

    def test_grid_records_bad_cells(self):
        from repro.explore import analytic_mixing_grid

        soc = TestPartialBatch._soc()
        grid = analytic_mixing_grid(
            soc,
            fractions=(0.0, 0.5, 1.0),
            intensities=(1.0, math.nan, 16.0),
            on_error="record",
        )
        assert len(grid.cells) == 6
        assert len(grid.errors) == 3
        assert all(math.isnan(f.coords[1]) for f in grid.errors)

    def test_report_all_survives_a_broken_section(self, monkeypatch):
        from repro import reports

        def boom():
            raise SpecError("synthetic section failure")

        monkeypatch.setattr(reports, "report_fig9", boom)
        text = reports.report_all(on_error="record")
        assert text.startswith("DEGRADED OUTPUT: 1/6 sections failed")
        assert "[section fig9 unavailable: SPEC_INVALID" in text
        assert "Figure 8" in text
        with pytest.raises(SpecError):
            reports.report_all()
