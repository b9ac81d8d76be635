"""Batch-vs-scalar equivalence for the vectorized evaluation engine.

The batch engine (:mod:`repro.core.batch`) promises the *same* IEEE-754
operations in the same order as the scalar evaluator, so these tests
pin exact agreement on two-IP grids — including the ``f = 0``,
``I = inf`` and denormal-underflow edge cases — and agreement within
1e-12 relative for wider SoCs (where ``math.fsum`` vs pairwise
``numpy.sum`` over per-IP byte counts may differ in the last ulp).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    ENGINE_CHOICES,
    FIGURE_6_SEQUENCE,
    IPBlock,
    MemorySideVariant,
    SoCSpec,
    Workload,
    evaluate,
    evaluate_batch,
    evaluate_variant,
    evaluate_variant_batch,
    fraction_grid,
)
from repro.core.batch import BatchResult, _fraction_sums
from repro.core.extensions import MemorySideCache
from repro.core.gables import attainable_performance_dual
from repro.errors import EvaluationError, SpecError, WorkloadError
from repro.explore import (
    sweep_acceleration,
    sweep_ip_bandwidth,
    sweep_memory_bandwidth,
)
from repro.obs import enable_tracing, get_tracer
from repro.obs.metrics import counter
from repro.units import GIGA

F_GRID = [k / 16 for k in range(17)]


def _three_ip_soc() -> SoCSpec:
    """A 3-IP SoC (CPU + GPU + DSP) for the N > 2 reduction cases."""
    from repro.core import IPBlock

    return SoCSpec(
        peak_perf=7.5 * GIGA,
        memory_bandwidth=30 * GIGA,
        ips=(
            IPBlock("CPU", 1.0, 15.1 * GIGA),
            IPBlock("GPU", 46.6, 24.4 * GIGA),
            IPBlock("DSP", 0.4, 5.4 * GIGA),
        ),
        name="three-ip",
    )


class TestExactTwoIPEquivalence:
    """N <= 2: batch results must be bitwise identical to scalar."""

    @pytest.mark.parametrize("scenario", FIGURE_6_SEQUENCE,
                             ids=lambda s: s.name)
    def test_fig6_f_grid_exact(self, scenario):
        soc, workload = scenario.soc(), scenario.workload()
        grid = fraction_grid(workload.fractions, 1, np.array(F_GRID))
        intensities = np.broadcast_to(
            np.asarray(workload.intensities), grid.shape
        )
        batch = evaluate_batch(soc, grid, intensities, validate=False)
        for i, f in enumerate(F_GRID):
            scalar = evaluate(soc, workload.with_fraction_at(1, f))
            assert batch.attainables[i] == scalar.attainable
            assert batch.bottleneck(i) == scalar.bottleneck

    @pytest.mark.parametrize("scenario", FIGURE_6_SEQUENCE,
                             ids=lambda s: s.name)
    def test_fig6_full_result_reconstruction(self, scenario):
        soc, workload = scenario.soc(), scenario.workload()
        batch = evaluate_batch(
            soc, [workload.fractions], [workload.intensities]
        )
        assert batch.result(0) == evaluate(soc, workload)

    def test_idle_ip_with_infinite_intensity(self, two_ip_soc):
        workload = Workload(fractions=(1.0, 0.0),
                            intensities=(8.0, math.inf))
        batch = evaluate_batch(
            two_ip_soc, [workload.fractions], [workload.intensities]
        )
        assert batch.result(0) == evaluate(two_ip_soc, workload)
        assert batch.bottleneck(0) != "memory" or math.isinf(
            batch.average_intensities[0]
        )

    def test_all_data_free_usecase_is_compute_bound(self, two_ip_soc):
        workload = Workload(fractions=(0.5, 0.5),
                            intensities=(math.inf, math.inf))
        batch = evaluate_batch(
            two_ip_soc, [workload.fractions], [workload.intensities]
        )
        scalar = evaluate(two_ip_soc, workload)
        assert batch.result(0) == scalar
        assert math.isinf(batch.average_intensities[0])
        assert math.isinf(batch.memory_perf_bounds[0])

    def test_denormal_fraction_underflows_identically(self, two_ip_soc):
        # 5e-324 / peak underflows to time == 0 on both paths; the sum
        # of fractions is still exactly 1.0 in double precision.
        workload = Workload(fractions=(1.0, 5e-324),
                            intensities=(8.0, math.inf))
        batch = evaluate_batch(
            two_ip_soc, [workload.fractions], [workload.intensities]
        )
        scalar = evaluate(two_ip_soc, workload)
        assert batch.ip_times[0, 1] == 0.0
        assert batch.result(0) == scalar

    def test_vector_input_promoted_to_single_point(self, two_ip_soc):
        workload = Workload.two_ip(f=0.5, i0=8, i1=2)
        batch = evaluate_batch(
            two_ip_soc, workload.fractions, workload.intensities
        )
        assert len(batch) == 1
        assert batch.result(0) == evaluate(two_ip_soc, workload)


class TestWideSoCEquivalence:
    """N > 2: agreement within 1e-12 relative (fsum vs pairwise sum)."""

    def test_three_ip_grid(self):
        soc = _three_ip_soc()
        workloads = [
            Workload(fractions=(0.2, 0.5, 0.3), intensities=(8.0, 2.0, 4.0)),
            Workload(fractions=(1.0, 0.0, 0.0),
                     intensities=(8.0, math.inf, 1.0)),
            Workload(fractions=(0.0, 1.0, 0.0),
                     intensities=(1.0, math.inf, 1.0)),
            Workload(fractions=(1 / 3, 1 / 3, 1 / 3),
                     intensities=(0.25, 1024.0, math.inf)),
        ]
        batch = evaluate_batch(
            soc,
            [w.fractions for w in workloads],
            [w.intensities for w in workloads],
        )
        for i, workload in enumerate(workloads):
            scalar = evaluate(soc, workload)
            assert batch.attainables[i] == pytest.approx(
                scalar.attainable, rel=1e-12
            )
            assert batch.bottleneck(i) == scalar.bottleneck

    def test_bottlenecks_tuple_matches_pointwise(self):
        soc = _three_ip_soc()
        grid = fraction_grid((0.2, 0.5, 0.3), 1, np.array(F_GRID))
        intensities = np.full(grid.shape, 2.0)
        batch = evaluate_batch(soc, grid, intensities)
        assert batch.bottlenecks() == tuple(
            batch.bottleneck(i) for i in range(len(batch))
        )
        assert batch.memory_code == 3
        assert batch.component_names == ("CPU", "GPU", "DSP", "memory")


class TestBatchValidation:
    """Error-type parity with the scalar constructors and evaluator."""

    def test_empty_batch_rejected(self, two_ip_soc):
        with pytest.raises(WorkloadError, match="at least one point"):
            evaluate_batch(two_ip_soc, np.empty((0, 2)), np.empty((0, 2)))

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("on_error", ["raise", "record", "skip"])
    @pytest.mark.parametrize("engine", ENGINE_CHOICES)
    def test_empty_batch_raises_in_every_mode(
            self, two_ip_soc, engine, on_error, validate):
        empty = np.empty((0, 2))
        with pytest.raises(WorkloadError, match="at least one point"):
            evaluate_batch(
                two_ip_soc, empty, empty, validate=validate,
                on_error=on_error, engine=engine,
            )

    def test_fractions_must_sum_to_one(self, two_ip_soc):
        with pytest.raises(WorkloadError, match="sum to 1"):
            evaluate_batch(two_ip_soc, [[0.5, 0.4]], [[8.0, 2.0]])

    def test_negative_fraction_rejected(self, two_ip_soc):
        with pytest.raises(WorkloadError, match=r"\[0, 1\]"):
            evaluate_batch(two_ip_soc, [[-0.5, 1.5]], [[8.0, 2.0]])

    def test_nonpositive_intensity_rejected(self, two_ip_soc):
        with pytest.raises(WorkloadError, match="positive"):
            evaluate_batch(two_ip_soc, [[0.5, 0.5]], [[8.0, 0.0]])

    def test_wrong_ip_count_rejected(self, two_ip_soc):
        with pytest.raises(WorkloadError, match="covers 3 IPs"):
            evaluate_batch(two_ip_soc, [[0.2, 0.3, 0.5]], [[1.0, 1.0, 1.0]])

    def test_shape_mismatch_rejected(self, two_ip_soc):
        with pytest.raises(WorkloadError, match="same shape"):
            evaluate_batch(
                two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0], [8.0, 2.0]]
            )

    def test_bad_memory_bandwidth_is_spec_error(self, two_ip_soc):
        with pytest.raises(SpecError, match="memory_bandwidth"):
            evaluate_batch(
                two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]],
                memory_bandwidth=[1e9, 2e9],
            )
        with pytest.raises(SpecError, match="finite and positive"):
            evaluate_batch(
                two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]],
                memory_bandwidth=0.0,
            )

    def test_bad_ip_peaks_are_spec_errors(self, two_ip_soc):
        # An infinite peak is valid (a finite Ai * Ppeak can overflow).
        for peak in (0.0, -1e9, math.nan):
            with pytest.raises(SpecError, match="peaks must be positive"):
                evaluate_batch(
                    two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]],
                    ip_peaks=[[1e9, peak]],
                )
        with pytest.raises(SpecError, match="positive"):
            evaluate_batch(
                two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]],
                ip_bandwidths=[[0.0, 1e9]],
            )

    def test_degenerate_point_is_evaluation_error(self, two_ip_soc):
        # Unreachable through a validated Workload (fractions must sum
        # to 1) but reachable with validate=False — same error type as
        # the scalar evaluator's degenerate-usecase guard.
        with pytest.raises(EvaluationError, match="batch point 0"):
            evaluate_batch(
                two_ip_soc,
                [[0.0, 0.0]],
                [[math.inf, math.inf]],
                validate=False,
            )

    def test_out_of_range_result_index(self, two_ip_soc):
        batch = evaluate_batch(two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]])
        with pytest.raises(EvaluationError, match="out of range"):
            batch.result(1)


class TestInPlaceMutation:
    """Every call coerces and validates the arrays it is given.

    A caller that reuses its own list or array objects and edits them
    in place between calls must get the numbers (and errors) of the
    edited values, on every engine.
    """

    def test_nested_list_edit_is_seen_by_the_next_call(self, generic_spec):
        n, k = generic_spec.n_ips, 5
        fractions = [[1.0 / n] * n for _ in range(k)]
        intensities = [[1.0] * n for _ in range(k)]
        first = evaluate_batch(generic_spec, fractions, intensities)
        intensities[1] = [100.0] * n
        again = evaluate_batch(generic_spec, fractions, intensities)
        fresh = evaluate_batch(
            generic_spec, [list(row) for row in fractions],
            [list(row) for row in intensities],
        )
        interpreted = evaluate_batch(
            generic_spec, fractions, intensities, engine="interpreted"
        )
        assert again.attainables[1] != first.attainables[1]
        assert again.attainables[1] == fresh.attainables[1]
        assert again.attainables[1] == interpreted.attainables[1]
        assert again.attainables[0] == first.attainables[0]

    @pytest.mark.parametrize("engine", ENGINE_CHOICES)
    def test_array_edit_is_validated_by_the_next_call(self, generic_spec,
                                                      engine):
        n, k = generic_spec.n_ips, 5
        fractions = np.full((k, n), 1.0 / n)
        intensities = np.ones((k, n))
        evaluate_batch(generic_spec, fractions, intensities, engine=engine)
        fractions[1] = -5.0
        with pytest.raises(WorkloadError, match=r"finite values in \[0, 1\]"):
            evaluate_batch(generic_spec, fractions, intensities,
                           engine=engine)


    @pytest.mark.parametrize("on_error", ["raise", "record", "skip"])
    @pytest.mark.parametrize("engine", ENGINE_CHOICES)
    def test_edit_after_the_call_changes_no_result(self, engine, on_error):
        def inputs():
            hardware = dict(
                memory_bandwidth=np.full(3, 5e9),
                ip_bandwidths=np.full((3, 2), 10e9),
                ip_peaks=np.tile([10e9, 40e9], (3, 1)),
            )
            return np.full((3, 2), 0.5), np.full((3, 2), 0.5), hardware

        fractions, intensities, hardware = inputs()
        got = evaluate_batch(
            EDIT_SOC, fractions, intensities, on_error=on_error,
            engine=engine, **hardware,
        )
        # Edit every array the caller passed before reading anything
        # the compiled result computes on first access.
        for array in (fractions, intensities, *hardware.values()):
            array[...] = 100.0
        fractions, intensities, hardware = inputs()
        want = evaluate_batch(
            EDIT_SOC, fractions, intensities, on_error=on_error,
            engine="interpreted", **hardware,
        )
        assert want.attainables[0] == 2.5e9
        for name in BatchResult.__dataclass_fields__:
            value, expected = getattr(got, name), getattr(want, name)
            if isinstance(expected, np.ndarray):
                assert np.array_equal(value, expected), name
            else:
                assert value == expected, name
        for index in range(len(want)):
            assert got.result(index) == want.result(index)


#: A 2-IP SoC whose memory interface binds when no traffic is filtered
#: (2.5e9 ops/s) and whose IP links bind when a memory-side SRAM
#: filters 90% of it (1e10 ops/s).
EDIT_SOC = SoCSpec(
    10e9, 5e9, (IPBlock("cpu", 1.0, 10e9), IPBlock("gpu", 4.0, 10e9))
)
EDIT_WORKLOAD = Workload((0.5, 0.5), (0.5, 0.5))


def _memory_side_attainable(variant, path: str) -> float:
    if path == "scalar":
        return evaluate_variant(EDIT_SOC, EDIT_WORKLOAD, variant).attainable
    batch = evaluate_variant_batch(
        EDIT_SOC, variant, [list(EDIT_WORKLOAD.fractions)],
        [list(EDIT_WORKLOAD.intensities)], engine=path,
    )
    return float(batch.attainables[0])


class TestVariantEditedInPlace:
    """Every call lowers the variant it is given.

    A caller that edits a variant's fields in place between calls must
    get the numbers of a fresh variant built with the edited fields, on
    the scalar path and on both batch engines.
    """

    @pytest.mark.parametrize("path", ["scalar", "compiled", "interpreted"])
    def test_miss_ratio_edit_is_seen_by_the_next_call(self, path):
        variant = MemorySideVariant(MemorySideCache((1.0, 1.0)))
        assert _memory_side_attainable(variant, "scalar") == 2.5e9
        variant.cache.miss_ratios = (0.1, 0.1)
        fresh = MemorySideVariant(MemorySideCache((0.1, 0.1)))
        assert _memory_side_attainable(fresh, path) == 1e10
        assert _memory_side_attainable(variant, path) == 1e10


#: A 3-IP SoC and two fraction vectors on either side of the
#: ``FRACTION_SUM_TOL`` boundary, where numpy's row sum and
#: ``math.fsum`` round to opposite sides of it.
SUM_RULE_SOC = SoCSpec(
    peak_perf=40e9,
    memory_bandwidth=10e9,
    ips=(
        IPBlock("cpu", 1.0, 30e9),
        IPBlock("gpu", 8.0, 60e9),
        IPBlock("dsp", 4.0, 20e9),
    ),
)
SUM_RULE_INTENSITIES = (4.0, 8.0, 2.0)
#: ``math.fsum`` 1.0000000009999999: ``Workload`` accepts it.
FSUM_ACCEPTS = (0.5027467353042799, 0.49725326569571987, 1.566476002112645e-16)
#: ``math.fsum`` 1.000000001: ``Workload`` rejects it.
FSUM_REJECTS = (0.7660098686053787, 0.23399013239462108, 2.4520132042121616e-16)


class TestFractionSumRule:
    """The batch accepts exactly the fraction vectors ``Workload``
    accepts, in every entry point that validates."""

    @pytest.mark.parametrize("on_error", ["raise", "record"])
    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_fsum_accepted_row_evaluates(self, engine, on_error):
        want = evaluate(
            SUM_RULE_SOC, Workload(FSUM_ACCEPTS, SUM_RULE_INTENSITIES)
        )
        batch = evaluate_batch(
            SUM_RULE_SOC, [FSUM_ACCEPTS], [SUM_RULE_INTENSITIES],
            on_error=on_error, engine=engine,
        )
        assert batch.errors == ()
        assert batch.attainables[0] == pytest.approx(
            want.attainable, rel=1e-12, abs=0.0
        )
        assert batch.bottleneck(0) == want.bottleneck

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_fsum_rejected_row_fails(self, engine):
        with pytest.raises(WorkloadError, match="sum to 1"):
            Workload(FSUM_REJECTS, SUM_RULE_INTENSITIES)
        with pytest.raises(WorkloadError, match=r"sums to 1\.000000001$"):
            evaluate_batch(
                SUM_RULE_SOC, [FSUM_REJECTS], [SUM_RULE_INTENSITIES],
                engine=engine,
            )
        batch = evaluate_batch(
            SUM_RULE_SOC, [FSUM_ACCEPTS, FSUM_REJECTS],
            [SUM_RULE_INTENSITIES] * 2, on_error="record", engine=engine,
        )
        assert batch.valid.tolist() == [True, False]
        assert [(f.coords, f.code) for f in batch.errors] == [
            ((1,), "WORKLOAD_FRACTION_SUM")
        ]

    @pytest.mark.parametrize("on_error", ["record", "skip"])
    def test_out_of_range_row_near_the_tolerance_is_a_range_failure(
        self, on_error
    ):
        # numpy pairs each 1e308 with a -1e308 (8 partial sums over 16
        # IPs) and lands within the re-sum margin of 1 + 1e-9, while
        # math.fsum, adding in order, overflows at the second 1e308.
        small = [0.125000001] + [0.125] * 7 + [0.0] * 4
        row = [1e308, 1e308, *small[:6], -1e308, -1e308, *small[6:]]
        soc = SoCSpec(
            peak_perf=40e9,
            memory_bandwidth=10e9,
            ips=tuple(IPBlock(f"ip{i}", 1.0, 30e9) for i in range(16)),
        )
        batch = evaluate_batch(
            soc, [row, [1 / 16] * 16], [[4.0] * 16] * 2, on_error=on_error,
        )
        assert [(f.coords, f.code) for f in batch.errors] == [
            ((0,), "WORKLOAD_FRACTION_RANGE")
        ]
        assert batch.attainables.shape == ((2,) if on_error == "record"
                                           else (1,))

    @pytest.mark.parametrize("broadcast", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_in_order_row_sums_track_fsum(self, n, broadcast):
        # Below 8 IPs the row sum adds the columns in order; each total
        # stays within n ulps of one of the exact math.fsum.
        rng = np.random.default_rng(n)
        fractions = rng.random((256, n)) ** rng.uniform(0.1, 8.0, (256, 1))
        fractions /= fractions.sum(axis=1, keepdims=True)
        if broadcast:
            fractions = np.broadcast_to(fractions[7], fractions.shape)
        totals = _fraction_sums(fractions)
        for row, total in zip(fractions.tolist(), totals.tolist()):
            assert abs(total - math.fsum(row)) <= n * 2.0 ** -52

    @pytest.mark.parametrize(("sweep", "values", "build"), [
        (lambda soc, w, v: sweep_memory_bandwidth(soc, w, v),
         [5e9, 10e9, 40e9], lambda soc, v: soc.with_memory_bandwidth(v)),
        (lambda soc, w, v: sweep_ip_bandwidth(soc, w, 1, v),
         [10e9, 60e9, math.inf], lambda soc, v: soc.with_ip(1, bandwidth=v)),
        (lambda soc, w, v: sweep_acceleration(soc, w, 1, v),
         [0.5, 8.0, 64.0], lambda soc, v: soc.with_ip(1, acceleration=v)),
    ], ids=["Bpeak", "Bi", "Ai"])
    def test_validating_sweeps_agree_with_evaluate(self, sweep, values,
                                                   build):
        workload = Workload(FSUM_ACCEPTS, SUM_RULE_INTENSITIES)
        series = sweep(SUM_RULE_SOC, workload, values)
        assert series.values() == tuple(values)
        for value, point in zip(values, series.points):
            want = evaluate(build(SUM_RULE_SOC, value), workload)
            assert point.attainable == pytest.approx(
                want.attainable, rel=1e-12, abs=0.0
            )
            assert point.bottleneck == want.bottleneck


class TestFractionGrid:
    """The vectorized ``with_fraction_at`` builds identical rows."""

    @pytest.mark.parametrize(
        "base", [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.25, 0.75)]
    )
    def test_rows_match_scalar_exactly(self, base):
        workload = Workload(fractions=base, intensities=(8.0, 2.0))
        grid = fraction_grid(base, 1, np.array(F_GRID))
        for row, f in zip(grid, F_GRID):
            expected = workload.with_fraction_at(1, f).fractions
            assert tuple(row.tolist()) == expected

    def test_all_other_fractions_zero_branch(self):
        workload = Workload.single_ip(3, 1, 4.0)
        grid = fraction_grid(workload.fractions, 1, np.array([0.0, 0.25, 1.0]))
        for row, f in zip(grid, (0.0, 0.25, 1.0)):
            expected = workload.with_fraction_at(1, f).fractions
            assert tuple(row.tolist()) == expected

    def test_bad_inputs_rejected(self):
        with pytest.raises(WorkloadError, match="out of range"):
            fraction_grid((0.5, 0.5), 2, np.array([0.5]))
        with pytest.raises(WorkloadError, match=r"\[0, 1\]"):
            fraction_grid((0.5, 0.5), 1, np.array([1.5]))
        with pytest.raises(WorkloadError, match="1-D"):
            fraction_grid((0.5, 0.5), 1, np.array([[0.5]]))


class TestDualEmptyBounds:
    """Regression: Equation 14 on a no-work, no-data usecase."""

    def test_dual_raises_workload_error_not_value_error(self, two_ip_soc):
        # Such a Workload cannot be built through the validating
        # constructor (fractions must sum to 1), so bypass it the way a
        # corrupted deserialization would.
        workload = object.__new__(Workload)
        object.__setattr__(workload, "fractions", (0.0, 0.0))
        object.__setattr__(workload, "intensities", (math.inf, math.inf))
        object.__setattr__(workload, "name", "degenerate")
        with pytest.raises(WorkloadError, match="no work"):
            attainable_performance_dual(two_ip_soc, workload)


class TestBatchObservability:
    """Counters always; exactly one span per batch when tracing."""

    def test_counters_increment_per_batch(self, two_ip_soc):
        calls = counter("core.evaluate_batch.calls")
        points = counter("core.evaluate_batch.points")
        evaluate_batch(
            two_ip_soc,
            fraction_grid((0.5, 0.5), 1, np.array(F_GRID)),
            np.full((len(F_GRID), 2), 2.0),
        )
        assert calls.value == 1.0
        assert points.value == float(len(F_GRID))

    def test_one_span_per_batch_not_per_point(self, two_ip_soc):
        enable_tracing()
        evaluate_batch(
            two_ip_soc,
            fraction_grid((0.5, 0.5), 1, np.array(F_GRID)),
            np.full((len(F_GRID), 2), 2.0),
        )
        spans = [
            s for s in get_tracer().finished_spans()
            if s.name == "core.evaluate_batch"
        ]
        assert len(spans) == 1
        assert spans[0].attributes["points"] == len(F_GRID)


class TestSweepBatchPath:
    """Built-in sweeps on the batch path agree with the scalar loop."""

    @pytest.fixture()
    def setup(self, two_ip_soc):
        return two_ip_soc, Workload.two_ip(f=0.8, i0=6, i1=2)

    @staticmethod
    def _scalar(parameter, values, build):
        """The per-point reference: build each point, evaluate it."""
        from repro.explore import SweepPoint, SweepSeries

        points = []
        for value in values:
            result = evaluate(*build(value))
            points.append(
                SweepPoint(float(value), result.attainable, result.bottleneck)
            )
        return SweepSeries(parameter, tuple(points))

    def _assert_same_series(self, fast, slow):
        assert fast.parameter == slow.parameter
        assert fast.values() == slow.values()
        assert fast.attainables() == slow.attainables()
        assert tuple(p.bottleneck for p in fast.points) == tuple(
            p.bottleneck for p in slow.points
        )

    def test_fraction_sweep(self, setup):
        from repro.explore import sweep_fraction

        soc, workload = setup
        batches = counter("explore.sweep.batches")
        fast = sweep_fraction(soc, workload, 1, F_GRID)
        assert batches.value == 1.0
        slow = self._scalar(
            "f[1]", F_GRID, lambda f: (soc, workload.with_fraction_at(1, f))
        )
        self._assert_same_series(fast, slow)

    def test_intensity_sweep(self, setup):
        from repro.explore import sweep_intensity

        soc, workload = setup
        values = [0.25, 1.0, 4.0, 64.0, math.inf]
        self._assert_same_series(
            sweep_intensity(soc, workload, 1, values),
            self._scalar("I[1]", values, lambda i: (
                soc, Workload(workload.fractions, (workload.intensities[0], i))
            )),
        )

    def test_memory_bandwidth_sweep(self, setup):
        from repro.explore import sweep_memory_bandwidth

        soc, workload = setup
        values = [1 * GIGA, 10 * GIGA, 30 * GIGA]
        self._assert_same_series(
            sweep_memory_bandwidth(soc, workload, values),
            self._scalar("Bpeak", values, lambda b: (
                soc.with_memory_bandwidth(b), workload
            )),
        )

    def test_ip_bandwidth_sweep(self, setup):
        from repro.explore import sweep_ip_bandwidth

        soc, workload = setup
        values = [1 * GIGA, 5 * GIGA, math.inf]
        self._assert_same_series(
            sweep_ip_bandwidth(soc, workload, 1, values),
            self._scalar("B[1]", values, lambda b: (
                soc.with_ip(1, bandwidth=b), workload
            )),
        )

    def test_acceleration_sweep(self, setup):
        from repro.explore import sweep_acceleration

        soc, workload = setup
        values = [0.5, 2.0, 8.0, 64.0]
        self._assert_same_series(
            sweep_acceleration(soc, workload, 1, values),
            self._scalar("A[1]", values, lambda a: (
                soc.with_ip(1, acceleration=a), workload
            )),
        )

    def test_sweep_error_parity(self, setup):
        from repro.explore import sweep_acceleration, sweep_intensity

        soc, workload = setup
        with pytest.raises(WorkloadError):
            sweep_intensity(soc, workload, 1, [1.0, -2.0])
        with pytest.raises(SpecError):
            sweep_acceleration(soc, workload, 1, [1.0, math.inf])


class TestTransitionBracketing:
    """Transitions carry both endpoints of the crossover interval."""

    def test_previous_value_and_index(self, two_ip_soc):
        from repro.explore import sweep_fraction

        series = sweep_fraction(
            two_ip_soc, Workload.two_ip(f=0.8, i0=6, i1=2), 1, F_GRID
        )
        transitions = series.bottleneck_transitions()
        assert transitions
        for t in transitions:
            assert t.previous_value < t.value
            point = series.points[t.index]
            assert point.value == t.value
            assert point.bottleneck == t.to_component
            assert series.points[t.index - 1].value == t.previous_value
            assert series.points[t.index - 1].bottleneck == t.from_component
            # Tuple-position compatibility: [1] is still from_component.
            assert t[1] == t.from_component

    def test_sweep_series_svg_brackets_transitions(self, two_ip_soc):
        from repro.explore import sweep_fraction
        from repro.viz import sweep_series_svg

        series = sweep_fraction(
            two_ip_soc, Workload.two_ip(f=0.8, i0=6, i1=2), 1, F_GRID
        )
        svg = sweep_series_svg(series)
        for t in series.bottleneck_transitions():
            assert f"{t.from_component} -&gt; {t.to_component}" in svg


def test_batch_result_is_frozen(two_ip_soc):
    from repro.core.batch import FusedBatchResult

    batch = evaluate_batch(two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]])
    # The default engine returns the compiled duck-type; forcing the
    # interpreter still yields the frozen dataclass.
    assert isinstance(batch, (BatchResult, FusedBatchResult))
    interpreted = evaluate_batch(
        two_ip_soc, [[0.5, 0.5]], [[8.0, 2.0]], engine="interpreted"
    )
    assert isinstance(interpreted, BatchResult)
    with pytest.raises(AttributeError):
        interpreted.attainables = None
