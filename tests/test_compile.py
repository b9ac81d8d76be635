"""The compiled batch engine: fused kernels vs the interpreter.

:mod:`repro.core.compile` specializes a (SoC, lowered phase) pair into
a fused batch kernel — constant-folded phase structure, pre-resolved
bus weights, one chain of numpy ufuncs over the grid's columns — that
the batch entry points pick via ``engine="auto"``.  It is the one
compiled tier; the interpreter is the ground truth.  This suite pins
the contract that makes the speed safe:

- the compiled engine agrees with the interpreter within **1e-12
  relative** (and in practice bitwise) across every variant
  kind and SoCs of one to four IPs, including ``on_error="record"``
  NaN masking and per-point hardware overrides;
- both engines give one verdict on grids with failed rows, in every
  ``on_error`` mode (``TestOneVerdict``);
- compiled batches on concurrent threads match the interpreter;
- the grid fleet's chunk-addressed generation and digests are
  deterministic and engine-independent, and evaluating a chunk in
  blocks is bitwise one batch over it.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BaseVariant,
    BatchResult,
    CoordinationVariant,
    FusedBatchResult,
    InterconnectVariant,
    IPBlock,
    MemorySideVariant,
    MultipathVariant,
    PhasedVariant,
    SerializedVariant,
    SoCSpec,
    Workload,
    evaluate_batch,
    evaluate_lowered_batch,
    evaluate_variant,
    evaluate_variant_batch,
)
from repro.core.batch import _resolve_engine
from repro.core.extensions import (
    Bus,
    CoordinationModel,
    InterconnectSpec,
    MemorySideCache,
    MultiPathInterconnect,
    Phase,
    PhasedUsecase,
)
from repro.errors import ReproError, SpecError
from repro.explore import (
    evaluate_grid_chunks,
    grid_chunk,
    grid_chunk_plan,
    run_fleet_grid_sweep,
)
from repro.explore.fleet import GRID_BLOCK

_REL = 1e-12


def _soc(n: int = 3) -> SoCSpec:
    accel = (1.0, 8.0, 4.0, 16.0, 2.0, 12.0, 6.0, 3.0)
    bws = (30e9, 60e9, 20e9, 45e9, 15e9, 25e9, 50e9, 10e9)
    return SoCSpec(
        peak_perf=40e9,
        memory_bandwidth=10e9,
        ips=tuple(
            IPBlock(f"ip{i}", accel[i], bws[i]) for i in range(n)
        ),
    )


def _grid(n: int, k: int = 64, seed: int = 3):
    rng = np.random.default_rng(seed)
    fractions = rng.dirichlet(np.ones(n), size=k)
    intensities = rng.uniform(0.25, 64.0, size=(k, n))
    return fractions, intensities


def _variants(n: int) -> list:
    buses = (Bus("noc", 20e9), Bus("sideband", 8e9))
    usage = tuple((0,) if i % 2 else (0, 1) for i in range(n))
    routes = tuple(((0,), (1,)) for _ in range(n))
    return [
        BaseVariant(),
        SerializedVariant(),
        MemorySideVariant(
            MemorySideCache(tuple(1.0 / (i + 1) for i in range(n)))
        ),
        InterconnectVariant(InterconnectSpec(buses, usage)),
        MultipathVariant(MultiPathInterconnect(buses, routes)),
        CoordinationVariant(CoordinationModel(
            tuple(1e-4 * i for i in range(n)), ops_per_item=1e6
        )),
    ]


def _assert_equivalent(compiled, interpreted):
    """The compiled result matches the interpreter at 1e-12 relative,
    with identical NaN masks and bottleneck attributions."""
    a, b = compiled.attainables, interpreted.attainables
    assert a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    np.testing.assert_allclose(a[mask], b[mask], rtol=_REL, atol=0.0)
    assert np.array_equal(
        compiled.bottleneck_codes, interpreted.bottleneck_codes
    )
    assert compiled.component_names == interpreted.component_names


# ---------------------------------------------------------------------------
# Engine resolution
# ---------------------------------------------------------------------------


class TestEngineResolution:
    def test_unknown_engine_is_a_spec_error(self):
        soc = _soc(2)
        with pytest.raises(SpecError, match="unknown engine"):
            evaluate_batch(
                soc, [[0.5, 0.5]], [[8.0, 2.0]], engine="vectorised"
            )

    def test_compiled_serves_skip_mode(self):
        soc = _soc(2)
        batch = evaluate_batch(
            soc, [[0.5, 0.5], [0.9, 0.9]], [[8.0, 2.0], [8.0, 2.0]],
            on_error="skip", engine="compiled",
        )
        assert isinstance(batch, FusedBatchResult)
        assert batch.point_indices.tolist() == [0]
        assert [f.coords for f in batch.errors] == [(1,)]

    @pytest.mark.parametrize("on_error", ["raise", "record", "skip"])
    def test_auto_is_the_compiled_engine_in_every_mode(self, on_error):
        assert _resolve_engine("auto") == "compiled"
        soc = _soc(2)
        batch = evaluate_batch(
            soc, [[0.5, 0.5], [0.25, 0.75]], [[8.0, 2.0], [8.0, 2.0]],
            on_error=on_error, engine="auto",
        )
        assert isinstance(batch, FusedBatchResult)

    def test_engine_choice_picks_the_result_type(self):
        soc = _soc(2)
        fractions, intensities = _grid(2, k=4)
        compiled = evaluate_batch(
            soc, fractions, intensities, engine="compiled"
        )
        interpreted = evaluate_batch(
            soc, fractions, intensities, engine="interpreted"
        )
        auto = evaluate_batch(soc, fractions, intensities, engine="auto")
        assert isinstance(compiled, FusedBatchResult)
        assert isinstance(interpreted, BatchResult)
        assert isinstance(auto, FusedBatchResult)


class TestSharedKernelThreads:
    """Served ``/sweep`` runs kernels on concurrent handler threads."""

    @pytest.mark.parametrize("kind", ["base", "interconnect"])
    def test_threads_sharing_one_kernel_match_the_interpreter(self, kind):
        soc = _soc(3)
        (variant,) = [v for v in _variants(3) if v.kind == kind]
        phase = variant.lower(soc).phases[0]
        grids = [_grid(3, k=512, seed=seed) for seed in range(4)]
        want = [
            evaluate_lowered_batch(soc, phase, f, i, engine="interpreted")
            for f, i in grids
        ]
        start = threading.Barrier(len(grids))
        # Bitwise-equal results per thread; a thread that raised
        # stops short of 25.
        matched = [0] * len(grids)

        def evaluate_own_grid(index: int) -> None:
            fractions, intensities = grids[index]
            start.wait(timeout=10)
            for _ in range(25):
                got = evaluate_lowered_batch(
                    soc, phase, fractions, intensities, engine="compiled"
                )
                matched[index] += np.array_equal(
                    got.attainables, want[index].attainables
                ) and np.array_equal(
                    got.bottleneck_codes, want[index].bottleneck_codes
                )

        threads = [
            threading.Thread(target=evaluate_own_grid, args=(index,))
            for index in range(len(grids))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matched == [25] * len(grids)


# ---------------------------------------------------------------------------
# Compiled vs interpreted: every variant kind
# ---------------------------------------------------------------------------


class TestCompiledEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_every_single_phase_variant_matches(self, n):
        soc = _soc(n)
        fractions, intensities = _grid(n)
        for variant in _variants(n):
            compiled = evaluate_variant_batch(
                soc, variant, fractions, intensities, engine="compiled"
            )
            interpreted = evaluate_variant_batch(
                soc, variant, fractions, intensities, engine="interpreted"
            )
            _assert_equivalent(compiled, interpreted)

    def test_phased_variant_matches(self):
        soc = _soc(2)
        phases = tuple(
            Phase(
                work=0.5,
                workload=Workload(
                    fractions=(f, 1.0 - f), intensities=(4.0, 16.0)
                ),
                name=f"p{i}",
            )
            for i, f in enumerate((0.25, 0.75))
        )
        variant = PhasedVariant(PhasedUsecase(phases))
        memory = np.array([5e9, 10e9, 20e9])
        compiled = evaluate_variant_batch(
            soc, variant, memory_bandwidth=memory, engine="compiled"
        )
        interpreted = evaluate_variant_batch(
            soc, variant, memory_bandwidth=memory, engine="interpreted"
        )
        np.testing.assert_allclose(
            compiled.attainables, interpreted.attainables,
            rtol=_REL, atol=0.0,
        )
        np.testing.assert_allclose(
            compiled.phase_times, interpreted.phase_times,
            rtol=_REL, atol=0.0,
        )
        assert compiled.bottlenecks() == interpreted.bottlenecks()

    def test_record_mode_masks_identically(self):
        soc = _soc(2)
        fractions = np.array([
            [0.5, 0.5],
            [0.9, 0.9],    # does not sum to 1
            [0.25, 0.75],
            [-0.5, 1.5],   # negative fraction
        ])
        intensities = np.array([
            [8.0, 2.0],
            [8.0, 2.0],
            [0.0, 4.0],    # zero intensity on an active IP
            [8.0, 2.0],
        ])
        for variant in _variants(2):
            compiled = evaluate_variant_batch(
                soc, variant, fractions, intensities,
                on_error="record", engine="compiled",
            )
            interpreted = evaluate_variant_batch(
                soc, variant, fractions, intensities,
                on_error="record", engine="interpreted",
            )
            _assert_equivalent(compiled, interpreted)
            assert [f.coords for f in compiled.errors] == [
                f.coords for f in interpreted.errors
            ]
            assert [f.code for f in compiled.errors] == [
                f.code for f in interpreted.errors
            ]

    def test_per_point_hardware_overrides_match(self):
        soc = _soc(3)
        fractions, intensities = _grid(3, k=32)
        rng = np.random.default_rng(11)
        memory = rng.uniform(5e9, 40e9, size=32)
        bandwidths = rng.uniform(10e9, 80e9, size=(32, 3))
        peaks = rng.uniform(10e9, 90e9, size=(32, 3))
        for variant in _variants(3):
            compiled = evaluate_variant_batch(
                soc, variant, fractions, intensities,
                memory_bandwidth=memory, ip_bandwidths=bandwidths,
                ip_peaks=peaks, engine="compiled",
            )
            interpreted = evaluate_variant_batch(
                soc, variant, fractions, intensities,
                memory_bandwidth=memory, ip_bandwidths=bandwidths,
                ip_peaks=peaks, engine="interpreted",
            )
            _assert_equivalent(compiled, interpreted)

    def test_broadcast_grids_match(self):
        # Stride-0 workload columns fold to scalars, so their whole
        # sub-chain runs once instead of per row; the answer must not
        # change.
        soc = _soc(3)
        fractions = np.broadcast_to(
            np.array([0.2, 0.3, 0.5]), (16, 3)
        )
        intensities = np.broadcast_to(np.array([4.0, 8.0, 2.0]), (16, 3))
        memory = np.linspace(5e9, 40e9, 16)
        compiled = evaluate_batch(
            soc, fractions, intensities, memory_bandwidth=memory,
            engine="compiled",
        )
        interpreted = evaluate_batch(
            soc, fractions, intensities, memory_bandwidth=memory,
            engine="interpreted",
        )
        _assert_equivalent(compiled, interpreted)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_socs_and_grids_match(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        accel = [1.0] + [
            data.draw(st.floats(min_value=0.01, max_value=1000))
            for _ in range(n - 1)
        ]
        rate = st.floats(min_value=1e6, max_value=1e14)
        soc = SoCSpec(
            peak_perf=data.draw(rate),
            memory_bandwidth=data.draw(rate),
            ips=tuple(
                IPBlock(f"ip{i}", accel[i], data.draw(rate))
                for i in range(n)
            ),
        )
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        fractions, intensities = _grid(n, k=16, seed=seed)
        variant = data.draw(st.sampled_from(_variants(n)))
        compiled = evaluate_variant_batch(
            soc, variant, fractions, intensities, engine="compiled"
        )
        interpreted = evaluate_variant_batch(
            soc, variant, fractions, intensities, engine="interpreted"
        )
        _assert_equivalent(compiled, interpreted)


class TestUfuncLane:
    """The pure-ufunc lane, the one compiled tier, on other grid shapes."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_variant_matches_without_native(self, n):
        soc = _soc(n)
        fractions, intensities = _grid(n, k=48)
        for variant in _variants(n):
            compiled = evaluate_variant_batch(
                soc, variant, fractions, intensities, engine="compiled"
            )
            interpreted = evaluate_variant_batch(
                soc, variant, fractions, intensities, engine="interpreted"
            )
            _assert_equivalent(compiled, interpreted)

    def test_record_mode_without_native(self):
        soc = _soc(2)
        fractions = np.array([[0.5, 0.5], [2.0, 2.0], [0.1, 0.9]])
        intensities = np.full((3, 2), 4.0)
        compiled = evaluate_batch(
            soc, fractions, intensities, on_error="record",
            engine="compiled",
        )
        interpreted = evaluate_batch(
            soc, fractions, intensities, on_error="record",
            engine="interpreted",
        )
        _assert_equivalent(compiled, interpreted)
        assert math.isnan(compiled.attainables[1])


# ---------------------------------------------------------------------------
# One verdict for both engines
# ---------------------------------------------------------------------------


#: Poisoned rows of :func:`_poisoned_grid` and the verdict each gets.
POISONED = {
    1: "WORKLOAD_FRACTION_RANGE",         # a NaN fraction
    3: "WORKLOAD_FRACTION_SUM",           # fractions summing to 1.8
    5: "WORKLOAD_INTENSITY_NONPOSITIVE",  # a zero intensity
    6: "SPEC_NONPOSITIVE_PEAK",           # a zero IP peak
    8: "EVAL_DEGENERATE_POINT",           # every component takes 0 s
}


def _poisoned_grid(soc):
    """A 10-row grid with one row per verdict in :data:`POISONED`."""
    n = soc.n_ips
    fractions, intensities = _grid(n, k=10, seed=5)
    peaks = np.tile([soc.ip_peak(i) for i in range(n)], (10, 1))
    fractions[1, 0] = math.nan
    fractions[3] = 1.8 / n
    intensities[5, n - 1] = 0.0
    peaks[6, 0] = 0.0
    # All work on IP 0 with infinite peaks and perfect reuse: no time
    # anywhere, not even host dispatch (no other IP is active).
    fractions[8] = [1.0] + [0.0] * (n - 1)
    intensities[8] = math.inf
    peaks[8] = math.inf
    return fractions, intensities, peaks


class TestOneVerdict:
    """Both engines give one verdict: the shared body validates, judges
    and packages every batch, in every ``on_error`` mode."""

    @pytest.mark.parametrize("on_error", ["record", "skip"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tolerant_modes_agree_bitwise(self, n, on_error):
        soc = _soc(n)
        fractions, intensities, peaks = _poisoned_grid(soc)
        for variant in _variants(n):
            compiled, interpreted = (
                evaluate_variant_batch(
                    soc, variant, fractions, intensities, ip_peaks=peaks,
                    on_error=on_error, engine=engine,
                )
                for engine in ("compiled", "interpreted")
            )
            assert isinstance(compiled, FusedBatchResult)
            assert np.array_equal(
                compiled.attainables, interpreted.attainables,
                equal_nan=True,
            )
            assert np.array_equal(
                compiled.bottleneck_codes, interpreted.bottleneck_codes
            )
            assert np.array_equal(compiled.valid, interpreted.valid)
            assert np.array_equal(
                compiled.ip_times, interpreted.ip_times, equal_nan=True
            )
            assert compiled.errors == interpreted.errors
            assert [(f.coords, f.code) for f in compiled.errors] == [
                ((index,), code) for index, code in POISONED.items()
            ], variant.kind
            if on_error == "record":
                assert compiled.point_indices is None
                assert interpreted.point_indices is None
                assert np.isnan(compiled.attainables[list(POISONED)]).all()
            else:
                kept = [i for i in range(10) if i not in POISONED]
                assert compiled.point_indices.tolist() == kept
                assert interpreted.point_indices.tolist() == kept

    @pytest.mark.parametrize("row", sorted(POISONED))
    def test_raise_mode_raises_alike(self, row):
        soc = _soc(3)
        fractions, intensities, peaks = _poisoned_grid(soc)
        rows = [0, row]
        for variant in _variants(3):
            raised = []
            for engine in ("compiled", "interpreted"):
                with pytest.raises(ReproError) as info:
                    evaluate_variant_batch(
                        soc, variant, fractions[rows], intensities[rows],
                        ip_peaks=peaks[rows], engine=engine,
                    )
                raised.append((type(info.value), str(info.value)))
            assert raised[0] == raised[1], variant.kind


# ---------------------------------------------------------------------------
# Lazy drill-down
# ---------------------------------------------------------------------------


class TestFusedBatchResult:
    def test_drilldown_replays_the_interpreter_bitwise(self):
        soc = _soc(3)
        fractions, intensities = _grid(3, k=16)
        compiled = evaluate_batch(
            soc, fractions, intensities, engine="compiled"
        )
        interpreted = evaluate_batch(
            soc, fractions, intensities, engine="interpreted"
        )
        # Matrices the kernel never computed materialize on demand via
        # an interpreter replay, so they match *bitwise*.
        assert np.array_equal(compiled.ip_times, interpreted.ip_times)
        assert np.array_equal(compiled.data_bytes, interpreted.data_bytes)
        assert np.array_equal(
            compiled.memory_times, interpreted.memory_times
        )
        assert compiled.bottlenecks() == interpreted.bottlenecks()

    def test_point_result_matches_the_scalar_engine(self):
        soc = _soc(2)
        fractions, intensities = _grid(2, k=4)
        compiled = evaluate_batch(
            soc, fractions, intensities, engine="compiled"
        )
        for index in range(len(compiled)):
            scalar = evaluate_variant(
                soc,
                Workload(
                    fractions=tuple(fractions[index]),
                    intensities=tuple(intensities[index]),
                ),
            )
            point = compiled.result(index)
            assert point.attainable == pytest.approx(
                scalar.attainable, rel=_REL
            )
            assert point.bottleneck == scalar.bottleneck


# ---------------------------------------------------------------------------
# Grid fleet determinism
# ---------------------------------------------------------------------------


class TestGridFleet:
    def test_chunks_are_chunk_addressed_and_deterministic(self):
        first = grid_chunk(3, 7, 100, seed=5)
        again = grid_chunk(3, 7, 100, seed=5)
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])
        other = grid_chunk(3, 8, 100, seed=5)
        assert not np.array_equal(first[0], other[0])
        np.testing.assert_allclose(first[0].sum(axis=1), 1.0)
        assert first[1].min() >= 0.25 and first[1].max() <= 64.0

    def test_plan_partitions_exactly(self):
        plan = grid_chunk_plan(1050, 250)
        assert plan == ((0, 250), (1, 250), (2, 250), (3, 250), (4, 50))
        assert sum(size for _, size in plan) == 1050
        with pytest.raises(SpecError, match="points"):
            grid_chunk_plan(0)

    def test_chunk_digests_are_engine_independent(self):
        soc = _soc(3)
        plan = grid_chunk_plan(600, 200)
        compiled = evaluate_grid_chunks(
            soc, plan, seed=2, engine="compiled"
        )
        interpreted = evaluate_grid_chunks(
            soc, plan, seed=2, engine="interpreted"
        )
        assert [c.digest for c in compiled] == [
            c.digest for c in interpreted
        ]
        assert [c.points for c in compiled] == [200, 200, 200]

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("n, kind", [
        (2, None), (4, None), (8, None), (4, "interconnect"),
    ])
    def test_blocked_chunk_is_one_batch_bitwise(self, n, kind, engine):
        soc = _soc(n)
        variant = None
        if kind is not None:
            (variant,) = [v for v in _variants(n) if v.kind == kind]
        size = 2 * GRID_BLOCK + 1_001  # a partial last block
        (summary,) = evaluate_grid_chunks(
            soc, ((6, size),), seed=7, variant=variant, engine=engine
        )
        fractions, intensities = grid_chunk(n, 6, size, seed=7)
        if variant is None:
            whole = evaluate_batch(
                soc, fractions, intensities, validate=False, engine=engine
            )
        else:
            whole = evaluate_variant_batch(
                soc, variant, fractions, intensities, validate=False,
                engine=engine,
            )
        assert whole.bottleneck_codes.dtype == np.intp
        sha = hashlib.sha256(np.ascontiguousarray(whole.attainables).tobytes())
        sha.update(np.ascontiguousarray(whole.bottleneck_codes).tobytes())
        assert summary.digest == sha.hexdigest()
        assert summary.points == size

    def test_inline_sweep_matches_across_engines(self):
        soc = _soc(3)
        compiled = run_fleet_grid_sweep(
            soc, points=2000, workers=1, chunk=500, engine="compiled",
            seed=9,
        )
        interpreted = run_fleet_grid_sweep(
            soc, points=2000, workers=1, chunk=500, engine="interpreted",
            seed=9,
        )
        assert compiled.digest == interpreted.digest
        assert compiled.points == 2000
        assert compiled.engine == "compiled"
        assert interpreted.engine == "interpreted"
        assert len(compiled.chunks) == 4

    def test_two_worker_fleet_reassembles_the_serial_digest(self):
        soc = _soc(2)
        serial = run_fleet_grid_sweep(
            soc, points=2000, workers=1, chunk=500, engine="interpreted",
            seed=4,
        )
        fleet = run_fleet_grid_sweep(
            soc, points=2000, workers=2, chunk=500, engine="compiled",
            seed=4,
        )
        assert fleet.digest == serial.digest
        assert len(fleet.workers) == 2
        assert all(r.engine == "compiled" for r in fleet.workers)
