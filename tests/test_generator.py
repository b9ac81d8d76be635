"""Tests for the synthetic usecase/workload generators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FIGURE_6D, evaluate
from repro.errors import SpecError
from repro.usecases import (
    monte_carlo_attainable,
    perturbed_workload,
    random_dataflow,
    random_workload,
)


class TestRandomWorkload:
    def test_valid_and_deterministic(self):
        a = random_workload(6, seed=42)
        b = random_workload(6, seed=42)
        assert a == b
        assert math.fsum(a.fractions) == pytest.approx(1.0)

    def test_sparsity_leaves_ips_idle(self):
        workload = random_workload(20, seed=1, sparsity=0.8)
        assert 0 < len(workload.active_ips) < 20

    def test_zero_sparsity_usually_all_active(self):
        workload = random_workload(5, seed=3, sparsity=0.0)
        assert len(workload.active_ips) == 5

    def test_intensity_range_respected(self):
        workload = random_workload(
            8, seed=7, intensity_log2_range=(0, 4)
        )
        for intensity in workload.intensities:
            assert 1.0 <= intensity <= 16.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(SpecError):
            random_workload(0)
        with pytest.raises(SpecError):
            random_workload(2, sparsity=1.0)
        with pytest.raises(SpecError):
            random_workload(2, intensity_log2_range=(5, 5))

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_always_valid_workload(self, seed, n_ips):
        workload = random_workload(n_ips, seed=seed)
        assert math.fsum(workload.fractions) == pytest.approx(1.0)
        assert all(i > 0 for i in workload.intensities)


class TestPerturbation:
    def test_idle_ips_stay_idle(self):
        base = random_workload(6, seed=5, sparsity=0.6)
        jittered = perturbed_workload(base, seed=9)
        for index in range(6):
            if base.fractions[index] == 0:
                assert jittered.fractions[index] == 0

    def test_zero_jitter_is_identity_up_to_normalization(self):
        base = FIGURE_6D.workload()
        same = perturbed_workload(base, seed=1, fraction_jitter=1e-12,
                                  intensity_jitter=1e-12)
        for a, b in zip(base.fractions, same.fractions):
            assert a == pytest.approx(b, rel=1e-6)

    def test_infinite_intensity_preserved(self):
        from repro.core import Workload

        base = Workload(fractions=(0.5, 0.5),
                        intensities=(math.inf, 4.0))
        jittered = perturbed_workload(base, seed=2)
        assert math.isinf(jittered.intensities[0])
        assert jittered.intensities[1] != 4.0


class TestRandomDataflow:
    def test_valid_structure(self, generic_spec):
        dataflow = random_dataflow(generic_spec.ip_names, seed=11)
        workload = dataflow.to_workload(generic_spec.ip_names)
        result = evaluate(generic_spec, workload)
        assert result.attainable > 0

    def test_deterministic(self):
        a = random_dataflow(("A", "B"), seed=3)
        b = random_dataflow(("A", "B"), seed=3)
        assert [s.ip for s in a.stages] == [s.ip for s in b.stages]
        assert a.total_ops_per_item() == b.total_ops_per_item()

    def test_stage_count(self):
        dataflow = random_dataflow(("A",), seed=1, n_stages=9)
        assert len(dataflow.stages) == 9

    def test_world_connected(self):
        dataflow = random_dataflow(("A", "B"), seed=4)
        producers = {flow.producer for flow in dataflow.flows}
        consumers = {flow.consumer for flow in dataflow.flows}
        from repro.usecases import WORLD

        assert WORLD in producers and WORLD in consumers


class TestMonteCarlo:
    def test_statistics_ordered(self):
        stats = monte_carlo_attainable(
            FIGURE_6D.soc(), FIGURE_6D.workload(), samples=60, seed=1
        )
        assert stats["min"] <= stats["p5"] <= stats["p50"] \
            <= stats["p95"] <= stats["max"]
        assert sum(stats["bottleneck_census"].values()) == 60

    def test_zero_jitter_degenerate(self):
        stats = monte_carlo_attainable(
            FIGURE_6D.soc(), FIGURE_6D.workload(), samples=10, seed=1,
            fraction_jitter=1e-12, intensity_jitter=1e-12,
        )
        assert stats["min"] == pytest.approx(stats["max"], rel=1e-6)

    def test_balanced_design_fragile(self):
        """A perfectly balanced design (Fig. 6d) sits at a knife edge:
        almost any perturbation shifts the bottleneck — the census
        spreads across components."""
        stats = monte_carlo_attainable(
            FIGURE_6D.soc(), FIGURE_6D.workload(), samples=100, seed=2
        )
        assert len(stats["bottleneck_census"]) >= 2

    def test_deterministic(self):
        a = monte_carlo_attainable(FIGURE_6D.soc(), FIGURE_6D.workload(),
                                   samples=20, seed=5)
        b = monte_carlo_attainable(FIGURE_6D.soc(), FIGURE_6D.workload(),
                                   samples=20, seed=5)
        assert a == b

    def test_bad_samples_rejected(self):
        with pytest.raises(SpecError):
            monte_carlo_attainable(FIGURE_6D.soc(), FIGURE_6D.workload(),
                                   samples=0)
