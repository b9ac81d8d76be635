"""Tests for the host-coordination extension (Sec. II-B bottleneck 3)."""

from __future__ import annotations

import pytest

from repro.core import (
    FIGURE_6D,
    CoordinationVariant,
    Workload,
    evaluate,
    evaluate_variant,
)
from repro.core.extensions import (
    COORDINATION,
    CoordinationModel,
    coordination_break_even_items,
    max_item_rate_with_coordination,
)
from repro.errors import SpecError, WorkloadError
from repro.units import GIGA


@pytest.fixture()
def soc():
    return FIGURE_6D.soc()


@pytest.fixture()
def workload():
    return FIGURE_6D.workload()


class TestCoordinationModel:
    def test_uniform_constructor_host_free(self):
        model = CoordinationModel.uniform(3, 50e-6, ops_per_item=1e9)
        assert model.dispatch_seconds == (0.0, 50e-6, 50e-6)

    def test_coordination_time_counts_active_nonhost_ips(self, workload):
        model = CoordinationModel((0.0, 100e-6), ops_per_item=1e9)
        # One active non-host IP at 100 us/item over 1 Gop items.
        assert model.coordination_time(workload) == pytest.approx(1e-13)

    def test_idle_ips_cost_nothing(self):
        model = CoordinationModel((0.0, 100e-6), ops_per_item=1e9)
        cpu_only = Workload.two_ip(f=0.0, i0=8, i1=8)
        assert model.coordination_time(cpu_only) == 0.0

    def test_mismatched_sizes_rejected(self, soc, workload):
        model = CoordinationModel((0.0,), ops_per_item=1e9)
        with pytest.raises(WorkloadError):
            evaluate_variant(soc, workload, CoordinationVariant(model))

    def test_negative_dispatch_rejected(self):
        with pytest.raises(SpecError):
            CoordinationModel((0.0, -1e-6), ops_per_item=1e9)


class TestEvaluation:
    def test_negligible_for_big_items(self, soc, workload):
        """Deep buffers amortize dispatch: the answer matches base
        Gables."""
        model = CoordinationModel((0.0, 50e-6), ops_per_item=1e12)
        result = evaluate_variant(soc, workload, CoordinationVariant(model))
        base = evaluate(soc, workload)
        assert result.attainable == pytest.approx(base.attainable, rel=1e-3)
        assert result.bottleneck != COORDINATION

    def test_binds_for_tiny_items(self, soc, workload):
        """Shallow buffers at high rates: the host's interrupt mill
        becomes the bottleneck — Section II-B's third failure mode."""
        model = CoordinationModel((0.0, 50e-6), ops_per_item=1e6)
        result = evaluate_variant(soc, workload, CoordinationVariant(model))
        base = evaluate(soc, workload)
        assert result.attainable < base.attainable / 8
        assert result.bottleneck in (COORDINATION, "CPU")
        # Rate form: 50 us/item of host dispatch plus the host's own
        # compute caps items just below the pure-dispatch 20 kHz.
        rate = max_item_rate_with_coordination(soc, workload, model)
        assert 15e3 < rate < 20e3

    def test_host_pays_for_coordination(self, soc):
        """Coordination time serializes onto the CPU: a CPU-heavy
        workload binds on the CPU *earlier* with dispatch costs."""
        workload = Workload.two_ip(f=0.5, i0=8, i1=8)
        model = CoordinationModel((0.0, 1e-6), ops_per_item=10e6)
        result = evaluate_variant(soc, workload, CoordinationVariant(model))
        host_time = result.component_times()["CPU"]
        base_host_time = evaluate(soc, workload).component_times()["CPU"]
        assert host_time > base_host_time

    def test_zero_dispatch_reduces_to_base(self, soc, workload):
        model = CoordinationModel.uniform(2, 0.0, ops_per_item=1e9)
        result = evaluate_variant(soc, workload, CoordinationVariant(model))
        base = evaluate(soc, workload)
        assert result.attainable == pytest.approx(base.attainable)
        assert COORDINATION not in result.extra_times


class TestBreakEven:
    def test_break_even_threshold(self, soc, workload):
        ops_star = coordination_break_even_items(soc, workload, (0.0, 50e-6))
        # At the threshold, coordination time equals the base bound.
        model_above = CoordinationModel((0.0, 50e-6),
                                        ops_per_item=ops_star * 10)
        model_below = CoordinationModel((0.0, 50e-6),
                                        ops_per_item=ops_star / 10)
        above = evaluate_variant(
            soc, workload, CoordinationVariant(model_above)
        )
        below = evaluate_variant(
            soc, workload, CoordinationVariant(model_below)
        )
        base = evaluate(soc, workload).attainable
        assert above.attainable > base * 0.9
        assert below.attainable < base * 0.2

    def test_fig6d_break_even_value(self, soc, workload):
        """160 Gops/s at 50 us/item: items need 8 Mops to amortize."""
        ops_star = coordination_break_even_items(soc, workload, (0.0, 50e-6))
        assert ops_star == pytest.approx(50e-6 * 160 * GIGA)

    def test_no_dispatch_no_threshold(self, soc, workload):
        assert coordination_break_even_items(soc, workload, (0.0, 0.0)) == 0.0
