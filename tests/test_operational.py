"""Tests for operational analysis (Lazowska asymptotic bounds)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ServiceDemands,
    gables_demands,
    response_time_bound,
    saturation_population,
    throughput_bound,
    utilization,
)
from repro.core import FIGURE_6B, FIGURE_6D, evaluate
from repro.errors import SpecError


@pytest.fixture()
def demands():
    return ServiceDemands(demands=(0.2, 0.5, 0.3),
                          names=("cpu", "disk", "net"))


class TestServiceDemands:
    def test_aggregates(self, demands):
        assert demands.total == pytest.approx(1.0)
        assert demands.max_demand == 0.5
        assert demands.bottleneck == "disk"

    def test_zero_demand_center_allowed(self):
        d = ServiceDemands(demands=(0.0, 1.0))
        assert d.max_demand == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(SpecError):
            ServiceDemands(demands=(0.0, 0.0))

    def test_names_default(self):
        d = ServiceDemands(demands=(1.0, 2.0))
        assert d.names == ("center0", "center1")

    def test_name_mismatch_rejected(self):
        with pytest.raises(SpecError):
            ServiceDemands(demands=(1.0,), names=("a", "b"))


class TestLaws:
    def test_utilization_law(self, demands):
        u = utilization(demands, throughput=1.5)
        assert u == {"cpu": pytest.approx(0.3),
                     "disk": pytest.approx(0.75),
                     "net": pytest.approx(0.45)}

    def test_impossible_throughput_rejected(self, demands):
        with pytest.raises(SpecError, match="utilization"):
            utilization(demands, throughput=3.0)

    def test_light_load_linear(self, demands):
        assert throughput_bound(demands, 0.5) == pytest.approx(0.5)

    def test_heavy_load_bottleneck(self, demands):
        assert throughput_bound(demands, 100) == pytest.approx(2.0)

    def test_think_time_stretches_light_load(self, demands):
        with_think = throughput_bound(demands, 1, think_time=1.0)
        assert with_think == pytest.approx(0.5)

    def test_response_time_bounds(self, demands):
        assert response_time_bound(demands, 1) == pytest.approx(1.0)
        assert response_time_bound(demands, 10) == pytest.approx(5.0)

    def test_saturation_population(self, demands):
        n_star = saturation_population(demands)
        assert n_star == pytest.approx(2.0)
        # At N*, both asymptotes give the same throughput.
        assert throughput_bound(demands, n_star) == pytest.approx(2.0)

    def test_throughput_monotone_in_population(self, demands):
        values = [throughput_bound(demands, n) for n in (0.5, 1, 2, 4, 8)]
        assert values == sorted(values)


class TestGablesBridge:
    def test_infinite_population_is_concurrent_gables(self):
        """N -> inf recovers Equation 11 exactly."""
        soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
        demands = gables_demands(soc, workload)
        heavy = throughput_bound(demands, 1e12)
        assert heavy == pytest.approx(
            evaluate(soc, workload).attainable, rel=1e-9
        )

    def test_single_item_is_sum_of_component_times(self):
        """N = 1: the item visits every component serially."""
        soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()
        demands = gables_demands(soc, workload)
        single = throughput_bound(demands, 1)
        assert single == pytest.approx(1.0 / demands.total)
        assert single < evaluate(soc, workload).attainable

    def test_pipeline_depth_worth_buffering(self):
        """N* for the Fig. 6d usecase: with three equal component
        times, three items in flight saturate the bottleneck."""
        soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()
        demands = gables_demands(soc, workload)
        assert saturation_population(demands) == pytest.approx(3.0)

    def test_bottleneck_names_agree(self):
        soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
        demands = gables_demands(soc, workload)
        assert demands.bottleneck == evaluate(soc, workload).bottleneck
