"""Tests for the power/energy extension (TDP-constrained Gables)."""

from __future__ import annotations

import pytest

from repro.core import FIGURE_6D, Workload, evaluate
from repro.errors import EvaluationError, SpecError, WorkloadError
from repro.power import (
    EnergyModel,
    IPEnergy,
    battery_life_hours,
    dynamic_energy_per_op,
    evaluate_power_constrained,
    max_tdp_needed,
    offload_energy_ratio,
    power_roofline_curve,
    usecase_energy,
)
from repro.units import GIGA


@pytest.fixture()
def soc():
    return FIGURE_6D.soc()


@pytest.fixture()
def workload():
    return FIGURE_6D.workload()


@pytest.fixture()
def model(soc):
    return EnergyModel.mobile_default(soc)


class TestEnergyModel:
    def test_mobile_default_accelerators_more_efficient(self, soc, model):
        cpu = model.ip_energy[0].joules_per_op
        gpu = model.ip_energy[1].joules_per_op
        assert gpu < cpu / 5  # "order of magnitude" efficiency story

    def test_mismatched_ip_count_rejected(self, soc, workload):
        small = EnergyModel(
            ip_energy=(IPEnergy(1e-11),), dram_joules_per_byte=1e-10
        )
        with pytest.raises(WorkloadError):
            usecase_energy(soc, workload, small)

    def test_bad_energy_values_rejected(self):
        with pytest.raises(SpecError):
            IPEnergy(joules_per_op=0.0)
        with pytest.raises(SpecError):
            EnergyModel(ip_energy=(), dram_joules_per_byte=1e-10)


class TestUsecaseEnergy:
    def test_components_sum(self, soc, workload, model):
        energy = usecase_energy(soc, workload, model)
        assert energy.total_joules == pytest.approx(
            energy.compute_joules + energy.dram_joules + energy.static_joules
        )
        assert energy.average_power == pytest.approx(
            energy.total_joules / energy.runtime
        )

    def test_higher_intensity_cuts_dram_energy(self, soc, model):
        low = usecase_energy(soc, Workload.two_ip(0.75, 8, 0.5), model)
        high = usecase_energy(soc, Workload.two_ip(0.75, 8, 8), model)
        assert high.dram_joules < low.dram_joules
        assert high.compute_joules == pytest.approx(low.compute_joules)

    def test_offload_saves_energy(self, soc, workload, model):
        """Offloading to a 5x accelerator at equal intensity cuts
        dynamic energy — the accelerator-efficiency story."""
        assert offload_energy_ratio(soc, workload, model) < 1.0

    def test_race_to_idle(self, soc, workload, model):
        """A faster design leaks less static energy per op."""
        slow = soc.with_memory_bandwidth(soc.memory_bandwidth / 10)
        fast_energy = usecase_energy(soc, workload, model)
        slow_energy = usecase_energy(slow, workload, model)
        assert slow_energy.static_joules > fast_energy.static_joules


class TestBatteryLife:
    def test_fixed_rate_draws_less(self, soc, workload, model):
        flat_out = battery_life_hours(soc, workload, model, 10.0)
        throttled = battery_life_hours(
            soc, workload, model, 10.0, ops_per_second=10 * GIGA
        )
        assert throttled > flat_out

    def test_rate_above_bound_rejected(self, soc, workload, model):
        with pytest.raises(WorkloadError):
            battery_life_hours(
                soc, workload, model, 10.0, ops_per_second=1e15
            )

    def test_bigger_battery_lasts_longer(self, soc, workload, model):
        small = battery_life_hours(soc, workload, model, 5.0)
        large = battery_life_hours(soc, workload, model, 15.0)
        assert large == pytest.approx(3 * small)


class TestTDP:
    def test_power_binds_balanced_design(self, soc, workload, model):
        """The Fig. 6d '160 Gops/s balanced design' cannot sustain its
        own bound inside a 3 W phone — the paper's power motivation
        made quantitative."""
        result = evaluate_power_constrained(soc, workload, model, 3.0)
        assert result.power_limited
        assert result.attainable < evaluate(soc, workload).attainable
        assert result.sustained_fraction() < 1.0

    def test_large_tdp_leaves_gables_unchanged(self, soc, workload, model):
        needed = max_tdp_needed(soc, workload, model)
        result = evaluate_power_constrained(
            soc, workload, model, needed * 1.01
        )
        assert not result.power_limited
        assert result.attainable == pytest.approx(
            evaluate(soc, workload).attainable
        )

    def test_max_tdp_needed_is_the_threshold(self, soc, workload, model):
        needed = max_tdp_needed(soc, workload, model)
        below = evaluate_power_constrained(
            soc, workload, model, needed * 0.9
        )
        assert below.power_limited

    def test_static_power_exceeding_tdp_rejected(self, soc, workload):
        hungry = EnergyModel(
            ip_energy=tuple(
                IPEnergy(1e-11, idle_watts=5.0) for _ in range(2)
            ),
            dram_joules_per_byte=1e-10,
        )
        with pytest.raises(EvaluationError, match="static"):
            evaluate_power_constrained(soc, workload, hungry, 3.0)

    def test_dynamic_energy_per_op_positive(self, soc, workload, model):
        assert dynamic_energy_per_op(soc, workload, model) > 0

    def test_power_bound_monotone_in_tdp(self, soc, workload, model):
        low = evaluate_power_constrained(soc, workload, model, 2.0)
        high = evaluate_power_constrained(soc, workload, model, 4.0)
        assert high.power_bound > low.power_bound


class TestPowerRoofline:
    def test_curve_asymptotes(self, soc, workload, model):
        curve = power_roofline_curve(soc, workload, model, 3.0)
        # High intensity: bounded by compute energy only.
        static = sum(entry.idle_watts for entry in model.ip_energy)
        compute_energy = sum(
            workload.fractions[i] * model.ip_energy[i].joules_per_op
            for i in range(soc.n_ips)
        )
        assert curve(1e9) == pytest.approx(
            (3.0 - static) / compute_energy, rel=1e-3
        )

    def test_intensity_is_a_power_lever(self, soc, workload, model):
        """More reuse raises the power-bounded performance."""
        curve = power_roofline_curve(soc, workload, model, 3.0)
        assert curve(16) > curve(1)

    def test_no_headroom_rejected(self, soc, workload):
        hot = EnergyModel(
            ip_energy=tuple(IPEnergy(1e-11, idle_watts=2.0) for _ in range(2)),
            dram_joules_per_byte=1e-10,
        )
        with pytest.raises(EvaluationError):
            power_roofline_curve(soc, workload, hot, 3.0)
