"""Unit tests for the hardware/software parameter dataclasses."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro._validation import (
    FRACTION_SUM_TOL,
    require_fraction,
    require_fractions_sum_to_one,
    require_positive,
    require_same_length,
)
from repro.core import IPBlock, SoCSpec, Workload
from repro.errors import SpecError, WorkloadError


class TestIPBlock:
    def test_valid_block(self):
        ip = IPBlock("GPU", acceleration=5.0, bandwidth=15e9)
        assert ip.name == "GPU"
        assert ip.peak_performance(40e9) == 200e9

    def test_infinite_bandwidth_allowed(self):
        ip = IPBlock("wide", 2.0, math.inf)
        assert math.isinf(ip.bandwidth)

    def test_rejects_empty_name(self):
        with pytest.raises(SpecError):
            IPBlock("", 1.0, 1e9)

    @pytest.mark.parametrize("acceleration", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_acceleration(self, acceleration):
        with pytest.raises(SpecError):
            IPBlock("x", acceleration, 1e9)

    @pytest.mark.parametrize("bandwidth", [0.0, -2.0, math.nan])
    def test_rejects_bad_bandwidth(self, bandwidth):
        with pytest.raises(SpecError):
            IPBlock("x", 1.0, bandwidth)

    def test_rejects_bool_acceleration(self):
        with pytest.raises(SpecError):
            IPBlock("x", True, 1e9)

    def test_fractional_acceleration_allowed(self):
        # The paper's DSP scalar unit: A < 1 relative to the CPU.
        ip = IPBlock("DSP", acceleration=0.4, bandwidth=5.4e9)
        assert ip.peak_performance(7.5e9) == pytest.approx(3.0e9)


class TestSoCSpec:
    def test_two_ip_constructor(self):
        soc = SoCSpec.two_ip(40e9, 10e9, acceleration=5,
                             cpu_bandwidth=6e9, acc_bandwidth=15e9)
        assert soc.n_ips == 2
        assert soc.ips[0].acceleration == 1.0
        assert soc.ip_peak(1) == 200e9

    def test_ip0_must_have_unit_acceleration(self):
        with pytest.raises(SpecError, match="A0"):
            SoCSpec(40e9, 10e9, (IPBlock("cpu", 2.0, 6e9),))

    def test_rejects_duplicate_ip_names(self):
        ips = (IPBlock("a", 1.0, 1e9), IPBlock("a", 2.0, 1e9))
        with pytest.raises(SpecError, match="unique"):
            SoCSpec(1e9, 1e9, ips)

    def test_rejects_empty_ips(self):
        with pytest.raises(SpecError):
            SoCSpec(1e9, 1e9, ())

    def test_rejects_non_ipblock(self):
        with pytest.raises(SpecError):
            SoCSpec(1e9, 1e9, ("not-an-ip",))

    def test_ip_index_lookup(self):
        soc = SoCSpec.two_ip(1e9, 1e9, 2, 1e9, 1e9,
                             cpu_name="CPU", acc_name="GPU")
        assert soc.ip_index("GPU") == 1
        with pytest.raises(SpecError):
            soc.ip_index("DSP")

    def test_with_memory_bandwidth_copies(self):
        soc = SoCSpec.two_ip(1e9, 1e9, 2, 1e9, 1e9)
        changed = soc.with_memory_bandwidth(5e9)
        assert changed.memory_bandwidth == 5e9
        assert soc.memory_bandwidth == 1e9  # original untouched

    def test_with_ip_replaces_fields(self):
        soc = SoCSpec.two_ip(1e9, 1e9, 2, 1e9, 1e9)
        changed = soc.with_ip(1, bandwidth=9e9)
        assert changed.ips[1].bandwidth == 9e9
        assert soc.ips[1].bandwidth == 1e9

    def test_with_ip_out_of_range(self):
        soc = SoCSpec.two_ip(1e9, 1e9, 2, 1e9, 1e9)
        with pytest.raises(SpecError):
            soc.with_ip(5, bandwidth=1e9)

    def test_list_ips_coerced_to_tuple(self):
        soc = SoCSpec(1e9, 1e9, [IPBlock("cpu", 1.0, 1e9)])
        assert isinstance(soc.ips, tuple)

    def test_ip_names(self):
        soc = SoCSpec.two_ip(1e9, 1e9, 2, 1e9, 1e9,
                             cpu_name="A", acc_name="B")
        assert soc.ip_names == ("A", "B")

    def test_rejects_an_ip_named_memory(self):
        # Results key component times by name: such an IP's time would
        # be read as DRAM's, and evaluate() would report 2e10 (cpu)
        # where the model gives ~2e9.
        ips = (IPBlock("cpu", 1.0, 100e9), IPBlock("memory", 0.1, 100e9))
        with pytest.raises(SpecError, match="'memory' is reserved"):
            SoCSpec(10e9, 5e9, ips)


class TestWorkload:
    def test_two_ip_constructor(self):
        workload = Workload.two_ip(f=0.75, i0=8, i1=0.1)
        assert workload.fractions == (0.25, 0.75)
        assert workload.intensities == (8.0, 0.1)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(WorkloadError, match="sum"):
            Workload(fractions=(0.5, 0.4), intensities=(1, 1))

    def test_fractions_must_be_nonnegative(self):
        with pytest.raises(WorkloadError):
            Workload(fractions=(1.5, -0.5), intensities=(1, 1))

    def test_intensities_must_be_positive(self):
        with pytest.raises(WorkloadError):
            Workload(fractions=(1.0,), intensities=(0.0,))

    def test_infinite_intensity_allowed(self):
        workload = Workload(fractions=(1.0,), intensities=(math.inf,))
        assert math.isinf(workload.average_intensity())

    def test_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(fractions=(1.0,), intensities=(1.0, 2.0))

    def test_average_intensity_weighted_harmonic(self):
        # Paper appendix, Fig 6b: Iavg = 1/((0.25/8) + (0.75/0.1)).
        workload = Workload.two_ip(f=0.75, i0=8, i1=0.1)
        assert workload.average_intensity() == pytest.approx(0.13278, rel=1e-4)

    def test_average_intensity_single_ip(self):
        workload = Workload.two_ip(f=0.0, i0=8, i1=0.1)
        assert workload.average_intensity() == pytest.approx(8.0)

    def test_active_ips(self):
        workload = Workload(fractions=(0.5, 0.0, 0.5),
                            intensities=(1, 1, 1))
        assert workload.active_ips == (0, 2)

    def test_with_fraction_at_redistributes_proportionally(self):
        workload = Workload(fractions=(0.2, 0.3, 0.5), intensities=(1, 1, 1))
        moved = workload.with_fraction_at(2, 0.0)
        assert moved.fractions[2] == 0.0
        assert moved.fractions[0] == pytest.approx(0.4)
        assert moved.fractions[1] == pytest.approx(0.6)

    def test_with_fraction_at_all_work(self):
        workload = Workload(fractions=(0.2, 0.8), intensities=(1, 1))
        moved = workload.with_fraction_at(1, 1.0)
        assert moved.fractions == (0.0, 1.0)

    def test_with_fraction_at_from_zero_others(self):
        workload = Workload(fractions=(0.0, 1.0), intensities=(1, 1))
        moved = workload.with_fraction_at(1, 0.25)
        assert moved.fractions[0] == pytest.approx(0.75)
        assert moved.fractions[1] == pytest.approx(0.25)

    def test_with_fraction_at_rejects_out_of_range(self):
        workload = Workload.two_ip(0.5, 1, 1)
        with pytest.raises(WorkloadError):
            workload.with_fraction_at(5, 0.5)
        with pytest.raises(WorkloadError):
            workload.with_fraction_at(1, 1.5)

    def test_single_ip_constructor(self):
        workload = Workload.single_ip(4, 2, intensity=16.0)
        assert workload.fractions == (0, 0, 1.0, 0)
        assert workload.intensities[2] == 16.0

    def test_single_ip_out_of_range(self):
        with pytest.raises(WorkloadError):
            Workload.single_ip(2, 3, intensity=1.0)

    def test_two_ip_rejects_bad_f(self):
        with pytest.raises(WorkloadError):
            Workload.two_ip(f=1.2, i0=1, i1=1)

    def test_fractions_coerced_to_float_tuple(self):
        workload = Workload(fractions=[1], intensities=[2])
        assert workload.fractions == (1.0,)
        assert isinstance(workload.fractions, tuple)


def per_entry_fractions(fractions, name) -> None:
    """The fraction check made entry by entry through
    ``require_fraction``: the reference for
    ``require_fractions_sum_to_one``'s verdicts and errors."""
    for index, fraction in enumerate(fractions):
        require_fraction(fraction, f"{name}[{index}]", WorkloadError)
    total = math.fsum(fractions)
    if abs(total - 1.0) > FRACTION_SUM_TOL:
        raise WorkloadError(f"{name} must sum to 1, got sum {total!r}")


def per_entry_check(fractions, intensities) -> None:
    """The ``Workload`` checks made entry by entry, with every entry
    through the full helper: the reference its verdicts and errors must
    match."""

    def as_floats(values, name):
        try:
            return tuple(float(v) for v in values)
        except (TypeError, ValueError) as err:
            raise WorkloadError(
                f"{name} must be an iterable of numbers: {err}"
            ) from err

    fractions = as_floats(fractions, "fractions")
    intensities = as_floats(intensities, "intensities")
    require_same_length(
        fractions, intensities, "fractions", "intensities", WorkloadError
    )
    if not fractions:
        raise WorkloadError("Workload needs at least one IP entry")
    per_entry_fractions(fractions, "fractions")
    for index, intensity in enumerate(intensities):
        require_positive(intensity, f"intensities[{index}]", WorkloadError)


#: Edge floats (as in ``tests/test_sweep_path.py``).
EDGES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.0, math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0), -1.0, 1.7976931348623157e308,
    -1.7976931348623157e308,
)
#: Fraction sums on and one ulp either side of ``1 +- FRACTION_SUM_TOL``.
SUM_TARGETS = tuple(
    math.nextafter(bound, bound + step) if step else bound
    for bound in (1.0 + FRACTION_SUM_TOL, 1.0 - FRACTION_SUM_TOL)
    for step in (-1.0, 0.0, 1.0)
)
ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    st.sampled_from(["0.5", "1", "nan", "-inf", " 0.25 "]),
    st.none(),
)
#: Ways to spread a target sum over entries: ``target - 0.5`` is exact
#: near one, and ``-5e-324`` leaves the sum as it is but is out of range.
SHAPES = (
    lambda target: (target,),
    lambda target: (target - 0.5, 0.5),
    lambda target: (target - 0.5, 0.5, -5e-324),
)
#: Whether ``Workload`` accepts each shape of each of ``SUM_TARGETS``.
SHAPE_VERDICTS = (
    (False, False, False, False, True, True),
    (True, False, False, False, True, True),
    (False,) * 6,
)
#: Vectors summing exactly to a target, padded with zeros.
NEAR_ONE = st.builds(
    lambda target, shape, zeros: shape(target) + (0.0,) * zeros,
    st.sampled_from(SUM_TARGETS),
    st.sampled_from(SHAPES),
    st.integers(0, 6),
)


def _outcome(check, fractions, intensities):
    try:
        check(fractions, intensities)
    except Exception as err:  # compared by class and message
        return type(err), str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(
    fractions=st.one_of(st.lists(ENTRIES, max_size=9), NEAR_ONE),
    intensities=st.lists(ENTRIES, max_size=9),
    same_length=st.booleans(),
)
def test_workload_verdicts_match_the_per_entry_checks(
    fractions, intensities, same_length
):
    if same_length:  # so that the later checks are reached
        intensities = (intensities + [1.0] * 9)[:len(fractions)]
    assert _outcome(Workload, fractions, intensities) == _outcome(
        per_entry_check, fractions, intensities
    )


@settings(max_examples=400, deadline=None)
@given(fractions=st.one_of(st.lists(ENTRIES, max_size=9), NEAR_ONE))
def test_fraction_sum_verdicts_match_the_per_entry_checks(fractions):
    # Uncoerced entries, as the phase and multi-Amdahl checks pass them.
    def check(values, _):
        require_fractions_sum_to_one(values, "fractions")

    def reference(values, _):
        per_entry_fractions(values, "fractions")

    assert _outcome(check, fractions, None) == _outcome(
        reference, fractions, None
    )


@pytest.mark.parametrize("shape", range(len(SHAPES)))
@pytest.mark.parametrize("target", range(len(SUM_TARGETS)))
def test_sum_boundary_verdicts(target, shape):
    fractions = SHAPES[shape](SUM_TARGETS[target])
    intensities = (1.0,) * len(fractions)
    outcome = _outcome(Workload, fractions, intensities)
    assert outcome == _outcome(per_entry_check, fractions, intensities)
    assert (outcome is None) is SHAPE_VERDICTS[shape][target]
