"""One sweep path: every ``on_error`` mode runs on the batch engine.

A swept value is either rejected, with the error of the scalar
constructor it feeds, or evaluated in one batch with the other accepted
values.  So the surviving points of a ``"record"``/``"skip"`` sweep are
bitwise equal to a ``"raise"`` sweep over the accepted values, for every
variant kind a driver takes and on both engines, and each rejected
value keeps the record the scalar constructor gives it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import IPBlock, IPTerm, SoCSpec, Workload, evaluate
from repro.core import batch as core_batch
from repro.core.extensions.phases import Phase, PhasedUsecase
from repro.core.variants import (
    VARIANT_CHOICES,
    PhasedVariant,
    evaluate_variant,
    evaluate_variant_batch,
    variant_from_config,
)
from repro.errors import ReproError, SpecError, WorkloadError
from repro.explore import (
    GridCell,
    SweepPoint,
    analytic_mixing_grid,
    sweep_acceleration,
    sweep_fraction,
    sweep_intensity,
    sweep_ip_bandwidth,
    sweep_memory_bandwidth,
)
from repro.explore.sweep import _finite_positive, _in_unit_range, _positive
from repro.obs.metrics import counter

NAN, INF = math.nan, math.inf

#: Three IPs, so the batch's numpy byte sum and the scalar ``math.fsum``
#: differ in the last bit at some points: a tolerant sweep that fell
#: back to scalar evaluation would not match the batch.
SOC = SoCSpec(
    peak_perf=40e9,
    memory_bandwidth=12e9,
    ips=(
        IPBlock("CPU", 1.0, 8e9),
        IPBlock("GPU", 6.0, 20e9),
        IPBlock("DSP", 0.5, 5e9),
    ),
    name="three-ip",
)
WORKLOAD = Workload((0.5, 0.3, 0.2), (6.0, 2.0, 10.0))
PHASES = {"phases": [
    {"work": 0.6, "fractions": [0.5, 0.3, 0.2], "intensities": [6, 2, 10]},
    {"work": 0.4, "fractions": [0.1, 0.6, 0.3], "intensities": [1, 8, 4]},
]}

#: driver -> (sweep call, accepted values, rejected values,
#: takes workload-free variants)
DRIVERS = {
    "f": (
        lambda values, **kw: sweep_fraction(SOC, WORKLOAD, 1, values, **kw),
        [k / 40 for k in range(41)],
        [NAN, INF, -INF, -1.0, 1.5],
        False,
    ),
    "I": (
        lambda values, **kw: sweep_intensity(SOC, WORKLOAD, 1, values, **kw),
        [2.0 ** (k / 4) for k in range(-16, 24)] + [INF],
        [NAN, -INF, 0.0, -1.0],
        False,
    ),
    "Bpeak": (
        lambda values, **kw: sweep_memory_bandwidth(
            SOC, WORKLOAD, values, **kw
        ),
        [1e9 * (1 + k / 3) for k in range(40)],
        [NAN, INF, -INF, 0.0, -1.0],
        True,
    ),
    "Bi": (
        lambda values, **kw: sweep_ip_bandwidth(
            SOC, WORKLOAD, 1, values, **kw
        ),
        [1e9 * (1 + k / 3) for k in range(40)] + [INF],
        [NAN, -INF, 0.0, -1.0],
        True,
    ),
    "Ai": (
        lambda values, **kw: sweep_acceleration(
            SOC, WORKLOAD, 1, values, **kw
        ),
        [0.25 * (1 + k) for k in range(40)],
        [NAN, INF, -INF, 0.0, -1.0],
        True,
    ),
}

CASES = [
    (driver, kind)
    for driver, (_, _, _, workload_free) in DRIVERS.items()
    for kind in (None,) + VARIANT_CHOICES
    if workload_free or kind != "phases"
]


def _points(series) -> tuple:
    return _bits(series.points)


def _bits(points) -> tuple:
    return tuple(
        (p.value.hex(), p.attainable.hex(), p.bottleneck) for p in points
    )


def eager_points(values, batch) -> tuple:
    """One keyword-built ``SweepPoint`` per evaluated row of the batch
    (code >= 0): the reference the drivers' positional build must
    reproduce."""
    names = batch.component_names
    return tuple(
        SweepPoint(value=value, attainable=attainable, bottleneck=names[code])
        for value, attainable, code in zip(
            values,
            batch.attainables.tolist(),
            batch.bottleneck_codes.tolist(),
        )
        if code >= 0
    )


def _interleave(accepted: list, rejected: list) -> list:
    """The accepted values with one rejected value every 7th slot."""
    mixed = list(accepted)
    for slot, value in enumerate(rejected):
        mixed.insert(3 + 7 * slot, value)
    return mixed


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize(("driver", "kind"), CASES)
def test_tolerant_survivors_equal_raise_over_accepted(driver, kind, engine,
                                                      batches):
    call, accepted, rejected, _ = DRIVERS[driver]
    variant = (
        None if kind is None
        else variant_from_config(
            kind, SOC, PHASES if kind == "phases" else None
        )
    )
    mixed = _interleave(accepted, rejected)
    reference = call(accepted, variant=variant, engine=engine)
    recorded = call(mixed, on_error="record", variant=variant, engine=engine)
    skipped = call(mixed, on_error="skip", variant=variant, engine=engine)
    # Each series' points are the reference build from its own batch.
    assert len(batches) == 3
    for series, batch in zip((reference, recorded, skipped), batches):
        assert _points(series) == _bits(eager_points(accepted, batch))
        assert len(series) == len(series.points)
        assert series.bottlenecks() == tuple(
            p.bottleneck for p in series.points
        )
    assert len(reference.points) == len(accepted)
    assert _points(recorded) == _points(reference)
    assert _points(skipped) == _points(reference)
    assert [repr(f.coords[0]) for f in recorded.errors] == [
        repr(value) for value in rejected
    ]
    assert skipped.errors == ()


#: The parent's scalar loop gave exactly these records; the one path
#: keeps them: (coordinate, code, message) in value order.
ERROR_TABLE = {
    "f": [
        ("nan", "WORKLOAD_INVALID", "fraction must lie in [0, 1], got nan"),
        ("inf", "WORKLOAD_INVALID", "fraction must lie in [0, 1], got inf"),
        ("-inf", "WORKLOAD_INVALID",
         "fraction must lie in [0, 1], got -inf"),
        ("-1.0", "WORKLOAD_INVALID",
         "fraction must lie in [0, 1], got -1.0"),
        ("1.5", "WORKLOAD_INVALID", "fraction must lie in [0, 1], got 1.5"),
    ],
    "I": [
        ("nan", "WORKLOAD_INVALID",
         "intensities[1] must be positive, got nan"),
        ("-inf", "WORKLOAD_INVALID",
         "intensities[1] must be positive, got -inf"),
        ("0.0", "WORKLOAD_INVALID",
         "intensities[1] must be positive, got 0.0"),
        ("-1.0", "WORKLOAD_INVALID",
         "intensities[1] must be positive, got -1.0"),
    ],
    "Bpeak": [
        (repr(value), "SPEC_INVALID",
         "memory_bandwidth (Bpeak) must be a finite positive number, "
         f"got {value!r}")
        for value in (NAN, INF, -INF, 0.0, -1.0)
    ],
    "Bi": [
        (repr(value), "SPEC_INVALID",
         f"IP 'GPU' bandwidth must be positive, got {value!r}")
        for value in (NAN, -INF, 0.0, -1.0)
    ],
    "Ai": [
        (repr(value), "SPEC_INVALID",
         f"IP 'GPU' acceleration must be a finite positive number, "
         f"got {value!r}")
        for value in (NAN, INF, -INF, 0.0, -1.0)
    ],
}
SURVIVORS = {
    "f": ["0.0"], "I": ["inf", "1.5"], "Bpeak": ["1.5"],
    "Bi": ["inf", "1.5"], "Ai": ["1.5"],
}


@pytest.mark.parametrize("driver", DRIVERS)
def test_error_records_unchanged(driver):
    call = DRIVERS[driver][0]
    series = call([NAN, INF, -INF, 0.0, -1.0, 1.5], on_error="record")
    assert [
        (repr(f.coords[0]), f.code, f.message) for f in series.errors
    ] == ERROR_TABLE[driver]
    assert [repr(p.value) for p in series.points] == SURVIVORS[driver]


@pytest.mark.parametrize("driver", DRIVERS)
def test_raise_reports_the_first_rejected_value(driver):
    call, accepted, rejected, _ = DRIVERS[driver]
    first = ERROR_TABLE[driver][0]
    with pytest.raises(ReproError) as excinfo:
        call(_interleave(accepted, rejected))
    assert (excinfo.value.code, str(excinfo.value)) == first[1:]


#: driver -> (its predicate, the scalar constructor it stands for)
PREDICATES = {
    "f": (_in_unit_range, lambda v: WORKLOAD.with_fraction_at(1, v)),
    "I": (
        _positive,
        lambda v: replace(WORKLOAD, intensities=(6.0, v, 10.0)),
    ),
    "Bpeak": (_finite_positive, SOC.with_memory_bandwidth),
    "Bi": (_positive, lambda v: SOC.with_ip(1, bandwidth=v)),
    "Ai": (_finite_positive, lambda v: SOC.with_ip(1, acceleration=v)),
    # The batch engine's elementwise validation rules.
    "batch fractions": (
        core_batch._in_unit_range,
        lambda v: Workload((v, 1.0 - v), (1.0, 1.0)),
    ),
    "batch intensities": (
        core_batch._positive,
        lambda v: replace(WORKLOAD, intensities=(6.0, v, 10.0)),
    ),
    "batch Bpeak": (core_batch._finite_positive, SOC.with_memory_bandwidth),
    "batch Bi": (core_batch._positive, lambda v: SOC.with_ip(1, bandwidth=v)),
}
EDGES = (
    NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), -1.0,
    1.7976931348623157e308, -1.7976931348623157e308,
)


@pytest.mark.parametrize("driver", PREDICATES)
@given(value=st.one_of(st.sampled_from(EDGES), st.floats()))
def test_predicate_agrees_with_constructor(driver, value):
    accepts, build = PREDICATES[driver]
    try:
        build(value)
    except ReproError:
        constructed = False
    else:
        constructed = True
    assert bool(accepts(np.array([value]))[0]) is constructed


#: record -> (its field order, one record's fields, that record's repr)
RECORDS = {
    SweepPoint: (
        ("value", "attainable", "bottleneck"),
        (0.5, 2.0, "memory"),
        "SweepPoint(value=0.5, attainable=2.0, bottleneck='memory')",
    ),
    GridCell: (
        ("x", "y", "attainable", "bottleneck"),
        (0.25, 16.0, 3.0, "GPU"),
        "GridCell(x=0.25, y=16.0, attainable=3.0, bottleneck='GPU')",
    ),
    IPTerm: (
        ("index", "name", "fraction", "intensity", "compute_time",
         "data_bytes", "transfer_time", "time", "perf_bound", "limiter"),
        (1, "GPU", 0.0, INF, 0.0, 0.0, 0.0, 0.0, None, "idle"),
        "IPTerm(index=1, name='GPU', fraction=0.0, intensity=inf, "
        "compute_time=0.0, data_bytes=0.0, transfer_time=0.0, time=0.0, "
        "perf_bound=None, limiter='idle')",
    ),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_contract(record):
    fields, values, text = RECORDS[record]
    assert record._fields == fields
    built = record(**dict(zip(fields, values)))
    assert built == record(*values)
    assert repr(built) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 1.0)


def test_each_path_makes_its_record_type():
    series = sweep_fraction(SOC, WORKLOAD, 1, [0.0, 0.5, 1.0])
    grid = analytic_mixing_grid(SOC)
    batch = evaluate_variant_batch(
        SOC, variant_from_config("base", SOC), [WORKLOAD.fractions],
        [WORKLOAD.intensities],
    )
    assert {type(point) for point in series.points} == {SweepPoint}
    assert {type(cell) for cell in grid.cells} == {GridCell}
    for result in (evaluate(SOC, WORKLOAD), batch.result(0)):
        assert {type(term) for term in result.ip_terms} == {IPTerm}


class TestBatchVerdicts:
    """The batch's verdicts on values the scalar constructors accept."""

    #: Finite, but ``Ai * Ppeak`` overflows to an infinite peak.
    HUGE = 1e300

    def test_overflowing_acceleration_is_evaluated(self):
        """The scalar model evaluates an IP whose peak overflows to inf
        (its compute time is 0), and so does the batch."""
        values = [1.0, self.HUGE, 2.0]
        scalar = evaluate(SOC.with_ip(1, acceleration=self.HUGE), WORKLOAD)
        for engine in ("interpreted", "compiled"):
            raised = sweep_acceleration(
                SOC, WORKLOAD, 1, values, engine=engine
            )
            recorded = sweep_acceleration(
                SOC, WORKLOAD, 1, values, on_error="record", engine=engine
            )
            assert recorded.errors == ()
            assert raised.values() == tuple(values)
            assert _points(recorded) == _points(raised)
            point = raised.points[1]
            # Three IPs: the batch's contract is 1e-12 relative.
            assert point.attainable == pytest.approx(
                scalar.attainable, rel=1e-12
            )
            assert point.bottleneck == scalar.bottleneck

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_soc_with_an_overflowed_peak_sweeps(self, engine):
        soc = SoCSpec(
            peak_perf=1e10,
            memory_bandwidth=10e9,
            ips=(IPBlock("CPU", 1.0, 10e9), IPBlock("NPU", self.HUGE, 10e9)),
        )
        workload = Workload((0.5, 0.5), (4.0, 4.0))
        assert evaluate(soc, workload).attainable == 2e10
        series = sweep_memory_bandwidth(soc, workload, [1e10], engine=engine)
        assert series.attainables() == (2e10,)
        assert series.bottlenecks() == ("CPU",)

    def test_phased_batches_raise_in_tolerant_modes(self):
        """A phased batch has no per-row verdicts, so it refuses the
        tolerant modes; a tolerant phased sweep runs it under "raise"
        and evaluates the overflowed peak with the others."""
        variant = variant_from_config("phases", SOC, PHASES)
        for on_error in ("record", "skip"):
            with pytest.raises(SpecError, match="only on_error='raise'"):
                evaluate_variant_batch(SOC, variant, on_error=on_error)
        values = [1.0, self.HUGE]
        recorded = sweep_acceleration(
            SOC, WORKLOAD, 1, values, on_error="record", variant=variant
        )
        assert recorded.errors == ()
        assert _points(recorded) == _points(
            sweep_acceleration(SOC, WORKLOAD, 1, values, variant=variant)
        )
        scalar = evaluate_variant(
            SOC.with_ip(1, acceleration=self.HUGE), None, variant
        )
        assert recorded.points[1].attainable == pytest.approx(
            scalar.attainable, rel=1e-12
        )

    def test_all_rejected_makes_no_batch_call(self):
        batches = counter("explore.sweep.batches")
        series = sweep_fraction(
            SOC, WORKLOAD, 1, [-1.0, 2.0], on_error="record"
        )
        assert series.points == ()
        assert len(series) == 0
        assert [f.coords for f in series.errors] == [(-1.0,), (2.0,)]
        assert batches.value == 0


@pytest.mark.parametrize("on_error", ["raise", "skip", "record"])
def test_fraction_sweep_checks_ip_index_up_front(on_error):
    with pytest.raises(WorkloadError, match="IP index 7 out of range"):
        sweep_fraction(SOC, WORKLOAD, 7, [0.0, 0.5], on_error=on_error)


#: Two phases under the default name, so both decode to ``"phase"``:
#: the DSP-bound one binds above ~2 GB/s, the DRAM-bound one below.
SAME_NAME_PHASES = PhasedVariant(PhasedUsecase((
    Phase(0.5, Workload((0.0, 0.0, 1.0), (1.0, 1.0, 1e4))),
    Phase(0.5, Workload((0.0, 1.0, 0.0), (1.0, 10.0, 1.0))),
)))


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_transitions_compare_names_not_codes(engine, batches):
    values = [1e9 * 2.0 ** (k / 2 - 2) for k in range(9)]
    series = sweep_memory_bandwidth(
        SOC, WORKLOAD, values, variant=SAME_NAME_PHASES, engine=engine
    )
    (batch,) = batches
    assert batch.bottleneck_codes.tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0]
    assert series.bottlenecks() == ("phase",) * 9
    assert series.bottleneck_transitions() == ()


def test_series_survives_a_later_compiled_sweep():
    """A series' points are its own, unchanged by a second same-shape
    compiled sweep."""
    values = [k / 99 for k in range(100)]
    first = sweep_fraction(SOC, WORKLOAD, 1, values, engine="compiled")
    before = _points(first)
    other = replace(WORKLOAD, intensities=(0.5, 64.0, 3.0))
    second = sweep_fraction(SOC, other, 1, values, engine="compiled")
    assert _points(second) != before
    assert _points(first) == before


@pytest.mark.parametrize("on_error", ["skip", "record"])
@pytest.mark.parametrize("engine", ["compiled", "interpreted"])
def test_tolerant_grid_runs_on_every_engine(on_error, engine):
    def grid(engine):
        return analytic_mixing_grid(
            SOC, fractions=(0.0, 0.5, 1.0), intensities=(1.0, NAN, 16.0),
            on_error=on_error, engine=engine,
        )

    got, want = grid(engine), grid("auto")
    assert got.cells == want.cells
    assert len(got.cells) == 6
    assert [(repr(f.coords), f.code, f.message) for f in got.errors] == [
        (repr(f.coords), f.code, f.message) for f in want.errors
    ]
    assert len(got.errors) == (3 if on_error == "record" else 0)
