"""Provenance audit narratives across all seven model variants.

Every variant funnels through :func:`evaluate_variant`, and
:func:`~repro.obs.provenance.from_result` explains its result as an
:class:`~repro.obs.provenance.ExplainRecord`.  These tests pin, per
variant kind, which extension components land in ``extra_times``,
that the narrative walks through them, and that the independent
series-composition :meth:`audit` agrees wherever its max-combine
premise holds (serialized sums times, so the audit is *expected* to
dissent there — that asymmetry is part of the contract).
"""

from __future__ import annotations

import pytest

from repro.core import FIGURE_6B, VARIANT_CHOICES, evaluate_variant
from repro.core.variants import variant_from_config
from repro.obs.provenance import from_result

PHASES_CONFIG = {
    "phases": [
        {"name": "capture", "work": 0.4,
         "fractions": [0.5, 0.5], "intensities": [4.0, 4.0]},
        {"name": "encode", "work": 0.6,
         "fractions": [0.2, 0.8], "intensities": [6.0, 2.0]},
    ]
}


def _capture(kind):
    """Evaluate ``kind``; return its explain record (None for phases)."""
    soc, workload = FIGURE_6B.soc(), FIGURE_6B.workload()
    config = PHASES_CONFIG if kind == "phases" else None
    variant = variant_from_config(kind, soc, config)
    if kind == "phases":
        return soc, evaluate_variant(soc, None, variant), None
    result = evaluate_variant(soc, workload, variant)
    return soc, result, from_result(soc, workload, result)


class TestSevenVariantKinds:
    def test_the_seven_kinds_are_covered(self):
        # The suite below must grow with VARIANT_CHOICES.
        assert set(VARIANT_CHOICES) == {
            "base", "serialized", "phases", "coordination",
            "interconnect", "multipath", "memory-side",
        }

    def test_base_has_no_extra_times_and_audits(self):
        _, result, record = _capture("base")
        assert record is not None
        assert record.extra_times == ()
        assert record.audit()
        assert record.attainable == pytest.approx(result.attainable)
        assert f"bound by {record.bottleneck!r}" in record.narrative()

    def test_serialized_narrative_sums_and_audit_dissents(self):
        _, result, record = _capture("serialized")
        assert record is not None
        assert record.extra_times == ()
        # Serialized attainable is 1/sum(times): the series-composition
        # re-derivation (1/max) must NOT confirm it.
        assert not record.audit()
        assert record.attainable == pytest.approx(result.attainable)
        assert "slowest component wins" in record.narrative()

    def test_memory_side_filters_memory_and_audits(self):
        _, result, record = _capture("memory-side")
        assert record is not None
        assert record.extra_times == ()
        assert record.audit()
        # The filtered-traffic memory term shows up in the walkthrough.
        assert "memory:" in record.narrative()

    def test_interconnect_records_the_bus_term(self):
        _, result, record = _capture("interconnect")
        assert record is not None
        names = [name for name, _ in record.extra_times]
        assert names == ["fabric"]
        assert record.audit()
        assert "fabric" in record.component_times()
        assert "fabric:" in record.narrative()
        assert "shared-resource term" in record.narrative()

    def test_multipath_records_solver_assigned_paths(self):
        _, result, record = _capture("multipath")
        assert record is not None
        names = {name for name, _ in record.extra_times}
        assert names  # the route solver reports per-bus times
        assert names <= {"fabric0", "fabric1"}
        assert record.audit()
        for name in names:
            assert f"{name}:" in record.narrative()

    def test_coordination_records_the_dispatch_term(self):
        _, result, record = _capture("coordination")
        assert record is not None
        names = [name for name, _ in record.extra_times]
        assert names == ["coordination"]
        assert record.audit()
        assert "coordination:" in record.narrative()

    def test_phases_audits_each_sub_phase(self):
        soc, result, record = _capture("phases")
        # Phased usecases return a PhasedResult: no single scalar
        # record explains it...
        assert record is None
        # ...but every per-phase sub-result explains and audits.
        assert len(result.phase_results) == 2
        for phase, sub in result.phase_results:
            sub_record = from_result(soc, phase.workload, sub)
            assert sub_record.audit()
            assert sub_record.attainable == pytest.approx(sub.attainable)
            assert "slowest component wins" in sub_record.narrative()


class TestExtraTimesSerialization:
    def test_extra_times_reach_to_dict_and_component_times(self):
        _, _, record = _capture("interconnect")
        data = record.to_dict()
        assert data["extra_times"] == {
            name: t for name, t in record.extra_times
        }
        times = record.component_times()
        for name, t in record.extra_times:
            assert times[name] == t
