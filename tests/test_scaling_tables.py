"""Tests for generational scaling projections and table rendering."""

from __future__ import annotations

import csv
import io
import math

import pytest

from repro.core import FIGURE_6A, FIGURE_6D, Workload
from repro.errors import SpecError
from repro.explore import (
    TechnologyTrend,
    bottleneck_drift,
    project_soc,
    sweep_fraction,
    years_until_memory_bound,
)
from repro.viz import (
    csv_table,
    drift_table,
    markdown_table,
    result_table,
    sweep_table,
)


class TestTechnologyTrend:
    def test_default_memory_wall(self):
        trend = TechnologyTrend()
        assert trend.balance_drift_per_year > 1.0

    def test_regression_rejected(self):
        with pytest.raises(SpecError):
            TechnologyTrend(compute_growth=0.9)


class TestProjection:
    def test_zero_years_identity_up_to_name(self):
        soc = FIGURE_6D.soc()
        future = project_soc(soc, 0)
        assert future.peak_perf == soc.peak_perf
        assert future.memory_bandwidth == soc.memory_bandwidth

    def test_compounded_growth(self):
        soc = FIGURE_6D.soc()
        trend = TechnologyTrend(compute_growth=1.3,
                                memory_bandwidth_growth=1.12,
                                link_bandwidth_growth=1.2)
        future = project_soc(soc, 3, trend)
        assert future.peak_perf == pytest.approx(soc.peak_perf * 1.3**3)
        assert future.memory_bandwidth == pytest.approx(
            soc.memory_bandwidth * 1.12**3
        )
        assert future.ips[1].bandwidth == pytest.approx(
            soc.ips[1].bandwidth * 1.2**3
        )
        # Relative accelerations are untouched.
        assert future.ips[1].acceleration == soc.ips[1].acceleration

    def test_infinite_links_stay_infinite(self):
        from repro.core import IPBlock, SoCSpec

        soc = SoCSpec(1e9, 1e9, (IPBlock("x", 1.0, math.inf),))
        future = project_soc(soc, 5)
        assert math.isinf(future.ips[0].bandwidth)

    def test_negative_years_rejected(self):
        with pytest.raises(SpecError):
            project_soc(FIGURE_6D.soc(), -1)


class TestDrift:
    def test_balanced_design_goes_memory_bound_immediately(self):
        """Fig. 6d is balanced today; one year of compute outgrowing
        bandwidth tips it memory-bound — the memory wall in one row."""
        soc, workload = FIGURE_6D.soc(), FIGURE_6D.workload()
        assert years_until_memory_bound(soc, workload) == 1.0

    def test_high_reuse_usecase_resists_longer(self):
        """Raising the usecase's intensity buys years before the wall."""
        soc = FIGURE_6D.soc()
        low = Workload.two_ip(0.75, 8, 8)
        high = Workload.two_ip(0.75, 64, 64)
        assert years_until_memory_bound(soc, high) > \
            years_until_memory_bound(soc, low)

    def test_drift_speedups_monotone(self):
        points = bottleneck_drift(FIGURE_6A.soc(), FIGURE_6A.workload(),
                                  years=5)
        speedups = [p.speedup_vs_today for p in points]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups == sorted(speedups)

    def test_memory_bound_years_grow_at_bandwidth_rate(self):
        """Once memory binds, year-over-year gains equal the bandwidth
        growth rate exactly."""
        trend = TechnologyTrend()
        points = bottleneck_drift(FIGURE_6D.soc(), FIGURE_6D.workload(),
                                  years=5, trend=trend)
        memory_years = [p for p in points if p.bottleneck == "memory"]
        for before, after in zip(memory_years, memory_years[1:]):
            assert after.attainable / before.attainable == pytest.approx(
                trend.memory_bandwidth_growth, rel=1e-9
            )


class TestTables:
    def test_markdown_structure(self):
        text = markdown_table(("a", "b"), [(1, 2), (3, 4)])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"

    def test_csv_quoting(self):
        text = csv_table(("name",), [("has, comma",)])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["name"], ["has, comma"]]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(SpecError):
            markdown_table(("a", "b"), [(1,)])

    def test_unknown_format_rejected(self):
        series = sweep_fraction(FIGURE_6D.soc(), FIGURE_6D.workload(), 1,
                                (0.0, 0.5))
        with pytest.raises(SpecError):
            sweep_table(series, fmt="latex")

    def test_result_table_lists_all_components(self):
        text = result_table(FIGURE_6D.evaluate())
        for token in ("CPU", "GPU", "memory", "compute", "bandwidth"):
            assert token in text

    def test_sweep_table_csv(self):
        series = sweep_fraction(FIGURE_6D.soc(), FIGURE_6D.workload(), 1,
                                (0.0, 0.75))
        text = sweep_table(series, fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "f[1]"
        assert len(rows) == 3

    def test_drift_table_renders(self):
        points = bottleneck_drift(FIGURE_6D.soc(), FIGURE_6D.workload(),
                                  years=2)
        text = drift_table(points)
        assert "1.00x" in text
        assert "memory" in text
