"""Tests for 2-D sweeps, heatmaps, and market analytics."""

from __future__ import annotations

import math
import xml.dom.minidom

import pytest

from repro.core import FIGURE_6A, FIGURE_6D, Workload, evaluate
from repro.errors import ReproError, SpecError, WorkloadError
from repro.explore import GridCell, analytic_mixing_grid, sweep_grid
from repro.market import (
    concentration_series,
    consolidation_report,
    herfindahl_index,
    vendors_per_year,
)
from repro.viz import heatmap_svg


@pytest.fixture()
def grid():
    return analytic_mixing_grid(FIGURE_6D.soc())


class TestSweepGrid:
    def test_dimensions(self, grid):
        assert len(grid.cells) == 9 * 6
        assert grid.x_values() == tuple(i / 8 for i in range(9))
        assert grid.y_values() == (1, 4, 16, 64, 256, 1024)

    def test_cells_match_direct_evaluation(self, grid):
        soc = FIGURE_6D.soc()
        cell = grid.at(0.75, 16)
        direct = evaluate(soc, Workload.two_ip(0.75, 16, 16))
        assert cell.attainable == pytest.approx(direct.attainable)
        assert cell.bottleneck == direct.bottleneck

    def test_row_ordering(self, grid):
        row = grid.row(64)
        assert [cell.x for cell in row] == sorted(cell.x for cell in row)

    def test_best_cell(self, grid):
        best = grid.best()
        assert best.attainable == max(c.attainable for c in grid.cells)

    def test_bottleneck_regions_partition(self, grid):
        census = grid.bottleneck_regions()
        assert sum(census.values()) == len(grid.cells)
        assert len(census) >= 2  # the grid spans regimes

    def test_missing_cell_raises(self, grid):
        with pytest.raises(SpecError):
            grid.at(0.33, 7)

    def test_custom_grid_builder(self):
        soc = FIGURE_6D.soc()

        def build(f: float, i0: float) -> Workload:
            return Workload.two_ip(f, i0, 8.0)

        custom = sweep_grid(soc, "f", (0.0, 0.5), "I0", (1.0, 8.0), build)
        assert len(custom.cells) == 4
        assert custom.x_name == "f"

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            sweep_grid(FIGURE_6D.soc(), "x", (), "y", (1,),
                       lambda x, y: Workload.two_ip(0.5, 1, 1))

    def test_ip_index_validated(self):
        with pytest.raises(SpecError):
            analytic_mixing_grid(FIGURE_6D.soc(), ip_index=0)


def eager_cells(coords, batch) -> tuple:
    """One keyword-built ``GridCell`` per evaluated row of the batch
    over the built cells' coordinates: the reference the grid's
    positional build must reproduce."""
    names = batch.component_names
    return tuple(
        GridCell(
            x=float(x), y=float(y), attainable=attainable,
            bottleneck=names[code],
        )
        for (x, y), attainable, code in zip(
            coords,
            batch.attainables.tolist(),
            batch.bottleneck_codes.tolist(),
        )
        if code >= 0
    )


def _bits(cells) -> list:
    return [
        (c.x.hex(), c.y.hex(), c.attainable.hex(), c.bottleneck)
        for c in cells
    ]


class TestGridCells:
    """The grid builds the reference cells from its batch."""

    #: Duplicate and signed-zero coordinates, ints among the floats; the
    #: NaN intensity fails its build in the tolerant modes.
    SOC = FIGURE_6A.soc()
    X = (1.0, -0.0, 0.5, 0.0, 0.5, 0.25)
    Y = (0.5, 16, 16.0, 4.0, 1.0)

    @staticmethod
    def build(f, intensity):
        return Workload.two_ip(f, intensity, intensity)

    @pytest.mark.parametrize("on_error", ["raise", "record", "skip"])
    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_cells_match_the_reference_build(self, engine, on_error,
                                             batches):
        ys = self.Y if on_error == "raise" else self.Y + (math.nan,)
        grid = sweep_grid(self.SOC, "f", self.X, "I", ys, self.build,
                          on_error=on_error, engine=engine)
        coords = []
        for y in ys:
            for x in self.X:
                try:
                    self.build(x, y)
                except ReproError:
                    continue
                coords.append((x, y))
        (batch,) = batches
        assert _bits(grid.cells) == _bits(eager_cells(coords, batch))
        assert len(grid.cells) == len(self.X) * len(self.Y)
        assert len(grid.errors) == (len(self.X) if on_error == "record"
                                    else 0)
        assert grid.x_values()[0].hex() == (-0.0).hex()

    def test_all_failed_grid_is_empty(self):
        grid = sweep_grid(self.SOC, "f", (0.5,), "I", (math.nan,),
                          self.build, on_error="record")
        assert grid.cells == ()
        assert [f.code for f in grid.errors] == ["WORKLOAD_INVALID"]


class TestWrongWidthCells:
    """A cell whose workload covers the wrong number of IPs fails as
    scalar ``evaluate`` fails it, alone; the other cells are unchanged."""

    SOC = FIGURE_6A.soc()  # two IPs
    X = (0.0, 0.5, 0.25, 0.5, 1.0)
    Y = (1.0, 16.0)

    @staticmethod
    def build(f, intensity):
        if f == 0.5:  # three IPs
            return Workload((0.5, 0.25, 0.25), (intensity,) * 3)
        return Workload.two_ip(f, intensity, intensity)

    def scalar_error(self) -> tuple:
        with pytest.raises(WorkloadError) as excinfo:
            evaluate(self.SOC, self.build(0.5, 1.0))
        return excinfo.value.code, str(excinfo.value)

    @pytest.mark.parametrize("xs", [X, (0.5,)], ids=["some", "every"])
    def test_raise_gives_the_scalar_error(self, xs):
        with pytest.raises(WorkloadError) as excinfo:
            sweep_grid(self.SOC, "f", xs, "I", self.Y, self.build)
        assert (excinfo.value.code, str(excinfo.value)) == self.scalar_error()

    @pytest.mark.parametrize("on_error", ["record", "skip"])
    @pytest.mark.parametrize("xs", [X, (0.5,)], ids=["some", "every"])
    def test_tolerant_modes_fail_each_such_cell(self, xs, on_error):
        grid = sweep_grid(self.SOC, "f", xs, "I", self.Y, self.build,
                          on_error=on_error)
        kept = tuple(x for x in xs if x != 0.5)
        reference = (
            sweep_grid(self.SOC, "f", kept, "I", self.Y, self.build).cells
            if kept else ()
        )
        assert _bits(grid.cells) == _bits(reference)
        failed = [
            ((0.5, y), *self.scalar_error())
            for y in self.Y for x in xs if x == 0.5
        ]
        assert [(f.coords, f.code, f.message) for f in grid.errors] == (
            failed if on_error == "record" else []
        )


class TestHeatmap:
    def test_valid_svg_with_tooltips(self, grid):
        svg = heatmap_svg(grid, "Analytic mixing")
        xml.dom.minidom.parseString(svg)
        assert "Analytic mixing" in svg
        assert "-bound" in svg  # per-cell tooltips name the bottleneck

    def test_normalization(self, grid):
        base = grid.at(0.0, 1.0).attainable
        svg = heatmap_svg(grid, "normalized", normalize_to=base)
        xml.dom.minidom.parseString(svg)
        assert "1" in svg  # the f=0, I=1 corner labels 1.0

    def test_axis_labels_present(self, grid):
        svg = heatmap_svg(grid, "t")
        assert ">f<" in svg and ">I<" in svg


class TestMarketAnalytics:
    def test_vendor_counts_shrink_after_peak(self, market_dataset):
        vendors = vendors_per_year(market_dataset)
        assert vendors[2017] < vendors[2011]

    def test_hhi_in_unit_interval(self, market_dataset):
        for year, hhi in concentration_series(market_dataset).items():
            assert 0 < hhi <= 1, year

    def test_consolidation_raises_concentration(self, market_dataset):
        """Post-peak exits concentrate the market: HHI rises."""
        report = consolidation_report(market_dataset)
        assert report["peak_year"] == 2015
        assert report["hhi_change"] > 0
        assert report["vendors_at_end"] <= report["vendors_at_peak"]

    def test_unknown_year_rejected(self, market_dataset):
        with pytest.raises(SpecError):
            herfindahl_index(market_dataset, 1999)
