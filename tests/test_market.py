"""Tests for the synthetic market dataset (paper Figure 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market import (
    SOC_INTRODUCTIONS_BY_YEAR,
    generate_market_dataset,
    ip_count_by_generation,
    soc_introductions_by_year,
)
from repro.market.series import growth_multiple, peak_year


class TestPublishedSeries:
    def test_fig2a_shape_growth_then_decline(self):
        """Growth from 2007, peak ~2015, decline after (consolidation)."""
        series = soc_introductions_by_year()
        years = sorted(series)
        assert years[0] == 2007 and years[-1] == 2017
        assert peak_year() == 2015
        pre_peak = [series[y] for y in years if y <= 2015]
        assert pre_peak == sorted(pre_peak)  # monotone growth to peak
        assert series[2016] < series[2015]
        assert series[2017] < series[2016]

    def test_fig2b_climbs_past_30(self):
        """Paper: 'The number of IPs has steadily climbed to over 30.'"""
        series = ip_count_by_generation()
        counts = [series[g] for g in sorted(series)]
        assert counts == sorted(counts)
        assert counts[-1] > 30
        assert counts[0] < 10

    def test_growth_multiple(self):
        assert growth_multiple() == pytest.approx(121 / 12)

    def test_accessors_return_copies(self):
        copy = soc_introductions_by_year()
        copy[2007] = 0
        assert SOC_INTRODUCTIONS_BY_YEAR[2007] != 0


class TestSyntheticDataset:
    def test_yearly_totals_match_series(self, market_dataset):
        assert market_dataset.introductions_by_year() == \
            SOC_INTRODUCTIONS_BY_YEAR

    def test_qualcomm_consolidation_pinned(self, market_dataset):
        """Paper footnote 2: 49 Qualcomm chipsets in 2014, 27 in 2017."""
        assert market_dataset.vendor_counts(2014)["Qualcomm"] == 49
        assert market_dataset.vendor_counts(2017)["Qualcomm"] == 27

    def test_vendor_exits(self, market_dataset):
        """Paper footnote 2: TI and Intel left the market."""
        assert "TI" in market_dataset.vendors_active_in(2011)
        assert "TI" not in market_dataset.vendors_active_in(2013)
        assert "Intel" not in market_dataset.vendors_active_in(2017)

    def test_ip_counts_track_generations(self, market_dataset):
        early = market_dataset.mean_ip_count(2008)
        late = market_dataset.mean_ip_count(2017)
        assert late > 2.5 * early
        assert late > 30 - 5  # near the Fig. 2b top

    def test_deterministic_for_seed(self):
        a = generate_market_dataset(seed=7)
        b = generate_market_dataset(seed=7)
        assert a.records == b.records

    def test_different_seeds_differ_in_detail(self):
        a = generate_market_dataset(seed=7)
        b = generate_market_dataset(seed=8)
        assert a.records != b.records
        # ... but aggregates are invariant.
        assert a.introductions_by_year() == b.introductions_by_year()

    def test_models_unique(self, market_dataset):
        models = [record.model for record in market_dataset.records]
        assert len(models) == len(set(models))

    def test_modern_chipsets_multicore(self, market_dataset):
        for record in market_dataset.records:
            if record.year >= 2014:
                assert record.cpu_cores >= 4

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_aggregate_invariants_hold_for_every_seed(self, seed):
        dataset = generate_market_dataset(seed=seed)
        assert dataset.introductions_by_year() == SOC_INTRODUCTIONS_BY_YEAR
        assert dataset.vendor_counts(2014)["Qualcomm"] == 49
        assert dataset.vendor_counts(2017)["Qualcomm"] == 27
        for record in dataset.records:
            assert record.ip_count >= 2
