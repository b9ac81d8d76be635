"""Figure 2 (a, b): SoC market growth and on-die heterogeneity.

Regenerates the paper's mined aggregates from the synthetic dataset:
chipset introductions per year (2a) and IP count per generation (2b),
including the named facts (Qualcomm 49 -> 27; TI/Intel exits; >30 IPs).
"""

from __future__ import annotations

from repro.market import (
    SOC_INTRODUCTIONS_BY_YEAR,
    generate_market_dataset,
    ip_count_by_generation,
)


def test_fig2a_series(benchmark):
    dataset = benchmark(generate_market_dataset)
    series = dataset.introductions_by_year()
    assert series == SOC_INTRODUCTIONS_BY_YEAR
    years = sorted(series)
    # Shape: growth to the 2015 peak, then the consolidation decline.
    assert max(series, key=series.get) == 2015
    pre = [series[y] for y in years if y <= 2015]
    assert pre == sorted(pre)
    assert series[2017] < series[2015]


def test_fig2a_consolidation_facts(benchmark):
    dataset = benchmark(generate_market_dataset)
    assert dataset.vendor_counts(2014)["Qualcomm"] == 49
    assert dataset.vendor_counts(2017)["Qualcomm"] == 27
    assert "TI" not in dataset.vendors_active_in(2017)
    assert "Intel" not in dataset.vendors_active_in(2017)


def test_fig2b_ip_counts(benchmark):
    series = benchmark(ip_count_by_generation)
    counts = [series[g] for g in sorted(series)]
    assert counts == sorted(counts)  # steady climb
    assert counts[-1] > 30  # "to over 30 IPs"


def test_fig2b_dataset_tracks_curve(benchmark):
    dataset = benchmark(generate_market_dataset)
    # Mean IP count grows roughly 4x from the first to the last year.
    early = dataset.mean_ip_count(2007)
    late = dataset.mean_ip_count(2017)
    assert late / early > 3.0


def test_fig2a_chart_renders(benchmark):
    from repro.viz import bar_chart_svg

    dataset = generate_market_dataset()

    def render():
        return bar_chart_svg(
            dataset.introductions_by_year(),
            title="Figure 2a: new SoC chipsets per year",
            x_label="year",
            y_label="chipsets",
        )

    svg = benchmark(render)
    assert svg.startswith("<svg")
