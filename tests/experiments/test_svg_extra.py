"""Tests for SVG/HTML rendering and the extra sweeps."""

import pytest

from repro.experiments.api import Campaign, CampaignSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.extra import (
    heterogeneity_sweep,
    platform_size_sweep,
    sweep_table,
)
from repro.experiments.svg import (
    SvgLineChart,
    _nice_ticks,
    campaign_to_charts,
    write_html_report,
)
from repro.utils.errors import CampaignConfigError


@pytest.fixture(scope="module")
def mini_result():
    cfg = ExperimentConfig(
        name="svg-mini",
        granularities=(0.5, 1.5),
        num_procs=6,
        epsilon=1,
        crashes=1,
        num_graphs=2,
        task_range=(15, 20),
    )
    return Campaign(CampaignSpec(config=cfg)).run().result()


class TestTicks:
    def test_covers_range(self):
        ticks = _nice_ticks(0.0, 10.0)
        assert ticks[0] <= 0.0 + 1e-9 and ticks[-1] >= 10.0 - 2.5

    def test_degenerate_range(self):
        assert _nice_ticks(5.0, 5.0) == [5.0]

    def test_small_range(self):
        ticks = _nice_ticks(0.2, 2.0)
        assert len(ticks) >= 3
        assert ticks == sorted(ticks)


class TestSvgLineChart:
    def test_renders_valid_svg(self):
        chart = SvgLineChart("t", "x", "y")
        chart.add_series("a", [0, 1, 2], [1.0, 2.0, 1.5])
        svg = chart.render()
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg
        assert ">t<" in svg  # title text

    def test_nan_points_dropped(self):
        chart = SvgLineChart("t", "x", "y")
        chart.add_series("a", [0, 1, 2], [1.0, float("nan"), 2.0])
        svg = chart.render()
        assert svg.count("<circle") == 2

    def test_empty_chart(self):
        svg = SvgLineChart("t", "x", "y").render()
        assert "<svg" in svg

    def test_legend_entries(self):
        chart = SvgLineChart("t", "x", "y")
        chart.add_series("alpha", [0, 1], [1, 2])
        chart.add_series("beta", [0, 1], [2, 3])
        svg = chart.render()
        assert "alpha" in svg and "beta" in svg

    def test_escapes_html(self):
        chart = SvgLineChart("<script>", "x", "y")
        chart.add_series("a&b", [0, 1], [1, 2])
        svg = chart.render()
        assert "<script>" not in svg.replace("&lt;script&gt;", "")
        assert "a&amp;b" in svg


class TestCampaignCharts:
    def test_four_panels(self, mini_result):
        charts = campaign_to_charts(mini_result)
        assert len(charts) == 4
        titles = [c.title for c in charts]
        assert any("(a)" in t for t in titles)
        assert any("(c)" in t for t in titles)
        assert any("messages" in t for t in titles)

    def test_html_report(self, mini_result, tmp_path):
        path = write_html_report(mini_result, tmp_path / "report.html")
        text = path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert text.count("<svg") == 4
        assert "svg-mini" in text


class TestExtraSweeps:
    def test_heterogeneity_sweep_shape(self):
        results = heterogeneity_sweep(
            factors=(0.0, 1.0), num_procs=5, num_graphs=1,
        )
        assert [h for h, _p in results] == [0.0, 1.0]
        for _h, point in results:
            assert point.per_algorithm["caft"].mean("norm_latency") >= 1.0

    def test_platform_size_sweep_shape(self):
        results = platform_size_sweep(sizes=(4, 6), num_graphs=1)
        assert [m for m, _p in results] == [4, 6]

    def test_sweep_point_independent_of_its_neighbours(self):
        # one grid per sweep, but seeds are per scenario: a point is the
        # same whichever other sizes run beside it
        (_, alone), = platform_size_sweep(sizes=(6,), num_graphs=1)
        (_, _), (_, beside) = platform_size_sweep(sizes=(4, 6), num_graphs=1)
        assert alone.row() == beside.row()

    def test_platform_sweep_rejects_eps_beyond_size(self):
        with pytest.raises(CampaignConfigError, match="num_procs=2"):
            platform_size_sweep(sizes=(2, 6), epsilon=2, num_graphs=1)

    def test_sweep_table_format(self):
        results = platform_size_sweep(sizes=(4,), num_graphs=1)
        table = sweep_table(results, metric="norm_latency", label="m")
        assert "caft" in table and "ftsa" in table
        assert "4" in table

    def test_sweep_table_empty(self):
        assert sweep_table([]) == "(empty sweep)"
