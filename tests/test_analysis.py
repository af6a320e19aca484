"""Tests for metrics, diagrams rendering, reports and sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    QualityMetrics,
    compare_outcomes,
    compute_metrics,
    format_table,
    memory_report,
    metrics_report,
    overhead_report,
    quality_series_report,
    render_ascii_plot,
    render_speed_diagram,
    run_sweep,
    series_to_csv,
    smoothness_index,
    sparkline,
    sweep_table,
)
from repro.api import Session
from repro.core import QualityManagerCompiler, SpeedDiagram, run_cycle

from helpers import make_deadline, make_synthetic_system


@pytest.fixture(scope="module")
def setup():
    # large enough that the numeric manager's per-call computation dominates
    # the fixed invocation cost, with moderate worst-case pessimism so control
    # relaxation actually fires (the regime the paper's encoder is in)
    system = make_synthetic_system(n_actions=150, n_levels=6, seed=41, wc_ratio=1.4)
    deadlines = make_deadline(system, slack=1.3)
    controllers = QualityManagerCompiler(relaxation_steps=(1, 2, 4, 8, 16)).compile(
        system, deadlines
    )
    session = (
        Session()
        .system(system)
        .deadlines(deadlines)
        .relaxation_steps(1, 2, 4, 8, 16)
        .machine("ipod")
    )
    results = session.compare(cycles=3, seed=0).runs
    return system, deadlines, controllers, results


class TestSmoothness:
    def test_constant_series_is_perfectly_smooth(self):
        assert smoothness_index(np.array([3, 3, 3, 3])) == 0.0

    def test_alternating_series(self):
        assert smoothness_index(np.array([0, 1, 0, 1])) == pytest.approx(1.0)

    def test_single_action(self):
        assert smoothness_index(np.array([2])) == 0.0


class TestComputeMetrics:
    def test_basic_aggregation(self, setup):
        _, deadlines, _, results = setup
        metrics = compute_metrics(results["numeric"].outcomes, deadlines)
        assert metrics.n_cycles == 3
        assert metrics.deadline_misses == 0
        assert metrics.is_safe
        assert 0.0 < metrics.utilisation <= 1.0
        assert metrics.overhead_fraction > 0.0
        assert metrics.manager_calls == 3 * metrics.n_actions

    def test_as_row_keys(self, setup):
        _, deadlines, _, results = setup
        row = compute_metrics(results["region"].outcomes, deadlines).as_row()
        assert {"mean_quality", "smoothness", "utilisation", "overhead_pct"} <= set(row)

    def test_empty_outcomes_rejected(self, setup):
        _, deadlines, _, _ = setup
        with pytest.raises(ValueError):
            compute_metrics([], deadlines)

    def test_compare_outcomes(self, setup):
        _, deadlines, _, results = setup
        comparison = compare_outcomes(
            {name: result.outcomes for name, result in results.items()}, deadlines
        )
        assert set(comparison) == set(results)
        assert all(isinstance(m, QualityMetrics) for m in comparison.values())

    def test_overhead_ordering_visible_in_metrics(self, setup):
        _, deadlines, _, results = setup
        comparison = compare_outcomes(
            {name: result.outcomes for name, result in results.items()}, deadlines
        )
        assert (
            comparison["numeric"].overhead_fraction
            > comparison["region"].overhead_fraction
            >= comparison["relaxation"].overhead_fraction
        )


class TestRendering:
    def test_sparkline_length(self):
        assert len(sparkline([1, 2, 3, 4])) == 4
        assert sparkline([]) == ""
        assert len(sparkline(np.arange(100), width=20)) == 20

    def test_sparkline_constant_series(self):
        assert set(sparkline([5, 5, 5])) == {"▁"}

    def test_ascii_plot_contains_glyphs_and_legend(self):
        x = np.linspace(0, 1, 20)
        plot = render_ascii_plot({"alpha": (x, x), "beta": (x, 1 - x)}, width=40, height=10)
        assert "a=alpha" in plot
        assert "b=beta" in plot
        assert "a" in plot.splitlines()[3]

    def test_ascii_plot_empty(self):
        assert render_ascii_plot({}) == "(no data)"

    def test_render_speed_diagram(self, setup):
        system, deadlines, controllers, _ = setup
        diagram = SpeedDiagram(system, deadlines, td_table=controllers.td_table)
        outcome = run_cycle(system, controllers.region, rng=np.random.default_rng(0))
        picture = render_speed_diagram(diagram, outcome)
        assert "virtual time" in picture
        assert "trajectory" in picture

    def test_series_to_csv(self):
        csv = series_to_csv({"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])})
        lines = csv.splitlines()
        assert lines[0] == "x,y"
        assert lines[1].startswith("1")
        assert len(lines) == 3

    def test_series_to_csv_empty(self):
        assert series_to_csv({}) == ""


class TestReports:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_memory_report_contains_formulas(self, setup):
        _, _, controllers, _ = setup
        report = memory_report(controllers.report)
        assert "quality regions" in report
        assert "control relaxation" in report
        assert str(controllers.report.region_integers) in report

    def test_overhead_report(self, setup):
        _, deadlines, _, results = setup
        comparison = compare_outcomes(
            {name: result.outcomes for name, result in results.items()}, deadlines
        )
        report = overhead_report(comparison)
        assert "numeric" in report and "relaxation" in report
        assert "%" in report

    def test_metrics_report(self, setup):
        _, deadlines, _, results = setup
        comparison = compare_outcomes(
            {name: result.outcomes for name, result in results.items()}, deadlines
        )
        report = metrics_report(comparison)
        assert "smoothness" in report

    def test_quality_series_report(self):
        report = quality_series_report(
            {"numeric": np.array([3.0, 3.5]), "region": np.array([3.6, 3.7])}
        )
        assert "Figure 7" in report
        assert "3.500" in report


class TestSweep:
    def test_run_sweep_collects_records(self):
        points = run_sweep("x", [1, 2, 3], lambda value: {"square": value * value})
        assert len(points) == 3
        assert points[1].flat() == {"x": 2, "square": 4}

    def test_sweep_table(self):
        points = run_sweep("x", [1, 2], lambda value: {"y": value + 1})
        headers, rows = sweep_table(points)
        assert headers == ["x", "y"]
        assert rows == [[1, 2], [2, 3]]

    def test_sweep_table_empty(self):
        assert sweep_table([]) == ([], [])
