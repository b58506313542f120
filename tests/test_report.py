"""Tests for the text rendering helpers."""

import pytest

from repro.report import (bar_chart, format_percent, format_table,
                          horizontal_bar, stacked_bar)


class TestTables:
    def test_alignment(self):
        out = format_table(("a", "long_header"), [("xx", 1.0), ("y", 22.5)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # All data lines padded to the same visual width structure.
        assert "long_header" in lines[0]

    def test_float_formatting(self):
        out = format_table(("v",), [(0.123456,)], float_format="{:.2f}")
        assert "0.12" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [("only-one",)])

    def test_format_percent(self):
        assert format_percent(0.1234) == "12.3%"
        assert format_percent(1.0, digits=0) == "100%"


class TestBars:
    def test_stacked_bar_width(self):
        out = stacked_bar([("x", 0.5), ("y", 0.25)], width=40)
        bar_line = out.splitlines()[0]
        assert bar_line.startswith("|") and bar_line.endswith("|")
        assert len(bar_line) == 42

    def test_stacked_bar_legend(self):
        out = stacked_bar([("alpha", 0.6)], width=20)
        assert "alpha 60.0%" in out

    def test_stacked_bar_rejects_over_one(self):
        with pytest.raises(ValueError):
            stacked_bar([("x", 0.7), ("y", 0.5)])

    def test_stacked_bar_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            stacked_bar([("x", 0.5)], width=3)

    def test_bar_chart_multiple_rows(self):
        out = bar_chart([("row1", [("x", 1.0)]), ("r2", [("y", 0.5)])])
        assert out.count("|") == 4

    def test_horizontal_bar_scaling(self):
        out = horizontal_bar([("a", 10.0), ("b", 5.0)], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_horizontal_bar_validation(self):
        with pytest.raises(ValueError):
            horizontal_bar([])
        with pytest.raises(ValueError):
            horizontal_bar([("a", 0.0)])


class TestExperimentRegistry:
    def test_all_experiments_render(self):
        from repro.experiments import REGISTRY
        from repro.runner.executor import run_one
        # Smoke-render the cheap experiments end to end.
        for eid in ("fig6", "fig12"):
            out = run_one(eid, use_result_cache=False).output
            assert isinstance(out, str) and out
        # Every paper figure/table plus the extension studies.
        paper_ids = {"fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
                     "sec4", "fig11", "fig12", "nmc", "table1"}
        assert paper_ids <= set(REGISTRY)
        assert len(REGISTRY) >= len(paper_ids) + 4
