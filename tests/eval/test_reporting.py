"""Tests for repro.eval.reporting."""

from __future__ import annotations

import pytest

from repro.eval.ablations import AblationPoint
from repro.eval.figure1 import run_figure1
from repro.eval.figure2 import run_figure2
from repro.eval.reporting import (
    format_table,
    render_ablation,
    render_dataset_stats,
    render_figure1,
    render_figure2,
)
from repro.eval.tables import dataset_stats


class TestFormatTable:
    def test_alignment(self):
        out = format_table(("a", "bbb"), [("x", 1), ("yyyy", 22)])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "----" in lines[1]
        assert len(lines) == 4

    def test_empty_rows(self):
        out = format_table(("col",), [])
        assert "col" in out

    def test_indent(self):
        out = format_table(("a",), [("x",)], indent="  ")
        assert all(line.startswith("  ") for line in out.splitlines())


class TestRenderers:
    @pytest.fixture(scope="class")
    def figure1(self, request):
        dataset = request.getfixturevalue("tiny_dataset")
        return run_figure1(dataset.bundle, seed=0)

    def test_render_figure1(self, figure1):
        text = render_figure1(figure1)
        assert "Figure 1" in text
        assert "stability AUROC" in text
        assert "month" in text
        # All evaluated months appear in the table.
        for month in figure1.months():
            assert f"\n{month} " in text or f"\n{month}" in text

    def test_render_figure2(self, case_study):
        text = render_figure2(run_figure2(case=case_study))
        assert "Figure 2" in text
        assert "Coffee" in text
        assert "month 20" in text
        assert "month 22" in text
        assert "ground truth" in text

    def test_render_dataset_stats(self, tiny_dataset):
        text = render_dataset_stats(dataset_stats(tiny_dataset.bundle))
        assert "6,000,000" in text  # the paper column
        assert "statistic" in text

    def test_render_ablation(self):
        text = render_ablation(
            "alpha sweep", [AblationPoint(label="alpha=2", auroc=0.789)]
        )
        assert "alpha sweep" in text
        assert "0.789" in text


class TestExtensionRenderers:
    def test_render_delay(self):
        from repro.eval.delay import DelayAnalysis
        from repro.eval.reporting import render_delay

        analysis = DelayAnalysis(
            beta=0.4,
            target_false_alarm_rate=0.1,
            realised_false_alarm_rate=0.08,
            recall=0.7,
            delays_months={1: 3.0, 2: 5.0},
            median_delay_months=4.0,
            mean_delay_months=4.0,
        )
        text = render_delay(analysis)
        assert "0.400" in text
        assert "8.0%" in text
        assert "median delay" in text

    def test_render_campaign(self, tiny_dataset):
        from repro.eval.campaign import compare_models
        from repro.eval.reporting import render_campaign

        comparison = compare_models(
            tiny_dataset.bundle, months=(22,), budgets=(0.1,), seed=0
        )
        text = render_campaign(comparison, (22,))
        assert "stability" in text
        assert "lift@10%" in text
