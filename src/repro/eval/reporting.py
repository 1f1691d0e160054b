"""Text rendering of experiment results.

Every experiment renders to plain text (tables and ASCII charts) so the
benchmark harness can print the same rows/series the paper reports without
a plotting stack.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.eval.ablations import AblationPoint
from repro.eval.campaign import CampaignComparison
from repro.eval.delay import DelayAnalysis
from repro.eval.figure1 import Figure1Result
from repro.eval.figure2 import Figure2Result
from repro.eval.tables import DatasetStats
from repro.viz.ascii import line_chart

__all__ = [
    "format_table",
    "render_figure1",
    "render_figure2",
    "render_dataset_stats",
    "render_ablation",
    "render_delay",
    "render_campaign",
]


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[object]], indent: str = ""
) -> str:
    """Fixed-width text table with a separator under the header."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in cells)) if cells else len(str(header[i]))
        for i in range(len(header))
    ]
    def fmt_row(row: Sequence[str]) -> str:
        return indent + "  ".join(str(c).ljust(w) for c, w in zip(row, widths, strict=True)).rstrip()

    lines = [fmt_row([str(h) for h in header])]
    lines.append(indent + "  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)


def render_figure1(result: Figure1Result) -> str:
    """Figure 1 as a table plus an ASCII chart of both AUROC curves."""
    rows = [
        (month, f"{stab:.3f}", f"{rfm:.3f}")
        for month, stab, rfm in result.rows()
    ]
    table = format_table(("month", "stability AUROC", "RFM AUROC"), rows)
    chart = line_chart(
        x=result.months(),
        series={
            "stability": result.stability.values(),
            "rfm": result.rfm.values(),
        },
        title=(
            f"Figure 1 — AUROC vs months (onset at month {result.onset_month}, "
            f"w={result.window_months}mo, alpha={result.alpha:g})"
        ),
        y_range=(0.0, 1.0),
    )
    return f"{chart}\n\n{table}"


def render_figure2(result: Figure2Result, top_k: int = 4) -> str:
    """Figure 2 as a chart plus the per-drop explanation annotations."""
    values = [v if not math.isnan(v) else 0.0 for v in result.stability]
    chart = line_chart(
        x=result.months,
        series={"stability": values},
        title="Figure 2 — defecting customer stability value",
        y_range=(0.0, 1.0),
    )
    lines = [chart, ""]
    for month in sorted(result.explanations):
        names = result.explained_names(month, top_k=top_k)
        lines.append(f"month {month}: stability decrease explained by loss of "
                     f"{', '.join(names) if names else '(nothing)'}")
    lines.append("")
    lines.append(
        f"ground truth: {', '.join(result.first_loss_names)} lost in the window "
        f"ending at month {result.first_loss_month}; "
        f"{', '.join(result.second_loss_names)} lost in the window ending at "
        f"month {result.second_loss_month}"
    )
    return "\n".join(lines)


def render_dataset_stats(stats: DatasetStats) -> str:
    """The E3 statistics table, paper vs this dataset."""
    return format_table(("statistic", "paper", "this run"), stats.rows())


def render_ablation(title: str, points: Sequence[AblationPoint]) -> str:
    """One ablation sweep as a table."""
    rows = [(p.label, f"{p.auroc:.3f}") for p in points]
    return f"{title}\n{format_table(('configuration', 'AUROC'), rows)}"


def render_delay(analysis: DelayAnalysis) -> str:
    """The A4 detection-delay summary (one operating point)."""
    rows = [
        ("calibrated beta", f"{analysis.beta:.3f}"),
        ("target false-alarm rate", f"{analysis.target_false_alarm_rate:.1%}"),
        ("realised false-alarm rate", f"{analysis.realised_false_alarm_rate:.1%}"),
        ("churners detected", f"{analysis.recall:.1%}"),
        ("median delay (months)", f"{analysis.median_delay_months:.1f}"),
        ("mean delay (months)", f"{analysis.mean_delay_months:.1f}"),
    ]
    return format_table(("metric", "value"), rows)


def render_campaign(
    comparison: CampaignComparison, months: Sequence[int], budget: float = 0.1
) -> str:
    """The A5 model-comparison table (AUROC per month + lift at a budget)."""
    months = sorted(months)
    rows = []
    for model, by_month in comparison.auroc_table():
        lift = comparison.at(model, months[-1]).lift[budget]
        rows.append(
            (model, *(f"{by_month[m]:.3f}" for m in months), f"{lift:.2f}x")
        )
    return format_table(
        ("model", *(f"AUROC m{m}" for m in months), f"lift@{budget:.0%}"), rows
    )
